/**
 * @file
 * sfibench: the sfikit end-to-end benchmark program.
 *
 *   sfibench --workload faas_capacity|library_embed
 *            --seed N --seconds S --trace 0|1 --expected FILE
 *            [--out DIR] [--commit ID] [--source-digest HEX]
 *   sfibench --self-test        the benchmark's own tests
 *   sfibench --list-metrics     every metric name and unit it can print
 *   sfibench --gen-expected     regenerate expected.txt (interpreter)
 *
 * A run measures rounds of all three phases (faas_capacity, cold_start
 * and library_embed) for about --seconds on the reference host, most of
 * them of the named workload's phase, setting all three up afresh
 * before every round (setup_s is the median set-up), and prints one
 * JSON object as its last line: {"correct", "attempted", "failed",
 * "metrics"}.
 * With --trace 1 the metrics are the per-layer ones, and the spans
 * are written to DIR.
 */
#include <sys/resource.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <thread>

#include "base/cpu.h"
#include "bench.h"
#include "interp/interp.h"
#include "jit/codecache.h"
#include "jit/strategy.h"
#include "mpk/mpk.h"
#include "seg/seg.h"
#include "w2c/heap.h"
#include "w2c/kernels.h"
#include "wkld/workloads.h"

namespace sfibench {

std::vector<MetricSpec>
endToEndMetrics()
{
    return {
        {"capacity_rps", "rps"},
        {"p50_ms", "ms"},
        {"first_response_p50_us", "us"},
        {"first_response_p99_us", "us"},
        {"arrivals_per_s", "1/s"},
        {"jit_sfi_norm", "ratio"},
        {"lfi_segue_norm", "ratio"},
        {"w2c_segue_norm", "ratio"},
        {"call_ns", "ns"},
        {"setup_s", "s"},
        {"peak_rss_mb", "MiB"},
    };
}

std::vector<MetricSpec>
perLayerMetrics()
{
    std::vector<MetricSpec> m = {
        {"faas.p99_ms", "ms"},
        {"faas.queue_p99_ms", "ms"},
        {"faas.service_p50_us", "us"},
        {"faas.epoch_yields_per_req", "1/req"},
        {"faas.drain_ms", "ms"},
        {"faas.replay_request_us", "us"},
        {"pool.allocate_us", "us"},
        {"pool.free_us", "us"},
        {"pool.warm_hit_ratio", "ratio"},
        {"pool.zeroed_kib_per_req", "KiB"},
        {"pool.steals_per_req", "1/req"},
        {"runtime.instance_create_us", "us"},
        {"runtime.entry_us", "us"},
        {"runtime.first_call_us", "us"},
        {"transition.call_ns", "ns"},
        {"transition.direct_ns", "ns"},
        {"transition.batched_ns", "ns"},
        {"transition.colorguard_extra_ns", "ns"},
        {"mpk.write_pkru_ns", "ns"},
        {"mpk.write_pkru_emulated_ns", "ns"},
        {"seg.gs_skip_ratio", "ratio"},
        {"jit.run_ms", "ms"},
        {"jit.code_bytes", "bytes"},
        {"jit.compile_ms", "ms"},
        {"w2c.font_ms", "ms"},
        {"w2c.xml_ms", "ms"},
        {"tier.compile_tiered_us", "us"},
        {"tier.baseline_compiles", "count"},
        {"tier.tier_ups", "count"},
        {"tier.interp_fallbacks", "count"},
        {"codecache.hit_ratio", "ratio"},
        {"codecache.published_kib", "KiB"},
        {"verify.fill_ms", "ms"},
        {"wasm.validate_us", "us"},
        {"trace.overhead_pct", "%"},
        {"trace.replay_unattributed_pct", "%"},
        {"trace.cold_unattributed_pct", "%"},
    };
    for (const auto* suite : {&sfi::wkld::sightglass(), &sfi::wkld::spec17()})
        for (const auto& w : *suite)
            m.push_back({std::string("jit.kernel.") + w.name + "_ms", "ms"});
    for (int k = 0; k < sfi::w2c::kNumKernels; k++)
        m.push_back({std::string("w2c.kernel.") +
                         sfi::w2c::kKernels<sfi::w2c::NativePolicy>[k].ours +
                         "_norm",
                     "ratio"});
    return m;
}

namespace {

using namespace sfi;

/** Time the workload's phase gets relative to each other shared one. */
constexpr double kFocusWeight = 2.0;

/** Workloads: the phases a run can give most of its time. */
const char* const kWorkloadNames[] = {"faas_capacity", "library_embed"};

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (uint8_t(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

double
peakRssMiB()
{
    struct rusage ru;
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/** Host shape and configuration, recorded with every result. */
std::string
hostJson(const Args& args, const std::string& commit,
         const std::string& digest)
{
    const CpuFeatures& f = cpuFeatures();
    char fp[64];
    std::snprintf(fp, sizeof fp, "%016llx",
                  (unsigned long long)jit::CodeCache::configFingerprint(
                      jit::CompilerConfig::wamrSegue()));
    std::string s = "{";
    s += "\"hw_threads\":" + std::to_string(std::thread::hardware_concurrency());
    s += std::string(",\"pku\":") + (f.pku ? "true" : "false");
    s += std::string(",\"ospke\":") + (f.ospke ? "true" : "false");
    s += std::string(",\"fsgsbase\":") + (f.fsgsbase ? "true" : "false");
    s += ",\"gs_write_mode\":" +
         jsonString(seg::gsWriteMode() == seg::GsWriteMode::Fsgsbase
                        ? "fsgsbase"
                        : "arch_prctl");
    s += ",\"mpk_default\":" + jsonString(mpk::defaultSystem().name());
    s += ",\"wamr_segue_config_fingerprint\":" + jsonString(fp);
    s += ",\"commit\":" + jsonString(commit);
    s += ",\"source_digest\":" + jsonString(digest);
    s += ",\"workload\":" + jsonString(args.workload);
    s += ",\"seed\":" + std::to_string(args.seed);
    s += ",\"seconds\":" + jsonNumber(args.seconds);
    s += std::string(",\"trace\":") + (args.trace ? "1" : "0");
    return s + "}";
}

std::string
metricsJson(const Report& report)
{
    std::string s = "{";
    bool first = true;
    for (const auto& [name, m] : report.metrics()) {
        if (!first)
            s += ", ";
        first = false;
        s += jsonString(name) + ": {\"value\": " + jsonNumber(m.value) +
             ", \"unit\": " + jsonString(m.unit) + "}";
    }
    return s + "}";
}

/**
 * Reference values for expected.txt, from the interpreter (wasm
 * kernels, FaaS responses) and NativePolicy (the w2c kernels, which
 * are C++ and have no interpreter form).
 */
int
generateExpected()
{
    std::printf("# Reference values for sfibench, one \"key 0xvalue\" per "
                "line.\n# Regenerate: sfibench --gen-expected > "
                "sfibench/expected.txt\n");
    {
        // FaasHost serves request i with a fresh instance and folds
        // handle(i) + i into an xor checksum.
        const uint64_t n = kFaasRequestsPerProbe;
        wasm::Module m = faasFunction();
        uint64_t sum = 0;
        for (uint64_t id = 0; id < n; id++) {
            auto inst = interp::Instance::instantiate(
                m, {{"io_wait", [](uint64_t*, size_t) {
                         return interp::HostOutcome{};
                     }}});
            if (!inst.isOk())
                return 1;
            interp::Outcome o = inst->callExport("handle", {id & 0xffffffffu});
            if (!o.ok())
                return 1;
            sum ^= o.value + id;
        }
        std::printf("faas.html-templating.%llu 0x%016llx\n",
                    (unsigned long long)n, (unsigned long long)sum);
        std::fflush(stdout);
    }
    for (const auto* suite : {&wkld::sightglass(), &wkld::spec17()}) {
        for (const auto& w : *suite) {
            auto inst = interp::Instance::instantiate(w.make());
            if (!inst.isOk())
                return 1;
            interp::Outcome o = inst->callExport("run", {w.benchScale});
            if (!o.ok())
                return 1;
            std::printf("kernel.%s 0x%016llx\n", w.name,
                        (unsigned long long)o.value);
            std::fflush(stdout);
        }
    }
    auto heap = w2c::SandboxHeap::create(w2c::kernelHeapBytes(16));
    if (!heap.isOk())
        return 1;
    for (int k = 0; k < w2c::kNumKernels; k++) {
        w2c::NativePolicy p = heap->policy<w2c::NativePolicy>();
        std::printf("w2c.%s 0x%016llx\n",
                    w2c::kKernels<w2c::NativePolicy>[k].ours,
                    (unsigned long long)w2c::kKernels<w2c::NativePolicy>[k].fn(
                        p, 16));
    }
    return 0;
}

bool
knownWorkload(const std::string& s)
{
    for (const char* w : kWorkloadNames)
        if (s == w)
            return true;
    return false;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: sfibench --workload faas_capacity|library_embed "
                 "--seed N --seconds S --trace 0|1 "
                 "--expected FILE [--out DIR] [--commit ID] "
                 "[--source-digest HEX]\n"
                 "       sfibench --self-test | --list-metrics | "
                 "--gen-expected\n");
    return 2;
}

int
run(int argc, char** argv)
{
    Args args;
    std::string expected_path, commit = "unknown", digest = "unknown";
    for (int i = 1; i < argc; i++) {
        std::string a = argv[i];
        if (a == "--self-test")
            return runSelfTests() == 0 ? 0 : 1;
        if (a == "--list-metrics") {
            for (const auto& m : endToEndMetrics())
                std::printf("end_to_end %s %s\n", m.name.c_str(),
                            m.unit.c_str());
            for (const auto& m : perLayerMetrics())
                std::printf("per_layer %s %s\n", m.name.c_str(),
                            m.unit.c_str());
            return 0;
        }
        if (a == "--gen-expected")
            return generateExpected();
        if (i + 1 >= argc)
            return usage();
        const char* v = argv[++i];
        if (a == "--workload") {
            args.workload = v;
            if (!knownWorkload(args.workload))
                return usage();
        } else if (a == "--seed") {
            args.seed = std::strtoull(v, nullptr, 10);
        } else if (a == "--seconds") {
            args.seconds = std::strtod(v, nullptr);
        } else if (a == "--trace") {
            args.trace = std::strcmp(v, "1") == 0;
        } else if (a == "--expected") {
            expected_path = v;
        } else if (a == "--out") {
            args.outDir = v;
        } else if (a == "--commit") {
            commit = v;
        } else if (a == "--source-digest") {
            digest = v;
        } else {
            return usage();
        }
    }
    if (args.workload.empty() || expected_path.empty() ||
        !(args.seconds > 0))
        return usage();
    auto expected = std::make_shared<Expected>();
    std::string err;
    if (!expected->load(expected_path, &err)) {
        std::fprintf(stderr, "sfibench: %s\n", err.c_str());
        return 2;
    }
    args.expected = expected;

    const std::string host = hostJson(args, commit, digest);
    std::printf("host %s\n", host.c_str());
    std::fflush(stdout);

    std::vector<std::unique_ptr<Phase>> phases;
    phases.push_back(makeFaasCapacity());
    phases.push_back(makeColdStart());
    phases.push_back(makeLibraryEmbed());
    Phase* focus = nullptr;
    for (auto& p : phases)
        if (args.workload == p->name())
            focus = p.get();

    Report report;
    // Set-up runs again before every round, so setup_s is the median
    // of many set-ups spread over the whole run, like the metrics.
    std::vector<double> setups;
    std::map<const Phase*, std::vector<double>> phase_setup;
    auto setupAll = [&] {
        uint64_t t0 = monotonicNs();
        for (auto& p : phases) {
            uint64_t p0 = monotonicNs();
            p->setup(args, report);
            phase_setup[p.get()].push_back(double(monotonicNs() - p0) / 1e9);
        }
        setups.push_back(double(monotonicNs() - t0) / 1e9);
    };

    Tracer tracer;
    Tracer* tr = args.trace ? &tracer : nullptr;
    const uint64_t start = monotonicNs();
    // The run plan: phases with fixed rounds make them; the others
    // share the rest of --seconds, the workload's phase kFocusWeight
    // times as much as each other one, turned into round counts with
    // each phase's nominal round length. The work a run does thus
    // depends only on its arguments. Rounds interleave (the next goes
    // to the phase least far through its plan), so each phase samples
    // the whole run rather than one stretch of it.
    std::map<const Phase*, uint64_t> plan, rounds;
    std::map<const Phase*, double> phase_s;
    double rest_s = args.seconds, weights = 0;
    for (auto& p : phases) {
        if (p->fixedRounds() > 0)
            rest_s -= p->fixedRounds() * p->nominalRoundSeconds();
        else
            weights += p.get() == focus ? kFocusWeight : 1.0;
    }
    for (auto& p : phases) {
        if (p->fixedRounds() > 0) {
            plan[p.get()] = uint64_t(p->fixedRounds());
            continue;
        }
        double share = (p.get() == focus ? kFocusWeight : 1.0) / weights;
        int q = p->roundQuantum();
        int64_t n = std::llround(std::max(rest_s, 0.0) * share /
                                 p->nominalRoundSeconds() / q) * q;
        plan[p.get()] = uint64_t(std::max<int64_t>(n, q));
    }
    for (;;) {
        Phase* next = nullptr;
        double best = 2;
        for (auto& p : phases) {
            const Phase* q = p.get();
            double progress = double(rounds[q]) / double(plan[q]);
            if (rounds[q] < plan[q] && progress < best) {
                next = p.get();
                best = progress;
            }
        }
        if (!next)
            break;
        if (!next->canContinue()) {
            report.check(false, 1, std::string(next->name()) +
                                       ": planned round cannot run");
            plan[next] = rounds[next];
            continue;
        }
        setupAll();
        uint64_t t0 = monotonicNs();
        next->round(rounds[next]++, tr, report);
        phase_s[next] += double(monotonicNs() - t0) / 1e9;
    }
    for (auto& p : phases)
        report.note(std::string(p->name()) + ".setup_s",
                    std::to_string(median(phase_setup[p.get()])));
    for (auto& p : phases) {
        report.note(std::string(p->name()) + ".rounds",
                    std::to_string(rounds[p.get()]));
        report.note(std::string(p->name()) + ".measured_s",
                    std::to_string(phase_s[p.get()]));
    }
    const double measured_s = double(monotonicNs() - start) / 1e9;

    for (auto& p : phases)
        p->finish(args.trace, tr, report);
    if (!args.trace) {
        report.set("setup_s", median(setups), "s");
        report.set("peak_rss_mb", peakRssMiB(), "MiB");
    } else {
        report.note("trace.spans", std::to_string(tracer.spans().size()));
    }

    // The printed set must be exactly the declared one, and end-to-end
    // values must be positive (a zero means the phase measured nothing).
    std::set<std::string> want, got;
    for (const auto& m : args.trace ? perLayerMetrics() : endToEndMetrics())
        want.insert(m.name);
    for (const auto& [name, m] : report.metrics()) {
        got.insert(name);
        if (!args.trace && !(m.value > 0))
            report.check(false, 1, "metric " + name + " is not positive");
    }
    report.check(want == got, 1, "printed metric set differs from the "
                                 "declared one");

    if (!args.outDir.empty()) {
        std::string stem = args.outDir + "/" +
                           args.workload + "-seed" +
                           std::to_string(args.seed) + "-trace" +
                           (args.trace ? "1" : "0");
        if (FILE* f = std::fopen((stem + ".json").c_str(), "w")) {
            std::string notes = "{";
            for (const auto& [k, v] : report.notes())
                notes += (notes.size() > 1 ? "," : "") + jsonString(k) + ":" +
                         jsonString(v);
            notes += "}";
            std::string errors = "[";
            for (const auto& e : report.errors())
                errors += (errors.size() > 1 ? "," : "") + jsonString(e);
            errors += "]";
            std::fprintf(f,
                         "{\"host\": %s, \"measured_s\": %s, \"notes\": %s, "
                         "\"errors\": %s, \"attempted\": %llu, \"failed\": "
                         "%llu, \"metrics\": %s}\n",
                         host.c_str(), jsonNumber(measured_s).c_str(),
                         notes.c_str(), errors.c_str(),
                         (unsigned long long)report.attempted(),
                         (unsigned long long)report.failed(),
                         metricsJson(report).c_str());
            std::fclose(f);
        }
        if (tr && !tracer.write(stem + ".spans.jsonl"))
            std::fprintf(stderr, "sfibench: could not write the spans\n");
    }
    for (size_t i = 0; i < report.errors().size() && i < 20; i++)
        std::printf("error: %s\n", report.errors()[i].c_str());
    for (const auto& [k, v] : report.notes())
        std::printf("note %s = %s\n", k.c_str(), v.c_str());

    const bool correct = report.failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false",
                (unsigned long long)std::max<uint64_t>(report.attempted(), 1),
                (unsigned long long)report.failed(),
                metricsJson(report).c_str());
    return 0;
}

}  // namespace
}  // namespace sfibench

int
main(int argc, char** argv)
{
    return sfibench::run(argc, argv);
}
