/**
 * @file
 * Workload faas_capacity: seeded Poisson arrivals into
 * FaasHost::runOpenLoop.
 *
 * Why this configuration: html-templating has the least guest compute
 * of the FaaS functions, so most of a request's CPU goes to the host's
 * own request lifecycle (pool recycle, Instance::create, fiber, entry)
 * at batchMax 1. The 0.2 ms mean IO and 32 slots keep the host
 * CPU-bound: with the paper's 5 ms and 64 slots, Little's law caps
 * capacity near 12.8K rps whatever the code does.
 *
 * Every probe serves the same fixed request count, so the expected
 * response checksum is one number (expected.txt, computed by the
 * interpreter).
 */
#include <algorithm>
#include <optional>

#include "base/cpu.h"
#include "base/logging.h"
#include "base/units.h"
#include "bench.h"
#include "faas/loadgen.h"
#include "faas/scheduler.h"
#include "jit/strategy.h"
#include "mpk/mpk.h"
#include "pool/pool.h"
#include "runtime/instance.h"
#include "wkld/workloads.h"

namespace sfibench {
namespace {

using namespace sfi;

constexpr const char* kFunction = "html-templating";
constexpr uint64_t kRequestsPerProbe = kFaasRequestsPerProbe;
constexpr int kWorkers = 1;
constexpr int kSlots = 32;
constexpr double kIoDelayMeanMs = 0.2;

// Capacity: the highest offered rate whose p99 sojourn stays within the
// limit with no growing backlog, found by bisection in log space.
constexpr double kP99LimitMs = 20.0;
constexpr double kMinAchievedShare = 0.95;
constexpr double kRateLo = 4000, kRateHi = 128000;
constexpr int kBisectSteps = 7;
// Latency at a fixed offered rate below the knee.
constexpr double kFixedRate = 15000;

faas::FaasHost::Options
hostOptions(uint64_t seed)
{
    faas::FaasHost::Options o;
    o.workerThreads = kWorkers;
    o.maxConcurrent = kSlots;
    o.ioDelayMeanMs = kIoDelayMeanMs;
    o.seed = seed;
    return o;
}

double
ms(uint64_t ns)
{
    return double(ns) / 1e6;
}

class FaasCapacity final : public Phase
{
  public:
    const char* name() const override { return "faas_capacity"; }
    double nominalRoundSeconds() const override { return 2.4; }

    void
    setup(const Args& args, Report& report) override
    {
        args_ = args;
        host_.reset();
        auto host = faas::FaasHost::create(
            faasFunction(),
            hostOptions(subSeed(args.seed, 1, 0)));
        report.check(host.isOk(), 1, "faas: host create: " +
                                         (host.isOk() ? "" : host.message()));
        if (host.isOk())
            host_ = std::move(*host);
        haveExpected_ = args.expected->get(
            "faas." + std::string(kFunction) + "." +
                std::to_string(kRequestsPerProbe),
            &expected_);
        report.check(haveExpected_, 1, "faas: no expected checksum");
        mpkName_ = host_ ? host_->memoryPool().mpkSystem().name() : "";
    }

    void
    round(uint64_t index, Tracer* tracer, Report& report) override
    {
        if (!host_)
            return;
        uint64_t probe = 0;
        auto probeSeed = [&] {
            return subSeed(args_.seed, 1, (index + 1) * 64 + probe++);
        };
        capacities_.push_back(
            bisectCapacity(kRateLo, kRateHi, kBisectSteps, [&](double rate) {
                return meetsLimit(rate, probeSeed(), tracer, report);
            }));

        pool::MemoryPool::Stats p0 = host_->memoryPool().stats();
        faas::LoadGenConfig load;
        load.ratePerSec = kFixedRate;
        load.seed = probeSeed();
        auto st = [&] {
            Scope s(tracer, "faas.fixed_rate");
            return serve(kFixedRate, load.seed, report);
        }();
        if (!st)
            return;
        p50s_.push_back(ms(st->latencyTotalNs.percentile(50)));
        p99s_.push_back(ms(st->latencyTotalNs.percentile(99)));
        if (!tracer)
            return;
        // Layer counters: host stats plus pool counter deltas.
        pool::MemoryPool::Stats p1 = host_->memoryPool().stats();
        double n = double(st->completed);
        queueP99_.push_back(ms(st->latencyQueueNs.percentile(99)));
        serviceP50_.push_back(double(st->latencyServiceNs.percentile(50)) /
                              1e3);
        epochYields_.push_back(double(st->epochYields) / n);
        uint64_t last_arrival =
            faas::LoadGen::schedule(load, kRequestsPerProbe).back();
        drain_.push_back(st->elapsedSec * 1e3 - ms(last_arrival));
        uint64_t allocs = p1.allocations - p0.allocations;
        warmHit_.push_back(allocs ? double(p1.warmHits - p0.warmHits) /
                                        double(allocs)
                                  : 0);
        zeroedKib_.push_back(double(p1.warmZeroedBytes - p0.warmZeroedBytes) /
                             1024.0 / n);
        steals_.push_back(double(p1.steals - p0.steals) / n);
    }

    void
    finish(bool trace, Tracer* tracer, Report& report) override
    {
        report.note("faas.mpk_system", mpkName_);
        std::string caps;
        for (double c : capacities_)
            caps += (caps.empty() ? "" : " ") + std::to_string(int(c));
        report.note("faas.capacity_per_round", caps);
        if (!trace) {
            // The mean, not the median: per-round capacities are bimodal
            // on a shared host (a round lands near one of two levels),
            // and a median flips between the levels where a mean moves
            // with the share of rounds at each.
            report.set("capacity_rps", mean(capacities_), "rps");
            report.set("p50_ms", median(p50s_), "ms");
            return;
        }
        // p99 at half load follows host stalls (ten-run spreads up to
        // 0.17 of the median), so it is a layer metric.
        report.set("faas.p99_ms", median(p99s_), "ms");
        report.set("faas.queue_p99_ms", median(queueP99_), "ms");
        report.set("faas.service_p50_us", median(serviceP50_), "us");
        report.set("faas.epoch_yields_per_req", median(epochYields_),
                   "1/req");
        report.set("faas.drain_ms", median(drain_), "ms");
        report.set("pool.warm_hit_ratio", median(warmHit_), "ratio");
        report.set("pool.zeroed_kib_per_req", median(zeroedKib_), "KiB");
        report.set("pool.steals_per_req", median(steals_), "1/req");
        replay(tracer, report);
    }

  private:
    /** Does @p rate keep p99 within the limit with no growing backlog? */
    bool
    meetsLimit(double rate, uint64_t seed, Tracer* tracer, Report& report)
    {
        Scope s(tracer, "faas.probe");
        auto st = serve(rate, seed, report);
        return st && ms(st->latencyTotalNs.percentile(99)) <= kP99LimitMs &&
               st->throughputRps >= kMinAchievedShare * rate;
    }

    /** One open-loop probe; checks conservation and the checksum. */
    std::optional<faas::FaasHost::Stats>
    serve(double rate, uint64_t seed, Report& report)
    {
        faas::LoadGenConfig load;
        load.ratePerSec = rate;
        load.seed = seed;
        auto st = host_->runOpenLoop(kRequestsPerProbe, load);
        if (!st) {
            report.check(false, kRequestsPerProbe,
                         "faas: run failed: " + st.message());
            return std::nullopt;
        }
        uint64_t missing = kRequestsPerProbe - std::min<uint64_t>(
                                                   st->completed,
                                                   kRequestsPerProbe);
        bool sum_ok = haveExpected_ && st->checksum == expected_;
        report.attempt(kRequestsPerProbe);
        if (missing)
            report.fail(missing, "faas: requests not served at " +
                                     std::to_string(rate) + " rps");
        else if (!sum_ok)
            report.fail(kRequestsPerProbe,
                        "faas: response checksum differs from the "
                        "interpreter's at " +
                            std::to_string(rate) + " rps");
        return *st;
    }

    /**
     * Single-thread replay of the host's per-request lifecycle with the
     * same public calls FaasHost::requestBody makes (free, allocate,
     * memoryView, Instance::create, directEntry, enter, call), the same
     * module and the same pool options. io_wait returns at once: the
     * replay times the CPU path, not the IO wait. Run untraced, then
     * traced, to price the tracing itself.
     */
    void
    replay(Tracer* tracer, Report& report)
    {
        jit::CompilerConfig cfg = jit::CompilerConfig::wamrSegue();
        cfg.epochChecks = true;
        auto shared = rt::SharedModule::compile(
            faasFunction(), cfg);
        auto sys = mpk::makeEmulated();
        pool::MemoryPool::Options popt;
        faas::FaasHost::Options ho = hostOptions(0);
        popt.config.numSlots = uint64_t(ho.maxConcurrent);
        popt.config.maxMemoryBytes = ho.slotBytes;
        popt.config.guardBytes = 8 * ho.slotBytes;
        popt.config.stripingEnabled = ho.colorguard;
        popt.mpk = sys.get();
        popt.shards = uint32_t(ho.workerThreads);
        popt.warmSlotsPerShard =
            uint32_t(std::max(1, ho.maxConcurrent / ho.workerThreads));
        auto pool = pool::MemoryPool::create(std::move(popt));
        if (!shared || !pool) {
            report.check(false, 1, "faas replay: set-up failed");
            return;
        }
        const wasm::Module& m = (*shared)->module();
        const uint32_t min_pages = std::max<uint32_t>(m.memory.minPages, 1);
        const uint32_t max_pages = uint32_t(std::min<uint64_t>(
            m.memory.maxPages, ho.slotBytes / kWasmPageSize));

        auto run = [&](Tracer* tr) -> uint64_t {
            auto B = [&](const char* n, uint64_t id) {
                return tr ? tr->begin(n, id) : -1;
            };
            auto E = [&](int32_t s) {
                if (tr)
                    tr->end(s);
            };
            auto first = pool->allocate();
            if (!first) {
                report.check(false, 1, "faas replay: allocate failed");
                return 0;
            }
            pool::Slot slot = *first;
            std::unique_ptr<rt::Instance> inst;
            uint64_t checksum = 0, t0 = monotonicNs();
            for (uint64_t id = 0; id < kRequestsPerProbe; id++) {
                int32_t req = B("faas.request", id);
                int32_t s = B("runtime.instance_drop", id);
                uint64_t touched = inst ? inst->memory().touchedBytes() : 0;
                inst.reset();
                E(s);
                s = B("pool.free", id);
                Status freed = pool->free(slot, touched);
                E(s);
                s = B("pool.allocate", id);
                auto next = pool->allocate();
                E(s);
                if (!freed.isOk() || !next) {
                    report.check(false, 1, "faas replay: pool failed");
                    return 0;
                }
                slot = *next;
                s = B("runtime.memory_view", id);
                rt::Instance::Options iopt;
                iopt.memoryView =
                    pool->memoryView(slot, min_pages, max_pages);
                iopt.mpkSystem = sys.get();
                iopt.pkey = slot.pkey;
                E(s);
                s = B("runtime.instance_create", id);
                auto created = rt::Instance::create(
                    *shared,
                    {{"io_wait",
                      [](uint64_t*, size_t) { return rt::HostOutcome{}; }}},
                    std::move(iopt));
                E(s);
                if (!created) {
                    report.check(false, 1, "faas replay: instantiate");
                    return 0;
                }
                inst = std::move(*created);
                s = B("runtime.entry", id);
                rt::Instance::DirectEntry handle = inst->directEntry("handle");
                rt::Outcome out;
                int32_t x;
                {
                    auto scope = inst->enter();
                    E(s);
                    s = B("guest.call", id);
                    out = handle.call({id & 0xffffffffu});
                    E(s);
                    x = B("runtime.exit", id);
                }
                E(x);
                E(req);
                checksum ^= out.value + id;
                if (!out.ok())
                    report.check(false, 1, "faas replay: request trapped");
            }
            uint64_t wall = monotonicNs() - t0;
            inst.reset();
            (void)pool->free(slot);
            bool ok = haveExpected_ && checksum == expected_;
            report.check(ok, kRequestsPerProbe,
                         "faas replay: checksum differs from the "
                         "interpreter's");
            return wall;
        };

        uint64_t plain_ns = run(nullptr);
        size_t first_span = tracer->spans().size();
        uint64_t traced_ns = run(tracer);
        if (!plain_ns || !traced_ns)
            return;

        // Reconcile: the request spans tile the measured loop, and the
        // layer spans inside each request cover nearly all of it.
        std::vector<Span> mine(tracer->spans().begin() + long(first_span),
                               tracer->spans().end());
        for (Span& s : mine)
            if (s.parent >= 0)
                s.parent -= int32_t(first_span);
        std::vector<int64_t> self = selfTimes(mine);
        SpanTotals req = totalsFor(mine, self, "faas.request");
        double covered = double(req.durationNs) / double(traced_ns);
        double unattributed = double(req.selfNs) / double(req.durationNs);
        report.check(covered > 0.9 && covered <= 1.0, 1,
                     "faas replay: request spans cover " +
                         std::to_string(covered) + " of the loop");
        report.check(unattributed < 0.15, 1,
                     "faas replay: " + std::to_string(unattributed) +
                         " of request time outside layer spans");
        report.check(selfTimeViolations(mine) == 0, 1,
                     "faas replay: negative self time");
        report.set("trace.replay_unattributed_pct", 100 * unattributed, "%");
        report.set("trace.overhead_pct",
                   100.0 * (double(traced_ns) - double(plain_ns)) /
                       double(plain_ns),
                   "%");
        report.set("faas.replay_request_us",
                   double(traced_ns) / 1e3 / double(kRequestsPerProbe), "us");
        report.set("pool.allocate_us",
                   totalsFor(mine, self, "pool.allocate").meanUs(), "us");
        report.set("pool.free_us", totalsFor(mine, self, "pool.free").meanUs(),
                   "us");
        report.set("runtime.instance_create_us",
                   totalsFor(mine, self, "runtime.instance_create").meanUs(),
                   "us");
        report.set("runtime.entry_us",
                   totalsFor(mine, self, "runtime.entry").meanUs(), "us");
    }

    Args args_;
    std::unique_ptr<faas::FaasHost> host_;
    uint64_t expected_ = 0;
    bool haveExpected_ = false;
    std::string mpkName_;
    std::vector<double> capacities_, p50s_, p99s_;
    std::vector<double> queueP99_, serviceP50_, epochYields_, drain_;
    std::vector<double> warmHit_, zeroedKib_, steals_;
};

}  // namespace

wasm::Module
faasFunction()
{
    for (const auto& w : wkld::faasWorkloads())
        if (std::string(w.name) == kFunction)
            return w.make();
    SFI_PANIC("no FaaS function %s", kFunction);
}

std::unique_ptr<Phase>
makeFaasCapacity()
{
    return std::make_unique<FaasCapacity>();
}

}  // namespace sfibench
