/**
 * @file
 * Workload library_embed: an in-process embedder making closed-loop
 * calls on one thread.
 *
 * Almost all of its time goes to generated code and transitions, and
 * almost none to the pool, the FaaS host or compilation, so a codegen
 * or transition change shows here and not in faas_capacity. It also
 * keeps the paper's Fig 3/4/5 and §6.4.1 comparisons in every result:
 *
 *  - compute: the 14 sightglass() and 14 spec17() kernels at
 *    benchScale, JIT-compiled once under wamrSegue (the FaaS default)
 *    and native() (the normalization base), spec17 also under
 *    lfiSegue; the 10 w2c kernels under NativePolicy and SeguePolicy.
 *  - calls: a small export called in a tight loop through
 *    Instance::call, ColorGuard on: a pool slot whose stripe key lives
 *    on mpk::defaultSystem() (hardware MPK where the CPU and OS have
 *    it).
 */
#include <algorithm>
#include <array>
#include <cstring>
#include <string>

#include "base/cpu.h"
#include "base/units.h"
#include "bench.h"
#include "jit/strategy.h"
#include "mpk/mpk.h"
#include "pool/pool.h"
#include "runtime/instance.h"
#include "w2c/expat_lite.h"
#include "w2c/graphite_lite.h"
#include "w2c/heap.h"
#include "w2c/kernels.h"
#include "wasm/builder.h"
#include "wkld/workloads.h"

namespace sfibench {
namespace {

using namespace sfi;
using jit::CompilerConfig;

/** Fig 3's scale for the w2c kernels. */
constexpr uint32_t kW2cScale = 16;
/** A kernel configuration repeats within a round until it has run
 *  this long or this many times (best-of: short kernels are the most
 *  exposed to interference). */
constexpr double kMinSampleMs = 50;
constexpr int kMaxReps = 5;
/** Pool slot size for the kernels: the largest declares 64 pages. */
constexpr uint64_t kKernelSlotBytes = 64 * kWasmPageSize;
constexpr uint64_t kCallsPerBatch = 20000;
constexpr uint64_t kPkruWrites = 200000;

enum Cfg { kSegue, kNative, kLfi, kNumCfgs };
const char* const kCfgNames[kNumCfgs] = {"wamrSegue", "native", "lfiSegue"};

CompilerConfig
configOf(int c)
{
    switch (c) {
    case kSegue:
        return CompilerConfig::wamrSegue();
    case kNative:
        return CompilerConfig::native();
    default:
        return CompilerConfig::lfiSegue();
    }
}

struct Kernel
{
    const wkld::Workload* w = nullptr;
    bool spec = false;
    uint64_t expected = 0;
    bool haveExpected = false;
    std::shared_ptr<const rt::SharedModule> shared[kNumCfgs];
};

/** x * 3 + 1 over i32: the export the call loop drives. */
std::shared_ptr<const rt::SharedModule>
compileCallee(Report& report)
{
    using wasm::ValType;
    wasm::ModuleBuilder mb;
    mb.memory(1, 1);
    auto f = mb.func("step", {ValType::I32}, {ValType::I32});
    f.localGet(0).i32Const(3).i32Mul().i32Const(1).i32Add().end();
    mb.exportFunc("step", f.index());
    auto shared = rt::SharedModule::compile(std::move(mb).build(),
                                            CompilerConfig::wamrSegue());
    report.check(shared.isOk(), 1, "embed: callee compile");
    return shared.isOk() ? *shared : nullptr;
}

template <typename P>
uint64_t
runW2c(w2c::SandboxHeap& heap, int k)
{
    auto guard = heap.template enter<P>();
    P p = heap.template policy<P>();
    return w2c::kKernels<P>[k].fn(p, kW2cScale);
}

/** §6.1's font harness: one sandbox entry per glyph. */
template <typename P>
uint64_t
renderText(w2c::SandboxHeap& heap)
{
    static const uint32_t kSizes[10] = {18, 22, 26, 30, 34,
                                        38, 42, 48, 56, 64};
    const char* text = "Sphinx of black quartz, judge my vow! 0123456789 "
                       "Pack my box with five dozen liquor jugs.";
    const size_t len = std::strlen(text);
    uint64_t cs = 0;
    for (uint32_t s : kSizes) {
        for (size_t i = 0; i < len; i++) {
            auto guard = heap.template enter<P>();
            P p = heap.template policy<P>();
            cs += w2c::renderGlyph(p, 0, uint32_t(text[i]) % w2c::kFontGlyphs,
                                   s, 4 * kMiB, 8 * kMiB);
        }
    }
    return cs;
}

template <typename P>
uint64_t
parseDoc(w2c::SandboxHeap& heap, uint32_t len)
{
    auto guard = heap.template enter<P>();
    P p = heap.template policy<P>();
    return w2c::parseXml(p, 0, len, 16 * kMiB).checksum;
}

template <typename Fn>
double
timedMs(Fn&& fn)
{
    uint64_t t0 = monotonicNs();
    fn();
    return double(monotonicNs() - t0) / 1e6;
}

class LibraryEmbed final : public Phase
{
  public:
    const char* name() const override { return "library_embed"; }

    void
    setup(const Args& args, Report& report) override
    {
        args_ = args;
        // Tear down in dependency order before rebuilding.
        cgInst_.reset();
        plainInst_.reset();
        if (pool_ && slot_.valid())
            (void)pool_->free(slot_);
        pool_.reset();
        kernels_.clear();

        compileNs_ = 0;
        codeBytes_ = 0;
        auto add = [&](const wkld::Workload& w, bool spec) {
            Kernel k;
            k.w = &w;
            k.spec = spec;
            k.haveExpected = args.expected->get(
                std::string("kernel.") + w.name, &k.expected);
            report.check(k.haveExpected, 1,
                         std::string("embed: no expected value for ") + w.name);
            for (int c = 0; c < kNumCfgs; c++) {
                if (c == kLfi && !spec)
                    continue;
                uint64_t t0 = monotonicNs();
                auto shared = rt::SharedModule::compile(w.make(), configOf(c));
                if (c == kSegue) {
                    compileNs_ += monotonicNs() - t0;
                    if (shared.isOk())
                        codeBytes_ += (*shared)->code().totalCodeBytes;
                }
                if (shared.isOk())
                    k.shared[c] = *shared;
                report.check(shared.isOk(), 1,
                             std::string("embed: compile ") + w.name +
                                 " under " + kCfgNames[c]);
            }
            kernels_.push_back(std::move(k));
        };
        for (const auto& w : wkld::sightglass())
            add(w, false);
        for (const auto& w : wkld::spec17())
            add(w, true);

        // Kernel instances live on one warm slot of a pool without
        // striping; every kernel's memory fits it.
        kernelPool_.reset();
        pool::MemoryPool::Options kopt;
        kopt.config.numSlots = 1;
        kopt.config.maxMemoryBytes = kKernelSlotBytes;
        kopt.config.guardBytes = 8 * kKernelSlotBytes;
        kopt.shards = 1;
        kopt.warmSlotsPerShard = 1;
        kopt.warmKeepResidentBytes = UINT64_MAX;
        auto kpool = pool::MemoryPool::create(std::move(kopt));
        report.check(kpool.isOk(), 1, "embed: kernel pool create");
        if (kpool.isOk())
            kernelPool_ = std::make_unique<pool::MemoryPool>(std::move(*kpool));

        auto heap = w2c::SandboxHeap::create(w2c::kernelHeapBytes(kW2cScale));
        report.check(heap.isOk(), 1, "embed: w2c heap");
        if (heap.isOk())
            heap_ = std::make_unique<w2c::SandboxHeap>(std::move(*heap));

        // ColorGuard on the default key system: one pool slot with its
        // stripe key, the instance entering with PKRU set to that key.
        pool::MemoryPool::Options popt;
        popt.config.numSlots = 4;
        popt.config.maxMemoryBytes = 2 * kMiB;
        popt.config.guardBytes = 16 * kMiB;
        popt.config.stripingEnabled = true;
        popt.mpk = &mpk::defaultSystem();
        popt.shards = 1;
        auto pool = pool::MemoryPool::create(std::move(popt));
        report.check(pool.isOk(), 1, "embed: pool create");
        callee_ = compileCallee(report);
        if (!pool.isOk() || !callee_)
            return;
        pool_ = std::make_unique<pool::MemoryPool>(std::move(*pool));
        auto slot = pool_->allocate();
        report.check(slot.isOk(), 1, "embed: pool allocate");
        if (!slot.isOk())
            return;
        slot_ = *slot;
        rt::Instance::Options iopt;
        iopt.memoryView = pool_->memoryView(slot_, 1, 1);
        iopt.mpkSystem = &pool_->mpkSystem();
        iopt.pkey = slot_.pkey;
        auto inst = rt::Instance::create(callee_, {}, std::move(iopt));
        report.check(inst.isOk(), 1, "embed: callee instance");
        if (inst.isOk())
            cgInst_ = std::move(*inst);
        auto plain = rt::Instance::create(callee_);
        report.check(plain.isOk(), 1, "embed: plain callee instance");
        if (plain.isOk())
            plainInst_ = std::move(*plain);
    }

    double nominalRoundSeconds() const override { return 3.7; }
    /** Even rounds run sightglass, odd rounds spec17. */
    int roundQuantum() const override { return 2; }

    void
    round(uint64_t index, Tracer* tracer, Report& report) override
    {
        // One suite per round keeps rounds short, so they interleave
        // finely with the other phases' rounds. Even rounds: sightglass and the
        // even w2c kernels; odd rounds: spec17 and the odd ones. The
        // order comes from the seed, so no kernel always runs first or
        // after the same one; a burst of calls follows every kernel, so
        // call_ns samples the whole round.
        Rng rng(subSeed(args_.seed, 3, index));
        const bool spec = index % 2;
        std::vector<size_t> jobs;  // < kernels_.size(): JIT, else w2c
        for (size_t i = 0; i < kernels_.size(); i++)
            if (kernels_[i].spec == spec)
                jobs.push_back(i);
        for (size_t k = spec; k < size_t(w2c::kNumKernels); k += 2)
            jobs.push_back(kernels_.size() + k);
        shuffle(jobs, rng);
        for (size_t j : jobs) {
            if (j < kernels_.size())
                runKernel(j, rng, tracer, report);
            else if (heap_)
                runW2cKernel(j - kernels_.size(), rng, tracer, report);
            if (cgInst_)
                callBatch(rng, tracer, report);
        }
        if (tracer && cgInst_)
            tracedExtras(rng, report);
    }

    void
    finish(bool trace, Tracer*, Report& report) override
    {
        report.note("embed.mpk_system",
                    pool_ ? pool_->mpkSystem().name() : "");
        std::vector<double> segue, norm, lfi, w2cnorm;
        for (size_t i = 0; i < kernels_.size(); i++) {
            const Kernel& k = kernels_[i];
            const auto& ms = kernelMs_[i];
            double s = best(ms[kSegue]), n = best(ms[kNative]);
            if (s <= 0 || n <= 0)
                continue;
            segue.push_back(s);
            norm.push_back(s / n);
            if (k.spec && !ms[kLfi].empty())
                lfi.push_back(best(ms[kLfi]) / n);
        }
        for (int k = 0; k < w2c::kNumKernels; k++) {
            double n = best(w2cMs_[2 * k]), s = best(w2cMs_[2 * k + 1]);
            if (n > 0 && s > 0)
                w2cnorm.push_back(s / n);
        }
        if (!trace) {
            report.set("jit_sfi_norm", geomean(norm), "ratio");
            report.set("lfi_segue_norm", geomean(lfi), "ratio");
            report.set("w2c_segue_norm", geomean(w2cnorm), "ratio");
            report.set("call_ns", best(callNs_), "ns");
            return;
        }
        for (size_t i = 0; i < kernels_.size(); i++)
            report.set(std::string("jit.kernel.") + kernels_[i].w->name + "_ms",
                       best(kernelMs_[i][kSegue]), "ms");
        // Absolute kernel time tracks host speed (ten-run spreads up to
        // 0.21 of the median), so it is a layer metric; jit_sfi_norm
        // carries codegen end to end.
        report.set("jit.run_ms", geomean(segue), "ms");
        report.set("jit.code_bytes", double(codeBytes_), "bytes");
        report.set("jit.compile_ms", double(compileNs_) / 1e6, "ms");
        for (int k = 0; k < w2c::kNumKernels; k++) {
            double n = best(w2cMs_[2 * k]), s = best(w2cMs_[2 * k + 1]);
            report.set(std::string("w2c.kernel.") +
                           w2c::kKernels<w2c::NativePolicy>[k].ours + "_norm",
                       n > 0 ? s / n : 0, "ratio");
        }
        report.set("w2c.font_ms", best(fontMs_), "ms");
        report.set("w2c.xml_ms", best(xmlMs_), "ms");
        report.set("transition.call_ns", best(callNs_), "ns");
        report.set("transition.direct_ns", best(directNs_), "ns");
        report.set("transition.batched_ns", best(batchedNs_), "ns");
        report.set("transition.colorguard_extra_ns",
                   best(callNs_) - best(plainNs_), "ns");
        report.set("mpk.write_pkru_ns", best(pkruNs_), "ns");
        report.set("mpk.write_pkru_emulated_ns", best(pkruEmuNs_), "ns");
        report.set("seg.gs_skip_ratio", median(gsSkip_), "ratio");
    }

  private:
    template <typename T>
    static void
    shuffle(std::vector<T>& v, Rng& rng)
    {
        for (size_t i = v.size(); i > 1; i--)
            std::swap(v[i - 1], v[rng.below(i)]);
    }

    /**
     * Times one kernel under each configuration in seeded order. A
     * configuration repeats until it has run kMinSampleMs or kMaxReps
     * times, so short kernels get several samples per round.
     */
    void
    runKernel(size_t i, Rng& rng, Tracer* tracer, Report& report)
    {
        Kernel& k = kernels_[i];
        std::vector<size_t> cfgs{kSegue, kNative};
        if (k.spec)
            cfgs.push_back(kLfi);
        shuffle(cfgs, rng);
        for (size_t c : cfgs) {
            double total = 0;
            for (int r = 0; r < kMaxReps && total < kMinSampleMs; r++) {
                double t = timeKernel(k, c, i, tracer, report);
                if (t < 0)
                    break;
                kernelMs_[i][c].push_back(t);
                total += t;
            }
        }
    }

    /**
     * One call of kernel @p k under configuration @p c on a fresh
     * instance (some kernels keep state in memory between calls, and
     * the reference is a first call) over a warm pool slot, whose pages
     * stay committed and are zeroed between occupants: the timed call
     * runs generated code and pays no page faults. Returns ms, or -1 on
     * failure.
     */
    double
    timeKernel(Kernel& k, size_t c, size_t i, Tracer* tracer, Report& report)
    {
        if (!k.shared[c] || !kernelPool_)
            return -1;
        auto slot = kernelPool_->allocate();
        Result<std::unique_ptr<rt::Instance>> inst =
            Result<std::unique_ptr<rt::Instance>>::error("no slot");
        if (slot.isOk()) {
            const wasm::MemoryDecl& mem = k.shared[c]->module().memory;
            rt::Instance::Options iopt;
            iopt.memoryView =
                kernelPool_->memoryView(*slot, mem.minPages, mem.maxPages);
            inst = rt::Instance::create(k.shared[c], {}, std::move(iopt));
        }
        rt::Outcome out;
        double ms = -1;
        if (inst.isOk()) {
            Scope s(tracer, "jit.kernel", i);
            ms = timedMs(
                [&] { out = (*inst)->call("run", {k.w->benchScale}); });
        }
        bool freed = false;
        if (slot.isOk()) {
            uint64_t touched =
                inst.isOk() ? (*inst)->memory().touchedBytes() : 0;
            inst = Result<std::unique_ptr<rt::Instance>>::error("freed");
            freed = kernelPool_->free(*slot, touched).isOk();
        }
        bool ok = freed && out.ok() && k.haveExpected &&
                  out.value == k.expected;
        report.check(ok, 1,
                     std::string("embed: ") + k.w->name + " under " +
                         kCfgNames[c] +
                         " differs from the interpreter's checksum");
        return ok ? ms : -1;
    }

    /**
     * One w2c kernel under both policies, in seeded order, with the
     * JIT kernels' repetition rule. Every call must return the
     * reference value (NativePolicy's, from expected.txt).
     */
    void
    runW2cKernel(size_t k, Rng& rng, Tracer* tracer, Report& report)
    {
        const char* name = w2c::kKernels<w2c::NativePolicy>[k].ours;
        uint64_t want = 0;
        const bool have =
            args_.expected->get(std::string("w2c.") + name, &want);
        uint64_t calls = 0, wrong = 0;
        auto repeat = [&](std::vector<double>& ms, auto&& run) {
            double total = 0;
            for (int r = 0; r < kMaxReps && total < kMinSampleMs; r++) {
                uint64_t v = 0;
                ms.push_back(timedMs([&] { v = run(); }));
                total += ms.back();
                calls++;
                wrong += !have || v != want;
            }
        };
        auto runNative = [&] {
            Scope s(tracer, "w2c.kernel.native", k);
            repeat(w2cMs_[2 * k], [&] {
                return runW2c<w2c::NativePolicy>(*heap_, int(k));
            });
        };
        auto runSegue = [&] {
            Scope s(tracer, "w2c.kernel.segue", k);
            repeat(w2cMs_[2 * k + 1], [&] {
                return runW2c<w2c::SeguePolicy>(*heap_, int(k));
            });
        };
        if (rng.below(2)) {
            runNative();
            runSegue();
        } else {
            runSegue();
            runNative();
        }
        report.attempt(calls);
        if (wrong)
            report.fail(wrong, std::string("embed: w2c ") + name +
                                   " differs from the NativePolicy "
                                   "reference");
    }

    /** ns per Instance::call round trip over one burst of calls. */
    double
    callLoop(rt::Instance& inst, Rng& rng, Report& report)
    {
        uint32_t x = uint32_t(rng.next());
        uint64_t bad = 0;
        uint64_t t0 = monotonicNs();
        for (uint64_t i = 0; i < kCallsPerBatch; i++) {
            rt::Outcome o = inst.call("step", {x});
            uint32_t want = x * 3u + 1u;
            bad += !o.ok() || uint32_t(o.value) != want;
            x = want;
        }
        double ns = double(monotonicNs() - t0) / double(kCallsPerBatch);
        report.check(bad == 0, kCallsPerBatch,
                     "embed: " + std::to_string(bad) +
                         " calls returned a wrong value");
        return ns;
    }

    /** A burst on the ColorGuard instance (and, traced, without). */
    void
    callBatch(Rng& rng, Tracer* tracer, Report& report)
    {
        Scope s(tracer, "transition.call_burst");
        uint64_t g0 = cgInst_->gsSwitches();
        uint64_t s0 = cgInst_->gsSwitchesSkipped();
        callNs_.push_back(callLoop(*cgInst_, rng, report));
        if (!tracer)
            return;
        // Share of entries whose %gs write the warm-entry cache skipped.
        double gs = double(cgInst_->gsSwitches() - g0);
        double skipped = double(cgInst_->gsSwitchesSkipped() - s0);
        gsSkip_.push_back(gs + skipped > 0 ? skipped / (gs + skipped) : 0);
        if (plainInst_)
            plainNs_.push_back(callLoop(*plainInst_, rng, report));
    }

    /** Per-layer probes timed only in the traced run. */
    void
    tracedExtras(Rng& rng, Report& report)
    {
        rt::Instance::DirectEntry de = cgInst_->directEntry("step");
        auto directLoop = [&](bool batched) {
            uint32_t x = uint32_t(rng.next());
            uint64_t bad = 0;
            uint64_t t0 = monotonicNs();
            auto body = [&] {
                for (uint64_t i = 0; i < kCallsPerBatch; i++) {
                    rt::Outcome o = de.call({x});
                    uint32_t want = x * 3u + 1u;
                    bad += !o.ok() || uint32_t(o.value) != want;
                    x = want;
                }
            };
            if (batched) {
                auto scope = cgInst_->enter();
                body();
            } else {
                body();
            }
            double ns = double(monotonicNs() - t0) / double(kCallsPerBatch);
            report.check(bad == 0, kCallsPerBatch,
                         "embed: direct entry returned a wrong value");
            return ns;
        };
        directNs_.push_back(directLoop(false));
        batchedNs_.push_back(directLoop(true));

        auto pkruLoop = [&](mpk::System& sys, mpk::Pkey key) {
            mpk::Pkru allow = mpk::Pkru::allowOnly(key);
            uint64_t t0 = monotonicNs();
            for (uint64_t i = 0; i < kPkruWrites / 2; i++) {
                sys.writePkru(allow);
                sys.writePkru(mpk::Pkru::allowAll());
            }
            return double(monotonicNs() - t0) / double(kPkruWrites);
        };
        pkruNs_.push_back(pkruLoop(pool_->mpkSystem(), slot_.pkey));
        auto emu = mpk::makeEmulated();
        auto key = emu->allocKey();
        if (key.isOk())
            pkruEmuNs_.push_back(pkruLoop(*emu, *key));

        // §6.1 harnesses under Segue, checked against NativePolicy.
        auto font = w2c::SandboxHeap::create(32 * kMiB);
        auto xml = w2c::SandboxHeap::create(32 * kMiB);
        if (!font.isOk() || !xml.isOk()) {
            report.check(false, 1, "embed: harness heaps");
            return;
        }
        w2c::buildSyntheticFont(font->base(), 0);
        uint64_t fs = 0, fn = renderText<w2c::NativePolicy>(*font);
        fontMs_.push_back(
            timedMs([&] { fs = renderText<w2c::SeguePolicy>(*font); }));
        report.check(fs == fn, 1, "embed: font checksum differs by policy");
        std::string doc = w2c::makeSvgDocument(256, 40);
        std::memcpy(xml->base(), doc.data(), doc.size());
        uint64_t xs = 0,
                 xn = parseDoc<w2c::NativePolicy>(*xml, uint32_t(doc.size()));
        xmlMs_.push_back(timedMs(
            [&] { xs = parseDoc<w2c::SeguePolicy>(*xml, uint32_t(doc.size())); }));
        report.check(xs == xn, 1, "embed: XML checksum differs by policy");
    }

    Args args_;
    std::vector<Kernel> kernels_;
    // Samples live apart from the state setup() rebuilds, which runs
    // again before every round.
    std::vector<std::array<std::vector<double>, kNumCfgs>> kernelMs_{
        wkld::sightglass().size() + wkld::spec17().size()};
    std::vector<std::vector<double>> w2cMs_{2 * w2c::kNumKernels};
    std::unique_ptr<pool::MemoryPool> kernelPool_;
    uint64_t compileNs_ = 0, codeBytes_ = 0;
    std::unique_ptr<w2c::SandboxHeap> heap_;
    std::shared_ptr<const rt::SharedModule> callee_;
    std::unique_ptr<pool::MemoryPool> pool_;
    pool::Slot slot_;
    std::unique_ptr<rt::Instance> cgInst_, plainInst_;
    std::vector<double> callNs_, plainNs_, directNs_, batchedNs_;
    std::vector<double> pkruNs_, pkruEmuNs_, gsSkip_, fontMs_, xmlMs_;
};

}  // namespace

std::unique_ptr<Phase>
makeLibraryEmbed()
{
    return std::make_unique<LibraryEmbed>();
}

}  // namespace sfibench
