/**
 * @file
 * Workload cold_start: a control plane instantiating images one after
 * another on one thread (closed loop).
 *
 * The catalogue holds kImages distinct synthetic multi-handler images
 * generated from the seed, shaped like bench_fig6's 48-handler
 * cold-start image: many handlers, few of them on a request's path.
 * Arrivals draw images Zipf(1), so they split into code-cache hits
 * (stub and lookup path) and misses (baseline compile plus fill-time
 * verification): first-response p50 tracks the hit path and p99 the
 * miss path. Each arrival compiles tiered (wamrSegue, shared code
 * cache), instantiates on a pool slot, makes the first call (the first
 * response) and kFollowUps more, past the tier-up threshold.
 *
 * Every round starts from a cache that has never seen its images: the
 * round's catalogue is salted with the round number, so its module
 * hashes are new (the process-wide cache cannot be emptied).
 */
#include <algorithm>
#include <map>
#include <string>

#include "base/cpu.h"
#include "base/units.h"
#include "bench.h"
#include "interp/interp.h"
#include "jit/codecache.h"
#include "jit/strategy.h"
#include "jit/tier.h"
#include "mpk/mpk.h"
#include "pool/pool.h"
#include "runtime/instance.h"
#include "wasm/builder.h"
#include "wasm/validator.h"
#include "wkld/emit_util.h"

namespace sfibench {
namespace {

using namespace sfi;
using wasm::ValType;

constexpr uint64_t kImages = 512;
constexpr double kZipfS = 1.0;
constexpr uint64_t kArrivalsPerRound = 4000;
constexpr int kHandlers = 48;
constexpr int kHot = 4;
constexpr uint64_t kScale = 1;
/** Follow-up calls per arrival: above TierOptions::hotThreshold (64),
 *  so every arrival's hot functions tier up. */
constexpr int kFollowUps = 80;
constexpr uint64_t kPoolSlots = 16;
/** No round starts unless the code arena can take it within this share. */
constexpr double kArenaBudget = 0.9;

/**
 * One catalogue image: kHandlers handlers with per-image constants (so
 * no two images or handlers compile to the same code), of which "run"
 * calls kHot, chosen from the image seed.
 */
wasm::Module
makeImage(uint64_t image_seed)
{
    Rng rng(image_seed);
    wasm::ModuleBuilder mb;
    mb.memory(1, 1);
    std::vector<uint32_t> handlers;
    for (int h = 0; h < kHandlers; h++) {
        const uint64_t init = rng.next();
        const uint64_t addend = rng.next();
        const uint64_t rot = 1 + rng.below(63);
        auto f = mb.func("h" + std::to_string(h), {ValType::I32},
                         {ValType::I64});
        uint32_t acc = f.local(ValType::I64);
        uint32_t i = f.local(ValType::I32);
        uint32_t end = f.local(ValType::I32);
        f.i64Const(init).localSet(acc);
        f.localGet(f.param(0)).i32Const(64).i32Mul().localSet(end);
        wkld::forLoop(f, i, end, [&] {
            f.localGet(acc)
                .localGet(i)
                .i64ExtendI32U()
                .i64Const(addend)
                .i64Add()
                .i64Xor()
                .i64Const(rot)
                .i64Rotl()
                .i64Const(0x5851F42D4C957F2Dull)
                .i64Mul()
                .localSet(acc);
            f.localGet(i).i32Const(7).i32Mul().i32Const(1016).i32And();
            f.localGet(acc).i64Store(4096);
            f.localGet(acc)
                .localGet(i)
                .i32Const(1016)
                .i32And()
                .i64Load(4096)
                .i64Add()
                .localSet(acc);
        });
        f.localGet(acc).end();
        handlers.push_back(f.index());
    }
    auto run = mb.func("run", {ValType::I32}, {ValType::I64});
    uint32_t r = run.local(ValType::I64);
    run.i64Const(0).localSet(r);
    for (int k = 0; k < kHot; k++) {
        uint32_t h = handlers[rng.below(kHandlers)];
        run.localGet(r).localGet(run.param(0)).call(h).i64Xor().localSet(r);
    }
    run.localGet(r).end();
    mb.exportFunc("run", run.index());
    return std::move(mb).build();
}

/** Arena bytes the cache holds, at most: each blob starts a page. */
uint64_t
arenaUse(const jit::CodeCache::Stats& s)
{
    return s.publishedBytes + s.entries * kOsPageSize;
}

class ColdStart final : public Phase
{
  public:
    const char* name() const override { return "cold_start"; }
    double nominalRoundSeconds() const override { return 1.4; }
    /**
     * A round fills about 20 MiB of the 256 MiB code arena (blobs are
     * page-aligned and immortal), so no run can hold more than 8; every
     * run makes all 8.
     */
    int fixedRounds() const override { return 8; }

    void
    setup(const Args& args, Report& report) override
    {
        args_ = args;
        pool_.reset();
        mpk_ = mpk::makeEmulated();
        pool::MemoryPool::Options popt;
        popt.config.numSlots = kPoolSlots;
        popt.config.maxMemoryBytes = 2 * kMiB;
        popt.config.guardBytes = 16 * kMiB;
        popt.config.stripingEnabled = true;
        popt.mpk = mpk_.get();
        popt.shards = 1;
        auto pool = pool::MemoryPool::create(std::move(popt));
        report.check(pool.isOk(), 1, "cold: pool create");
        if (pool.isOk())
            pool_ = std::make_unique<pool::MemoryPool>(std::move(*pool));
        buildCatalogue(0);
    }

    bool
    canContinue() const override
    {
        const auto& cc = jit::CodeCache::instance();
        if (cc.arenaSize() == 0)
            return true;  // reserved on first use: nothing filled yet
        return double(arenaUse(cc.stats()) + maxRoundBytes_) <
               kArenaBudget * double(cc.arenaSize());
    }

    void
    round(uint64_t index, Tracer* tracer, Report& report) override
    {
        if (!pool_)
            return;
        if (index != catalogueRound_)
            buildCatalogue(index);
        ZipfSampler zipf(kImages, kZipfS);
        Rng rng(subSeed(args_.seed, 2, 1'000'000 + index));
        jit::TierOptions topts;
        const jit::CompilerConfig cfg = jit::CompilerConfig::wamrSegue();
        const uint32_t pages = 1;

        jit::CodeCache::Stats c0 = jit::CodeCache::instance().stats();
        jit::TierStatsSnapshot tier{};
        std::map<uint64_t, uint64_t> firstValue;
        uint64_t busy_ns = 0, invalid = 0;
        for (uint64_t a = 0; a < kArrivalsPerRound; a++) {
            const uint64_t k = zipf.draw(rng);
            wasm::Module image = catalogue_[k];
            if (tracer) {
                // Validation alone, outside the first-response window:
                // compileTiered validates the same image inside it.
                Scope v(tracer, "wasm.validate", a);
                if (!wasm::validate(image).isOk())
                    invalid++;
            }
            const uint64_t t0 = monotonicNs();
            int32_t root = tracer ? tracer->begin("cold.first_response", a)
                                  : -1;
            std::shared_ptr<rt::SharedModule> shared;
            std::string why;
            {
                Scope s(tracer, "tier.compile_tiered", a);
                auto r = rt::SharedModule::compileTiered(std::move(image),
                                                         cfg, topts);
                if (r.isOk())
                    shared = *r;
                else
                    why = "compile: " + r.message();
            }
            Result<pool::Slot> slot = Result<pool::Slot>::error("unset");
            {
                Scope s(tracer, "pool.allocate", a);
                slot = pool_->allocate();
            }
            std::unique_ptr<rt::Instance> inst;
            if (shared && slot.isOk()) {
                Scope s(tracer, "runtime.instance_create", a);
                rt::Instance::Options iopt;
                iopt.memoryView = pool_->memoryView(*slot, pages, pages);
                iopt.mpkSystem = mpk_.get();
                iopt.pkey = slot->pkey;
                auto r = rt::Instance::create(shared, {}, std::move(iopt));
                if (r.isOk())
                    inst = std::move(*r);
                else
                    why = "instantiate: " + r.message();
            }
            if (!slot.isOk())
                why = "allocate: " + slot.message();
            rt::Outcome first;
            first.trap = rt::TrapKind::Unreachable;
            if (inst) {
                Scope s(tracer, "runtime.first_call", a);
                first = inst->call("run", {kScale});
            }
            if (tracer)
                tracer->end(root);
            const uint64_t t1 = monotonicNs();
            bool ok = inst && first.ok();
            if (inst && !first.ok())
                why = std::string("trap: ") + rt::name(first.trap);
            if (inst) {
                Scope s(tracer, "cold.follow_ups", a);
                for (int f = 0; f < kFollowUps; f++) {
                    rt::Outcome o = inst->call("run", {kScale});
                    ok = ok && o.ok() && o.value == first.value;
                }
            }
            if (slot.isOk()) {
                Scope s(tracer, "pool.free", a);
                uint64_t touched = inst ? inst->memory().touchedBytes() : 0;
                inst.reset();
                ok = pool_->free(*slot, touched).isOk() && ok;
            }
            const uint64_t t2 = monotonicNs();
            busy_ns += t2 - t0;
            firstUs_.push_back(double(t1 - t0) / 1e3);
            if (shared) {
                jit::TierStatsSnapshot ts = shared->tiered()->stats();
                tier.baselineCompiles += ts.baselineCompiles;
                tier.tierUps += ts.tierUps;
                tier.interpFallbacks += ts.interpFallbacks;
            }
            // The same image must answer the same on every arrival;
            // the first answer is checked against the interpreter below.
            auto [it, fresh] = firstValue.emplace(k, first.value);
            ok = ok && (fresh || it->second == first.value);
            report.attempt(1);
            if (!ok)
                report.fail(1, "cold: arrival " + std::to_string(a) +
                                   " of image " + std::to_string(k) +
                                   " failed or answered differently " + why);
        }
        arrivals_ += kArrivalsPerRound;
        busyNs_ += busy_ns;

        // Reference: the interpreter runs each distinct image once.
        for (auto [k, value] : firstValue) {
            auto ref = interp::Instance::instantiate(catalogue_[k]);
            bool ok = ref.isOk();
            if (ok) {
                interp::Outcome o = ref->callExport("run", {kScale});
                ok = o.ok() && o.value == value;
            }
            report.check(ok, 1, "cold: image " + std::to_string(k) +
                                    " first response differs from the "
                                    "interpreter's");
        }
        report.check(invalid == 0, 1, "cold: image failed validation");

        jit::CodeCache::Stats c1 = jit::CodeCache::instance().stats();
        uint64_t published = c1.publishedBytes - c0.publishedBytes;
        maxRoundBytes_ =
            std::max(maxRoundBytes_, arenaUse(c1) - arenaUse(c0));
        baselineCompiles_.push_back(double(tier.baselineCompiles));
        tierUps_.push_back(double(tier.tierUps));
        interpFallbacks_.push_back(double(tier.interpFallbacks));
        uint64_t lookups = (c1.hits - c0.hits) + (c1.fills - c0.fills);
        hitRatio_.push_back(lookups ? double(c1.hits - c0.hits) /
                                          double(lookups)
                                    : 0);
        publishedKib_.push_back(double(published) / 1024.0);
        verifyMs_.push_back(double(c1.verifyNs - c0.verifyNs) / 1e6);
        distinct_.push_back(double(firstValue.size()));
    }

    void
    finish(bool trace, Tracer* tracer, Report& report) override
    {
        report.note("cold.mpk_system", mpk_ ? mpk_->name() : "");
        if (!trace) {
            report.set("first_response_p50_us", percentile(firstUs_, 50),
                       "us");
            report.set("first_response_p99_us", percentile(firstUs_, 99),
                       "us");
            report.set("arrivals_per_s",
                       busyNs_ ? double(arrivals_) * 1e9 / double(busyNs_) : 0,
                       "1/s");
            return;
        }
        const auto& spans = tracer->spans();
        std::vector<int64_t> self = selfTimes(spans);
        report.set("tier.compile_tiered_us",
                   totalsFor(spans, self, "tier.compile_tiered").meanUs(),
                   "us");
        report.set("runtime.first_call_us",
                   totalsFor(spans, self, "runtime.first_call").meanUs(),
                   "us");
        report.set("wasm.validate_us",
                   totalsFor(spans, self, "wasm.validate").meanUs(), "us");
        report.set("tier.baseline_compiles", median(baselineCompiles_),
                   "count");
        report.set("tier.tier_ups", median(tierUps_), "count");
        report.set("tier.interp_fallbacks", median(interpFallbacks_),
                   "count");
        report.set("codecache.hit_ratio", median(hitRatio_), "ratio");
        report.set("codecache.published_kib", median(publishedKib_), "KiB");
        report.set("verify.fill_ms", median(verifyMs_), "ms");
        report.note("cold.distinct_images_per_round",
                    std::to_string(median(distinct_)));

        // Reconcile: the layer spans inside each first response cover
        // it; what they leave out is the benchmark's own glue.
        SpanTotals fr = totalsFor(spans, self, "cold.first_response");
        double unattributed =
            fr.durationNs ? double(fr.selfNs) / double(fr.durationNs) : 1;
        report.check(fr.count > 0 && unattributed < 0.10, 1,
                     "cold: " + std::to_string(unattributed) +
                         " of first-response time outside layer spans");
        report.check(selfTimeViolations(spans) == 0, 1,
                     "trace: negative self time");
        report.set("trace.cold_unattributed_pct", 100 * unattributed, "%");
    }

  private:
    void
    buildCatalogue(uint64_t round)
    {
        catalogue_.clear();
        for (uint64_t k = 0; k < kImages; k++)
            catalogue_.push_back(
                makeImage(subSeed(args_.seed, 2, (round << 20) | k)));
        catalogueRound_ = round;
    }

    Args args_;
    std::unique_ptr<mpk::System> mpk_;
    std::unique_ptr<pool::MemoryPool> pool_;
    std::vector<wasm::Module> catalogue_;
    uint64_t catalogueRound_ = 0;
    uint64_t maxRoundBytes_ = 0;
    std::vector<double> firstUs_;
    uint64_t arrivals_ = 0, busyNs_ = 0;
    std::vector<double> baselineCompiles_, tierUps_, interpFallbacks_,
        hitRatio_, publishedKib_, verifyMs_, distinct_;
};

}  // namespace

std::unique_ptr<Phase>
makeColdStart()
{
    return std::make_unique<ColdStart>();
}

}  // namespace sfibench
