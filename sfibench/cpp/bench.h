/**
 * @file
 * Shared pieces of the sfikit benchmark program: arguments, the result
 * report, the phase interface the three workloads implement, and the
 * small numeric helpers (medians, Zipf draws, capacity bisection) the
 * benchmark's own tests cover.
 */
#ifndef SFIBENCH_BENCH_H_
#define SFIBENCH_BENCH_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.h"
#include "wasm/module.h"
#include "trace.h"

namespace sfibench {

struct Args
{
    /** The workload: the name of the phase that gets most of the run. */
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Directory for the full result record and the span dump. */
    std::string outDir;
    /** Reference values (expected.txt beside the benchmark). */
    std::shared_ptr<const class Expected> expected;
};

/** Deterministic sub-seed: one stream per (seed, phase, round). */
inline uint64_t
subSeed(uint64_t seed, uint64_t phase, uint64_t round)
{
    uint64_t x = seed * 0x9E3779B97F4A7C15ull ^ (phase << 48) ^ round;
    x ^= x >> 31;
    x *= 0xBF58476D1CE4E5B9ull;
    x ^= x >> 27;
    return x;
}

struct Metric
{
    double value = 0;
    std::string unit;
};

/**
 * What a run produced: metrics by name, operations attempted and
 * failed, and a message per failure (printed, capped).
 */
class Report
{
  public:
    void set(const std::string& name, double value, const char* unit)
    {
        metrics_[name] = Metric{value, unit};
    }
    const std::map<std::string, Metric>& metrics() const { return metrics_; }

    /** Counts @p ops attempted operations, all failed when !ok. */
    void
    check(bool ok, uint64_t ops, const std::string& what)
    {
        attempt(ops);
        if (!ok)
            fail(ops, what);
    }
    void attempt(uint64_t ops) { attempted_ += ops; }
    /** Marks @p ops of the attempted operations failed. */
    void fail(uint64_t ops, const std::string& what);

    uint64_t attempted() const { return attempted_; }
    uint64_t failed() const { return failed_; }
    const std::vector<std::string>& errors() const { return errors_; }

    /** Free-form context recorded in the full result record. */
    void note(const std::string& key, const std::string& value)
    {
        notes_[key] = value;
    }
    const std::map<std::string, std::string>& notes() const
    {
        return notes_;
    }

  private:
    std::map<std::string, Metric> metrics_;
    std::map<std::string, std::string> notes_;
    uint64_t attempted_ = 0;
    uint64_t failed_ = 0;
    std::vector<std::string> errors_;
};

/** Reference values loaded from expected.txt ("key hexvalue" lines). */
class Expected
{
  public:
    bool load(const std::string& path, std::string* error);
    /** True and sets @p out when @p key is present. */
    bool get(const std::string& key, uint64_t* out) const;

  private:
    std::map<std::string, uint64_t> values_;
};

/**
 * One part of the benchmark's traffic. Every run sets up and measures
 * all three phases, because every run reports every end-to-end metric;
 * the workload argument names the phase that gets most of the run.
 */
class Phase
{
  public:
    virtual ~Phase() = default;
    virtual const char* name() const = 0;
    /** Builds all state afresh; runs before every round. */
    virtual void setup(const Args& args, Report& report) = 0;
    /** One measured round; @p tracer is null with tracing off. */
    virtual void round(uint64_t index, Tracer* tracer, Report& report) = 0;
    /** False when another round cannot run (e.g. code arena full). */
    virtual bool canContinue() const { return true; }
    /** Length of one round on the reference host, for the run plan. */
    virtual double nominalRoundSeconds() const = 0;
    /** Round counts are multiples of this (phases that alternate
     *  inputs between rounds). */
    virtual int roundQuantum() const { return 1; }
    /**
     * Rounds every run makes of this phase whatever the workload (0:
     * the phase shares the rest of the run by weight instead).
     */
    virtual int fixedRounds() const { return 0; }
    /** Emits end-to-end metrics (trace off) or per-layer metrics. */
    virtual void finish(bool trace, Tracer* tracer, Report& report) = 0;
};

std::unique_ptr<Phase> makeFaasCapacity();
/** The FaaS function faas_capacity serves (and expected.txt covers). */
sfi::wasm::Module faasFunction();
/** Requests per faas_capacity probe: one expected checksum. */
inline constexpr uint64_t kFaasRequestsPerProbe = 8192;
std::unique_ptr<Phase> makeColdStart();
std::unique_ptr<Phase> makeLibraryEmbed();

/** The benchmark's own tests; returns the number of failures. */
int runSelfTests();

// ------------------------------------------------------------ helpers

inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Fastest of repeated timings of identical work: on a shared host other
 * tenants only ever add time, so the minimum is the steadiest estimate
 * of the work's own cost (the convention of the repository's figure
 * benches). Used for compute and transition microbenchmarks, never for
 * request latencies.
 */
inline double
best(const std::vector<double>& v)
{
    return v.empty() ? 0 : *std::min_element(v.begin(), v.end());
}

inline double
mean(const std::vector<double>& v)
{
    double s = 0;
    for (double x : v)
        s += x;
    return v.empty() ? 0 : s / double(v.size());
}

/** Nearest-rank percentile of @p v (p in [0, 100]). */
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t i = size_t(p / 100.0 * double(v.size() - 1) + 0.5);
    return v[std::min(i, v.size() - 1)];
}

inline double
geomean(const std::vector<double>& v)
{
    if (v.empty())
        return 0;
    double s = 0;
    for (double x : v)
        s += std::log(x);
    return std::exp(s / double(v.size()));
}

/** Zipf(s) over ranks [0, n): P(k) proportional to 1 / (k + 1)^s. */
class ZipfSampler
{
  public:
    ZipfSampler(uint64_t n, double s);
    uint64_t draw(sfi::Rng& rng) const;
    double probability(uint64_t k) const;
    /** Expected number of distinct ranks among @p draws draws. */
    double expectedDistinct(uint64_t draws) const;

  private:
    std::vector<double> cdf_;
};

/**
 * Highest rate in [lo, hi] for which @p pass holds, by a fixed number
 * of bisection steps in log space. Assumes pass is monotone (true
 * below the knee, false above); the probes it makes depend only on
 * lo, hi, steps and the answers, so the search is deterministic.
 * Returns lo when every probe fails.
 */
template <typename Pass>
double
bisectCapacity(double lo, double hi, int steps, Pass&& pass)
{
    double good = lo, bad = hi;
    for (int i = 0; i < steps; i++) {
        double mid = std::sqrt(good * bad);
        if (pass(mid))
            good = mid;
        else
            bad = mid;
    }
    return good;
}

/** All metric names and units the benchmark emits, by run kind. */
struct MetricSpec
{
    std::string name;
    std::string unit;
};
std::vector<MetricSpec> endToEndMetrics();
std::vector<MetricSpec> perLayerMetrics();

}  // namespace sfibench

#endif  // SFIBENCH_BENCH_H_
