/**
 * @file
 * The benchmark's own tests (sfibench --self-test): the capacity
 * bisection on synthetic latency curves, the Zipf sampler, and the
 * self-time arithmetic. Metric names against BENCHMARK.json are checked
 * by test.py, which can read the JSON.
 */
#include <cmath>
#include <cstdio>
#include <set>

#include "bench.h"

namespace sfibench {
namespace {

int failures = 0;

void
expect(bool ok, const char* what)
{
    std::printf("%s  %s\n", ok ? "ok  " : "FAIL", what);
    failures += !ok;
}

void
testBisection()
{
    // Synthetic hosts: p99 flat below the knee, then climbing steeply.
    const double lo = 4000, hi = 128000;
    const int steps = 7;
    const double resolution = std::pow(hi / lo, 1.0 / double(1 << steps));
    bool all = true;
    for (double knee : {5000.0, 17000.0, 31000.0, 42000.0, 99000.0}) {
        // p99 in ms: a few ms up to the knee, hundreds past it.
        auto p99Ms = [&](double rate) { return rate <= knee ? 3.0 : 400.0; };
        int probes = 0;
        double cap = bisectCapacity(lo, hi, steps, [&](double rate) {
            probes++;
            return p99Ms(rate) <= 20.0;
        });
        all = all && probes == steps && cap <= knee &&
              cap * resolution >= knee;
    }
    expect(all, "bisection returns the known knee within one step");

    int probes = 0;
    double cap = bisectCapacity(lo, hi, steps, [&](double) {
        probes++;
        return false;
    });
    expect(cap == lo && probes == steps,
           "bisection returns the lower bound when every probe fails");
}

void
testZipf()
{
    const uint64_t n = 512, draws = 4000;
    ZipfSampler z(n, 1.0);
    auto seq = [&](uint64_t seed) {
        sfi::Rng rng(seed);
        std::vector<uint64_t> v;
        for (uint64_t i = 0; i < draws; i++)
            v.push_back(z.draw(rng));
        return v;
    };
    expect(seq(7) == seq(7), "zipf draws repeat for one seed");
    expect(seq(7) != seq(8), "zipf draws differ between seeds");

    double p_sum = 0;
    for (uint64_t k = 0; k < n; k++)
        p_sum += z.probability(k);
    expect(std::fabs(p_sum - 1.0) < 1e-9 &&
               z.probability(0) > z.probability(1) &&
               std::fabs(z.probability(0) / z.probability(9) - 10.0) < 1e-6,
           "zipf(1) probabilities are 1/(k+1), normalized");

    // Share of arrivals that see an image for the first time (cache
    // misses), against its expectation, averaged over seeds.
    double seen = 0;
    const int seeds = 20;
    for (int s = 0; s < seeds; s++) {
        std::set<uint64_t> distinct;
        for (uint64_t k : seq(100 + uint64_t(s)))
            distinct.insert(k);
        seen += double(distinct.size());
    }
    double share = seen / seeds / double(draws);
    double want = z.expectedDistinct(draws) / double(draws);
    char msg[160];
    std::snprintf(msg, sizeof msg,
                  "first-time share %.4f matches the expected %.4f", share,
                  want);
    expect(std::fabs(share - want) < 0.01 && want > 0.05 && want < 0.2, msg);
}

void
testSelfTime()
{
    // root [0,100]: a [10,40] with grandchild g [15,20], b [30,60]
    // overlapping a. Union of root's children = [10,60] = 50.
    std::vector<Span> t(4);
    t[0] = {"root", 0, 100, -1, 1};
    t[1] = {"a", 10, 40, 0, 1};
    t[2] = {"g", 15, 20, 1, 1};
    t[3] = {"b", 30, 60, 0, 1};
    std::vector<int64_t> self = selfTimes(t);
    expect(self == std::vector<int64_t>{50, 25, 5, 30},
           "self time subtracts the union of the children");
    expect(selfTimeViolations(t) == 0, "no violation on a consistent tree");

    std::vector<int64_t> self0 = selfTimes(std::vector<Span>{t[0]});
    expect(self0 == std::vector<int64_t>{100}, "a leaf's self time is its "
                                                "duration");

    // A child outside its parent: covered time exceeds the duration.
    t[3] = {"b", 30, 140, 0, 1};
    expect(selfTimes(t)[0] == -30 && selfTimeViolations(t) == 1,
           "a child outside its parent gives a negative self time");

    SpanTotals a = totalsFor(t, selfTimes(t), "a");
    expect(a.count == 1 && a.durationNs == 30 && a.selfNs == 25,
           "per-name totals");

    Tracer tr;
    int32_t r = tr.begin("r", 9);
    int32_t c = tr.begin("c", 9);
    tr.end(c);
    tr.end(r);
    const auto& s = tr.spans();
    expect(s.size() == 2 && s[1].parent == r && s[0].parent == -1 &&
               s[0].startNs <= s[1].startNs && s[1].endNs <= s[0].endNs &&
               selfTimeViolations(s) == 0,
           "tracer nests spans and records parents");
}

}  // namespace

int
runSelfTests()
{
    testBisection();
    testZipf();
    testSelfTime();
    std::printf("%d failure(s)\n", failures);
    return failures;
}

}  // namespace sfibench
