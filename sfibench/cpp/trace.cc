#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <utility>

namespace sfibench {

int32_t
Tracer::begin(const char* name, uint64_t request_id)
{
    Span s;
    s.name = name;
    s.parent = current();
    s.requestId = request_id;
    spans_.push_back(s);
    int32_t id = int32_t(spans_.size() - 1);
    open_.push_back(id);
    // Last, so the span's own bookkeeping stays outside its interval.
    spans_.back().startNs = sfi::monotonicNs();
    return id;
}

void
Tracer::end(int32_t id)
{
    uint64_t now = sfi::monotonicNs();
    spans_[size_t(id)].endNs = now;
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

bool
Tracer::write(const std::string& path) const
{
    FILE* f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::vector<int64_t> self = selfTimes(spans_);
    for (size_t i = 0; i < spans_.size(); i++) {
        const Span& s = spans_[i];
        std::fprintf(f,
                     "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                     "\"end_ns\":%llu,\"parent\":%d,\"request\":%llu,"
                     "\"self_ns\":%lld}\n",
                     i, s.name, (unsigned long long)s.startNs,
                     (unsigned long long)s.endNs, s.parent,
                     (unsigned long long)s.requestId, (long long)self[i]);
    }
    return std::fclose(f) == 0;
}

std::vector<int64_t>
selfTimes(const std::vector<Span>& spans)
{
    // Children's intervals per parent, then each parent's duration
    // minus the length of their union. Unclipped: a child reaching
    // outside its parent makes the parent's self time negative, which
    // is how inconsistent timestamps surface.
    std::vector<std::vector<std::pair<uint64_t, uint64_t>>> kids(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent >= 0)
            kids[size_t(s.parent)].emplace_back(s.startNs, s.endNs);
    }
    std::vector<int64_t> self(spans.size());
    for (size_t i = 0; i < spans.size(); i++) {
        auto& iv = kids[i];
        std::sort(iv.begin(), iv.end());
        uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
        bool open = false;
        for (auto [lo, hi] : iv) {
            if (open && lo <= cur_hi) {
                cur_hi = std::max(cur_hi, hi);
                continue;
            }
            if (open)
                covered += cur_hi - cur_lo;
            cur_lo = lo;
            cur_hi = hi;
            open = true;
        }
        if (open)
            covered += cur_hi - cur_lo;
        self[i] = int64_t(spans[i].duration()) - int64_t(covered);
    }
    return self;
}

uint64_t
selfTimeViolations(const std::vector<Span>& spans)
{
    uint64_t bad = 0;
    for (int64_t t : selfTimes(spans))
        bad += t < 0;
    return bad;
}

SpanTotals
totalsFor(const std::vector<Span>& spans, const std::vector<int64_t>& self,
          const char* name)
{
    SpanTotals t;
    for (size_t i = 0; i < spans.size(); i++) {
        if (std::strcmp(spans[i].name, name) != 0)
            continue;
        t.count++;
        t.durationNs += spans[i].duration();
        t.selfNs += self[i];
    }
    return t;
}

}  // namespace sfibench
