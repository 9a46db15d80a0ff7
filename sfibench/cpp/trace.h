/**
 * @file
 * Span recording for the traced run.
 *
 * The benchmark wraps each call it makes into an sfikit layer in a
 * span (name, start, end, parent, request id). Spans stay in memory
 * and are written out when the run ends. A span's self time is its
 * duration minus the part of its interval that its children cover.
 *
 * With tracing off the benchmark passes a null Tracer and every Scope
 * is a single branch.
 */
#ifndef SFIBENCH_TRACE_H_
#define SFIBENCH_TRACE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "base/cpu.h"

namespace sfibench {

struct Span
{
    const char* name = "";
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    /** Index of the enclosing span in the same Tracer, or -1. */
    int32_t parent = -1;
    uint64_t requestId = 0;

    uint64_t duration() const { return endNs - startNs; }
};

class Tracer
{
  public:
    /** Opens a span under the innermost open one. */
    int32_t begin(const char* name, uint64_t request_id);
    void end(int32_t id);

    const std::vector<Span>& spans() const { return spans_; }
    int32_t current() const { return open_.empty() ? -1 : open_.back(); }

    /** Writes one JSON object per line to @p path. */
    bool write(const std::string& path) const;

  private:
    std::vector<Span> spans_;
    std::vector<int32_t> open_;
};

/** RAII span; a no-op when @p tracer is null. */
class Scope
{
  public:
    Scope(Tracer* tracer, const char* name, uint64_t request_id = 0)
        : tracer_(tracer),
          id_(tracer ? tracer->begin(name, request_id) : -1)
    {
    }
    ~Scope()
    {
        if (tracer_)
            tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

  private:
    Tracer* tracer_;
    int32_t id_;
};

/**
 * Self time of every span: duration minus the union of its children's
 * intervals clipped to the span. A child that starts before or ends
 * after its parent shows up as a negative self time, which
 * selfTimeViolations() counts.
 */
std::vector<int64_t> selfTimes(const std::vector<Span>& spans);

/** Spans whose children claim more time than the span lasted. */
uint64_t selfTimeViolations(const std::vector<Span>& spans);

/** Per-name totals over a span list. */
struct SpanTotals
{
    uint64_t count = 0;
    uint64_t durationNs = 0;
    int64_t selfNs = 0;

    double meanUs() const
    {
        return count ? double(durationNs) / double(count) / 1e3 : 0;
    }
};
SpanTotals totalsFor(const std::vector<Span>& spans,
                     const std::vector<int64_t>& self, const char* name);

}  // namespace sfibench

#endif  // SFIBENCH_TRACE_H_
