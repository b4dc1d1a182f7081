/**
 * @file
 * In-memory span recorder for the benchmark's traced runs.
 *
 * The benchmark wraps its own calls into each library layer in a Scope;
 * the library itself is not instrumented. A span is named
 * "<layer>.<call>" (for example "decoder.decode"), so a layer's self
 * time is the summed duration of its spans minus the part their child
 * spans cover. Spans stay in memory and are written out once, at the
 * end of the run.
 *
 * Single-threaded by design: the traced replays run on the calling
 * thread only, which is also what makes them the single-thread baseline
 * of the engine's parallel efficiency.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/** One closed (or still open) span. */
struct Span
{
    std::string name;
    /** Nanoseconds since the tracer was created. */
    uint64_t startNs = 0;
    uint64_t endNs = 0;
    /** Index of the enclosing span in Tracer::spans(), -1 for a root. */
    int64_t parent = -1;
    /** The benchmark request the span belongs to. */
    uint64_t request = 0;

    double
    seconds() const
    {
        return (double)(endNs - startNs) * 1e-9;
    }
};

/** Layer of a span name: the part before the first '.'. */
std::string layerOf(const std::string &span_name);

class Tracer
{
  public:
    Tracer();

    /** Opens a span on construction and closes it on destruction. A
     * null tracer makes the scope a no-op, so one code path serves the
     * traced replay and the untraced correctness check. */
    class Scope
    {
      public:
        Scope(Tracer *tracer, const char *name, uint64_t request);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Tracer *tracer_;
        std::size_t index_ = 0;
    };

    const std::vector<Span> &
    spans() const
    {
        return spans_;
    }

    /** Summed duration of every span called @p name, in seconds. */
    double totalSeconds(const std::string &name) const;

    /** Self time per layer, in seconds: each span's duration minus the
     * durations of its direct children, summed by layerOf(name). */
    std::map<std::string, double> layerSelfSeconds() const;

    /** Summed duration of non-root spans without children, divided by
     * the summed duration of root spans (0 when there is no root). */
    double coverage() const;

    /** The spans as a JSON array (name, start_ns, end_ns, parent,
     * request). */
    std::string toJson() const;

  private:
    uint64_t nowNs() const;

    std::chrono::steady_clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<std::size_t> open_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
