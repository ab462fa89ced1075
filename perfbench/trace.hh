/**
 * @file
 * In-memory span tracing for the benchmark's traced run.
 *
 * The benchmark wraps each call it makes into a simulator layer in a
 * span: a name, a start and end time, the span that caused it and the
 * request it belongs to. Spans stay in memory while the workload runs
 * and are written out when it ends. A layer's self time is its span's
 * duration minus the part of that interval its child spans cover.
 *
 * With tracing off every call is a no-op, so the untraced run that
 * yields the end-to-end metrics pays only a branch per call.
 */

#ifndef PERFBENCH_TRACE_HH_
#define PERFBENCH_TRACE_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/** One timed call. Times are seconds since the tracer was created. */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    /** Index of the span that caused this one; -1 for a root. */
    std::int64_t parent = -1;
    std::uint64_t request = 0;
};

/**
 * Span duration minus the union of the intervals its direct children
 * cover, for every span. Children may overlap one another (pool tasks
 * on several threads), so covered time is measured as a union, never
 * as a sum. A parent always precedes its children in 'spans'.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Self time summed per span name over every span whose root is
 * 'root' (the root itself included).
 */
std::map<std::string, double> selfTimeByName(const std::vector<Span> &spans,
                                             const std::vector<double> &self,
                                             std::int64_t root);

/** Thread-safe span recorder. */
class Tracer
{
  public:
    explicit Tracer(bool on) : on_(on) {}

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** Seconds since the tracer was created. */
    double
    now() const
    {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    /** Open a span and return its id (-1 when tracing is off). */
    std::int64_t open(const std::string &name, std::int64_t parent,
                      std::uint64_t request);

    /** Close a span opened by open(). */
    void close(std::int64_t id);

    /** Copy of every span recorded so far. */
    std::vector<Span> spans() const;

    /** Write every span as one JSON document. */
    void write(std::ostream &os) const;

  private:
    const bool on_;
    const std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_; // guarded by mutex_
};

/** RAII span: opened on construction, closed on destruction. */
class Scope
{
  public:
    Scope(Tracer &t, const std::string &name, std::int64_t parent = -1,
          std::uint64_t request = 0)
        : tracer_(t), id_(t.open(name, parent, request))
    {
    }
    ~Scope() { tracer_.close(id_); }

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    std::int64_t id() const { return id_; }

  private:
    Tracer &tracer_;
    const std::int64_t id_;
};

/**
 * Check selfTimes() and selfTimeByName() on a hand-built span set.
 * Returns an empty string on success, else a description of the first
 * wrong value.
 */
std::string checkSpanArithmetic();

} // namespace perfbench

#endif // PERFBENCH_TRACE_HH_
