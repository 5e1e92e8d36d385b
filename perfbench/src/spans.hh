#pragma once

/**
 * @file
 * In-memory span recorder for the benchmark's traced run. A span is
 * (name, start, end, parent, point id, thread); spans are recorded
 * around the benchmark's own calls into each simulator layer, kept in
 * per-thread buffers while the work runs and merged when the run ends.
 * Nothing here reaches into src/: the simulator itself is not
 * instrumented.
 */

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench
{

/** Monotonic nanoseconds since an arbitrary process-wide origin. */
std::int64_t nowNs();

/**
 * CPU nanoseconds the calling thread has used. Time the thread waits
 * for a CPU, or the hypervisor gives to another guest, is not in it.
 */
std::int64_t threadCpuNs();

struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::uint64_t id = 0;
    /** 0 = root span. */
    std::uint64_t parent = 0;
    /** Grid index of the point the span belongs to; -1 = none. */
    std::int64_t point = -1;
    std::uint32_t thread = 0;
};

/** Process-wide recorder; disabled spans cost one relaxed load. */
class Tracer
{
  public:
    static void setEnabled(bool on);
    static bool enabled();

    /** Open a span on the calling thread; returns its id (0 = off). */
    static std::uint64_t begin(const char *name, std::int64_t point,
                               std::uint64_t parent_override);
    static void end(std::uint64_t id);

    /** Every finished span so far (buffers of exited threads too). */
    static std::vector<Span> collect();
};

/** RAII span; a no-op while the tracer is disabled. */
class SpanScope
{
  public:
    explicit SpanScope(const char *name, std::int64_t point = -1,
                       std::uint64_t parent = 0)
        : id_(Tracer::begin(name, point, parent))
    {
    }
    ~SpanScope() { Tracer::end(id_); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    std::uint64_t id() const { return id_; }

  private:
    std::uint64_t id_;
};

/** Summed duration per span name, in seconds. */
std::map<std::string, double> totalSeconds(const std::vector<Span> &spans);

/**
 * Summed self time per span name, in seconds: each span's duration
 * minus the union of its children's intervals (children may run on
 * other threads and overlap each other).
 */
std::map<std::string, double> selfSeconds(const std::vector<Span> &spans);

/** Write spans as JSON lines. Returns false on I/O failure. */
bool writeSpans(const std::string &path, const std::vector<Span> &spans);

} // namespace perfbench
