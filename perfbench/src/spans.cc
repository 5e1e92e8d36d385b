#include "spans.hh"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <mutex>
#include <unordered_map>

namespace perfbench
{

namespace
{

std::atomic<bool> gEnabled{false};
std::atomic<std::uint64_t> gNextId{1};
std::atomic<std::uint32_t> gNextThread{0};

std::mutex gMutex;
/** Spans flushed by threads that have exited (guarded by gMutex). */
std::vector<Span> gFinished;

/** One thread's open-span stack and finished spans. */
struct ThreadBuffer
{
    std::uint32_t thread = gNextThread.fetch_add(1);
    std::vector<Span> stack;
    std::vector<Span> done;

    ~ThreadBuffer() { flush(); }

    void
    flush()
    {
        std::lock_guard<std::mutex> lock(gMutex);
        gFinished.insert(gFinished.end(), done.begin(), done.end());
        done.clear();
    }
};

ThreadBuffer &
buffer()
{
    thread_local ThreadBuffer buf;
    return buf;
}

const std::chrono::steady_clock::time_point kOrigin =
    std::chrono::steady_clock::now();

} // namespace

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - kOrigin)
        .count();
}

std::int64_t
threadCpuNs()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

void
Tracer::setEnabled(bool on)
{
    gEnabled.store(on, std::memory_order_relaxed);
}

bool
Tracer::enabled()
{
    return gEnabled.load(std::memory_order_relaxed);
}

std::uint64_t
Tracer::begin(const char *name, std::int64_t point,
              std::uint64_t parent_override)
{
    if (!enabled())
        return 0;
    ThreadBuffer &buf = buffer();
    Span s;
    s.name = name;
    s.id = gNextId.fetch_add(1, std::memory_order_relaxed);
    s.parent = parent_override != 0 ? parent_override
               : buf.stack.empty() ? 0
                                   : buf.stack.back().id;
    s.point = point;
    s.thread = buf.thread;
    s.startNs = nowNs();
    buf.stack.push_back(s);
    return s.id;
}

void
Tracer::end(std::uint64_t id)
{
    if (id == 0)
        return;
    ThreadBuffer &buf = buffer();
    // Scopes nest, so the span being closed is the innermost one.
    if (buf.stack.empty() || buf.stack.back().id != id)
        return;
    Span s = buf.stack.back();
    buf.stack.pop_back();
    s.endNs = nowNs();
    buf.done.push_back(s);
}

std::vector<Span>
Tracer::collect()
{
    buffer().flush();
    std::lock_guard<std::mutex> lock(gMutex);
    return gFinished;
}

std::map<std::string, double>
totalSeconds(const std::vector<Span> &spans)
{
    std::map<std::string, double> out;
    for (const Span &s : spans)
        out[s.name] += static_cast<double>(s.endNs - s.startNs) * 1e-9;
    return out;
}

std::map<std::string, double>
selfSeconds(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t,
                       std::vector<std::pair<std::int64_t, std::int64_t>>>
        children;
    for (const Span &s : spans)
        if (s.parent != 0)
            children[s.parent].push_back({s.startNs, s.endNs});

    std::map<std::string, double> out;
    for (const Span &s : spans) {
        std::int64_t covered = 0;
        auto it = children.find(s.id);
        if (it != children.end()) {
            auto &iv = it->second;
            std::sort(iv.begin(), iv.end());
            std::int64_t lo = 0, hi = -1;
            for (const auto &[a0, b0] : iv) {
                const std::int64_t a = std::max(a0, s.startNs);
                const std::int64_t b = std::min(b0, s.endNs);
                if (b <= a)
                    continue;
                if (a > hi) {
                    if (hi > lo)
                        covered += hi - lo;
                    lo = a;
                    hi = b;
                } else {
                    hi = std::max(hi, b);
                }
            }
            if (hi > lo)
                covered += hi - lo;
        }
        out[s.name] +=
            static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return out;
}

bool
writeSpans(const std::string &path, const std::vector<Span> &spans)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    for (const Span &s : spans)
        std::fprintf(f,
                     "{\"id\":%llu,\"parent\":%llu,\"name\":\"%s\","
                     "\"point\":%lld,\"thread\":%u,\"start_ns\":%lld,"
                     "\"end_ns\":%lld}\n",
                     static_cast<unsigned long long>(s.id),
                     static_cast<unsigned long long>(s.parent), s.name,
                     static_cast<long long>(s.point), s.thread,
                     static_cast<long long>(s.startNs),
                     static_cast<long long>(s.endNs));
    return std::fclose(f) == 0;
}

} // namespace perfbench
