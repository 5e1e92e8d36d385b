/**
 * @file
 * Microbenchmarks (google-benchmark) for the hot simulator operations:
 * POPET predict/train, cache lookups, DRAM scheduling and synthetic
 * trace generation. These guard against performance regressions in the
 * structures every experiment exercises millions of times.
 *
 * BM_TickLoopMix8 prices one System::tick() — one simulated cycle of
 * the wake-time scheduler — on a warmed 8-core Pythia+Hermes mix of the
 * first eight quick-suite traces:
 *
 *   micro_ops --benchmark_filter=TickLoop
 *
 * The checkpoint kernels (BM_CheckpointSnapshot, BM_CheckpointRestore,
 * BM_SessionWarmup) price a warmup-store hit against the warmup it
 * replaces, on one single-core POPET+Pythia session, in memory:
 *
 *   micro_ops --benchmark_filter='Checkpoint|SessionWarmup'
 */
// figmap: (perf) | google-benchmark microbenchmarks of hot simulator ops

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.hh"
#include "common/addr_index.hh"
#include "common/ring.hh"
#include "common/rng.hh"
#include "dram/dram.hh"
#include "predictor/hmp.hh"
#include "predictor/popet.hh"
#include "predictor/ttp.hh"
#include "sim/simulator.hh"
#include "sim/system.hh"
#include "trace/suite.hh"
#include "trace/trace_io.hh"

using namespace hermes;

namespace
{

void
BM_PopetPredict(benchmark::State &state)
{
    Popet popet;
    Rng rng(1);
    PredMeta meta;
    for (auto _ : state) {
        const Addr pc = 0x400000 + (rng.next() & 0xFF) * 4;
        const Addr va = rng.next() & ((1ull << 34) - 1);
        benchmark::DoNotOptimize(popet.predict(pc, va, meta));
        popet.train(pc, va, meta, rng.chance(0.1));
    }
}
BENCHMARK(BM_PopetPredict);

void
BM_HmpPredict(benchmark::State &state)
{
    Hmp hmp;
    Rng rng(2);
    PredMeta meta;
    for (auto _ : state) {
        const Addr pc = 0x400000 + (rng.next() & 0xFF) * 4;
        const Addr va = rng.next() & ((1ull << 34) - 1);
        benchmark::DoNotOptimize(hmp.predict(pc, va, meta));
        hmp.train(pc, va, meta, rng.chance(0.1));
    }
}
BENCHMARK(BM_HmpPredict);

void
BM_TtpPredictAndTrack(benchmark::State &state)
{
    Ttp ttp;
    Rng rng(3);
    PredMeta meta;
    for (auto _ : state) {
        const Addr va = rng.next() & ((1ull << 34) - 1);
        benchmark::DoNotOptimize(ttp.predict(0x400000, va, meta));
        ttp.onFillFromDram(lineAddr(va));
    }
}
BENCHMARK(BM_TtpPredictAndTrack);

void
BM_CacheLookupHit(benchmark::State &state)
{
    CacheParams p;
    p.sets = 64;
    p.ways = 12;
    p.latency = 1;
    Cache cache(p);
    // Warm one set's worth of lines via the write path.
    Cycle now = 0;
    for (unsigned i = 0; i < 12; ++i) {
        MemRequest wr;
        wr.address = i * 64 * 64;
        wr.type = AccessType::Writeback;
        cache.addWrite(wr);
        for (int t = 0; t < 4; ++t)
            cache.tick(++now);
    }
    std::uint64_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(cache.probe((i++ % 12) * 64));
    }
}
BENCHMARK(BM_CacheLookupHit);

void
BM_DramRandomReads(benchmark::State &state)
{
    // One accepted read per iteration. The channel serves about one
    // read per 10 cycles, so once the read queue fills a rejected read
    // is retried after a tick (as an LLC retries an unsent MSHR): the
    // time covers scheduling and completion, not rejected calls.
    DramParams p;
    DramController dram(p);
    Rng rng(4);
    Cycle now = 0;
    for (auto _ : state) {
        MemRequest rd;
        rd.address = (rng.next() & 0xFFFFFF) << 6;
        rd.type = AccessType::Load;
        while (!dram.addRead(rd))
            dram.tick(++now);
        dram.tick(++now);
    }
    benchmark::DoNotOptimize(dram.stats().demandReads);
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DramRandomReads);

void
BM_TickLoopMix8(benchmark::State &state)
{
    // Reported as ns per simulated cycle: every iteration is one tick,
    // visiting only the components whose wake slot is due.
    SystemConfig cfg = SystemConfig::baseline(8);
    cfg.prefetcher = "pythia";
    cfg.predictor = "popet";
    cfg.hermesIssueEnabled = true;
    const std::vector<TraceSpec> suite = quickSuite();
    std::vector<std::unique_ptr<Workload>> workloads;
    for (int i = 0; i < cfg.numCores; ++i)
        workloads.push_back(suite[i % suite.size()].make());
    System sys(cfg, std::move(workloads));
    sys.runWarmup(20'000);
    for (auto _ : state)
        benchmark::DoNotOptimize(sys.tick());
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TickLoopMix8);

void
BM_TraceGeneration(benchmark::State &state)
{
    auto wl = findTrace("ligra.pagerank_like.0").make();
    for (auto _ : state)
        benchmark::DoNotOptimize(wl->next());
}
BENCHMARK(BM_TraceGeneration);

void
BM_AddrIndexChurn(benchmark::State &state)
{
    // The MSHR/page-buffer lookup structure: insert/find/erase cycle
    // at the occupancy a busy LLC MSHR file sees.
    AddrIndex idx(64);
    Rng rng(5);
    std::vector<Addr> live;
    for (unsigned i = 0; i < 48; ++i) {
        const Addr line = rng.next() & 0xFFFFF;
        if (idx.find(line) == AddrIndex::kNotFound) {
            idx.insert(line, i);
            live.push_back(line);
        }
    }
    std::size_t cursor = 0;
    for (auto _ : state) {
        const Addr probe = rng.next() & 0xFFFFF;
        benchmark::DoNotOptimize(idx.find(probe));
        const Addr victim = live[cursor % live.size()];
        idx.erase(victim);
        const Addr fresh = (rng.next() & 0xFFFFF) | 0x100000;
        idx.insert(fresh, static_cast<std::uint32_t>(cursor));
        live[cursor % live.size()] = fresh;
        ++cursor;
    }
}
BENCHMARK(BM_AddrIndexChurn);

void
BM_RingQueue(benchmark::State &state)
{
    // The cache/core queue container: steady-state push/pop.
    Ring<MemRequest> ring(32);
    MemRequest req;
    for (int i = 0; i < 16; ++i)
        ring.push_back(req);
    for (auto _ : state) {
        ring.push_back(req);
        benchmark::DoNotOptimize(ring.front());
        ring.pop_front();
    }
}
BENCHMARK(BM_RingQueue);

/** In-memory checkpoint sink; clear() keeps the capacity. */
class MemorySink : public ByteSink
{
  public:
    void
    write(const void *data, std::size_t size) override
    {
        const auto *p = static_cast<const char *>(data);
        bytes.insert(bytes.end(), p, p + size);
    }
    void finish() override {}
    const std::string &path() const override { return path_; }

    std::vector<char> bytes;

  private:
    std::string path_ = "<memory>";
};

class MemorySource : public ByteSource
{
  public:
    explicit MemorySource(const std::vector<char> &bytes) : bytes_(bytes)
    {
    }

    std::size_t
    read(void *data, std::size_t size) override
    {
        const std::size_t n = std::min(size, bytes_.size() - pos_);
        std::memcpy(data, bytes_.data() + pos_, n);
        pos_ += n;
        return n;
    }
    void rewind() override { pos_ = 0; }
    const std::string &path() const override { return path_; }
    Compression compression() const override { return Compression::None; }
    std::int64_t
    sizeHint() const override
    {
        return static_cast<std::int64_t>(bytes_.size());
    }

  private:
    const std::vector<char> &bytes_;
    std::size_t pos_ = 0;
    std::string path_ = "<memory>";
};

/**
 * (Re)build the session every checkpoint kernel runs: popet+pythia,
 * 60k warmup instructions. Emplacing into an optional keeps the old
 * session's teardown out of a timed region.
 */
void
buildCheckpointSession(std::optional<SimSession> &s)
{
    SystemConfig cfg = SystemConfig::baseline(1);
    cfg.prefetcher = "pythia";
    cfg.predictor = "popet";
    cfg.hermesIssueEnabled = true;
    SimBudget budget;
    budget.warmupInstrs = 60'000;
    budget.simInstrs = 0;
    s.reset();
    s.emplace(cfg, std::vector<TraceSpec>{findTrace("spec06.mcf_like.0")},
              budget);
    s->build();
}

void
BM_CheckpointSnapshot(benchmark::State &state)
{
    std::optional<SimSession> s;
    buildCheckpointSession(s);
    s->warmup();
    MemorySink sink;
    for (auto _ : state) {
        sink.bytes.clear();
        s->snapshot(sink);
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * sink.bytes.size()));
}
BENCHMARK(BM_CheckpointSnapshot)->Unit(benchmark::kMillisecond);

void
BM_CheckpointRestore(benchmark::State &state)
{
    std::optional<SimSession> s;
    buildCheckpointSession(s);
    s->warmup();
    MemorySink sink;
    s->snapshot(sink);
    for (auto _ : state) {
        state.PauseTiming();
        buildCheckpointSession(s);
        MemorySource src(sink.bytes);
        state.ResumeTiming();
        if (!s->restore(src))
            state.SkipWithError("restore rejected its own snapshot");
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(
        state.iterations() * sink.bytes.size()));
}
BENCHMARK(BM_CheckpointRestore)->Unit(benchmark::kMillisecond);

void
BM_SessionWarmup(benchmark::State &state)
{
    std::optional<SimSession> s;
    for (auto _ : state) {
        state.PauseTiming();
        buildCheckpointSession(s);
        state.ResumeTiming();
        s->warmup();
    }
}
BENCHMARK(BM_SessionWarmup)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
