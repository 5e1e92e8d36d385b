/**
 * @file
 * Per-layer host kernels: POPET predict/train, an L1 cache and the
 * DRAM controller, each driven through its public interface with the
 * load stream of the workload being measured, plus the synthetic
 * generator's cost per instruction.
 */

#include <vector>

#include "bench.hh"
#include "cache/cache.hh"
#include "dram/dram.hh"
#include "predictor/popet.hh"
#include "spans.hh"

using namespace hermes;

namespace perfbench
{

namespace
{

/** Loads sampled per trace for the kernels. */
constexpr std::size_t kLoadsPerTrace = 40'000;
/** Instructions read per trace by the stream kernel. */
constexpr std::uint64_t kStreamInstrs = 200'000;

/** Keeps kernel results observable so their loops are not elided. */
volatile std::uint64_t gSink = 0;

struct Load
{
    Addr pc;
    Addr vaddr;
    /** Missed a direct-mapped tag array the size of the LLC. */
    bool offChip;
};

std::vector<Load>
loadStream(const std::vector<TraceSpec> &traces, int cores)
{
    std::vector<Load> loads;
    const std::size_t llc_lines =
        static_cast<std::size_t>(cores) * ((3u << 20) / kBlockSize);
    std::vector<Addr> tags(llc_lines, ~Addr{0});
    for (const TraceSpec &t : traces) {
        auto wl = t.make();
        std::size_t taken = 0;
        while (taken < kLoadsPerTrace) {
            const TraceInstr in = wl->next();
            if (in.kind != InstrKind::Load)
                continue;
            const Addr line = lineAddr(in.vaddr);
            Addr &tag = tags[line % llc_lines];
            loads.push_back({in.pc, in.vaddr, tag != line});
            tag = line;
            ++taken;
        }
    }
    return loads;
}

/** Lower level that answers every read one cycle later. */
class InstantLower : public MemDevice
{
  public:
    explicit InstantLower(MemClient &upper) : upper_(upper) {}

    bool
    addRead(const MemRequest &req) override
    {
        pending_.push_back(req);
        return true;
    }
    bool addWrite(const MemRequest &) override { return true; }
    void
    tick(Cycle) override
    {
        for (MemRequest &r : pending_) {
            r.servedFrom = MemLevel::L2;
            upper_.returnData(r);
        }
        pending_.clear();
    }

  private:
    MemClient &upper_;
    std::vector<MemRequest> pending_;
};

class CountingClient : public MemClient
{
  public:
    void returnData(const MemRequest &) override { ++returned; }
    std::uint64_t returned = 0;
};

double
popetKernel(const std::vector<Load> &loads)
{
    SpanScope span("kernel.popet");
    Popet popet;
    PredMeta meta;
    std::uint64_t predicted = 0;
    const std::int64_t t0 = nowNs();
    for (const Load &l : loads) {
        predicted += popet.predict(l.pc, l.vaddr, meta) ? 1 : 0;
        popet.train(l.pc, l.vaddr, meta, l.offChip);
    }
    const std::int64_t t1 = nowNs();
    gSink = predicted;
    return static_cast<double>(t1 - t0) / static_cast<double>(loads.size());
}

double
l1Kernel(const std::vector<Load> &loads)
{
    SpanScope span("kernel.l1");
    const SystemConfig sys = SystemConfig::baseline(1);
    CacheParams p;
    p.name = "L1D";
    p.level = MemLevel::L1;
    p.sets = sys.l1Sets;
    p.ways = sys.l1Ways;
    p.latency = sys.l1Latency;
    p.mshrs = sys.l1Mshrs;
    p.rqSize = 32;
    p.repl = ReplKind::Lru;
    Cache l1(p);
    CountingClient core;
    InstantLower lower(l1);
    l1.setLower(&lower);
    l1.setUpper(0, &core);

    Cycle now = 0;
    auto step = [&] {
        ++now;
        l1.tick(now);
        lower.tick(now);
    };
    const std::int64_t t0 = nowNs();
    for (const Load &l : loads) {
        MemRequest req;
        req.address = l.vaddr;
        req.pc = l.pc;
        req.type = AccessType::Load;
        req.cycleCreated = now;
        while (!l1.addRead(req))
            step();
        step();
    }
    while (core.returned < loads.size() && now < 100 * loads.size())
        step();
    const std::int64_t t1 = nowNs();
    return static_cast<double>(t1 - t0) / static_cast<double>(loads.size());
}

double
dramKernel(const std::vector<Load> &loads, int cores)
{
    SpanScope span("kernel.dram");
    DramController dram(SystemConfig::baseline(cores).dram);
    CountingClient client;
    for (int c = 0; c < cores; ++c)
        dram.setClient(c, &client);

    Cycle now = 0;
    std::uint64_t issued = 0;
    const std::int64_t t0 = nowNs();
    for (const Load &l : loads) {
        if (!l.offChip)
            continue;
        MemRequest req;
        req.address = l.vaddr;
        req.pc = l.pc;
        req.type = AccessType::Load;
        req.coreId = static_cast<int>(issued % cores);
        req.cycleCreated = now;
        while (!dram.addRead(req))
            dram.tick(++now);
        dram.tick(++now);
        ++issued;
    }
    const Cycle limit = now + 1'000'000;
    while (client.returned < issued && now < limit)
        dram.tick(++now);
    const std::int64_t t1 = nowNs();
    return issued == 0 ? 0
                       : static_cast<double>(t1 - t0) /
                             static_cast<double>(issued);
}

} // namespace

void
runKernels(const std::vector<TraceSpec> &traces, int cores, Result &out)
{
    const std::vector<Load> loads = loadStream(traces, cores);
    out.layers["popet.ns_per_load"] = popetKernel(loads);
    out.layers["l1.ns_per_access"] = l1Kernel(loads);
    out.layers["dram.ns_per_read"] = dramKernel(loads, cores);
}

double
streamNsPerInstr(const std::vector<TraceSpec> &traces)
{
    SpanScope span("kernel.trace_stream");
    std::uint64_t sum = 0;
    std::int64_t ns = 0;
    for (const TraceSpec &t : traces) {
        auto wl = t.make();
        const std::int64_t t0 = nowNs();
        for (std::uint64_t i = 0; i < kStreamInstrs; ++i)
            sum += wl->next().vaddr;
        ns += nowNs() - t0;
    }
    gSink = sum;
    return static_cast<double>(ns) /
           static_cast<double>(kStreamInstrs * traces.size());
}

} // namespace perfbench
