/**
 * @file
 * The three workloads. single_core and eight_core walk SimSession's
 * phases for paired Pythia / Pythia+Hermes runs on one thread;
 * fig_sweep runs an hermes.issue_latency grid over captured trace
 * files through runJournaled with a journal and both stores, three
 * passes per repetition (cold, ckpt, warm).
 *
 * Every workload repeats until its time is spent. The traced run
 * interleaves untraced, traced and traced+HERMES_PROFILE repetitions
 * so the tracing and profiling overheads are measured side by side.
 */

#include <time.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "bench.hh"
#include "sim/report.hh"
#include "sim/warmup_cache.hh"
#include "spans.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"
#include "trace/resolve.hh"
#include "trace/trace_file.hh"
#include "trace/trace_io.hh"

using namespace hermes;
namespace fs = std::filesystem;

namespace perfbench
{

namespace
{

/** What one timed repetition produced. */
struct Rep
{
    /**
     * Host seconds the MIPS figure refers to: the thread's CPU time on
     * the one-thread workloads, the cold pass's wall on fig_sweep.
     * pointS is measured the same way.
     */
    double simS = 0;
    /**
     * Host speed against the nominal one over simS, from calibrations
     * just before and just after it (calibrate.cc); 1 when traced.
     */
    double speed = 1;
    std::uint64_t instrs = 0;
    std::vector<double> pointS;
    std::vector<std::uint64_t> fps;
    std::vector<RunStats> stats;
    std::map<std::string, double> passS;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    /** Σ point wall ÷ (threads × pass wall) of the timed pass. */
    double parallelEff = 0;
};

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
secondsSince(std::int64_t t0)
{
    return static_cast<double>(nowNs() - t0) * 1e-9;
}

double
cpuSecondsSince(std::int64_t t0)
{
    return static_cast<double>(threadCpuNs() - t0) * 1e-9;
}

/** Host speed between two calibrations, against the nominal one. */
double
speedOf(double cal_before_s, double cal_after_s)
{
    return kNominalCalS / (0.5 * (cal_before_s + cal_after_s));
}

/**
 * Host seconds since the process was spawned, or, when run.py did not
 * say when that was, since the benchmark's clock origin.
 */
double
secondsSinceStart(const Options &opt)
{
    if (opt.startNs < 0)
        return secondsSince(0);
    timespec ts{};
    clock_gettime(CLOCK_MONOTONIC, &ts);
    const std::int64_t now = static_cast<std::int64_t>(ts.tv_sec) *
                                 1'000'000'000 + ts.tv_nsec;
    return static_cast<double>(now - opt.startNs) * 1e-9;
}

/** A workload: set-up, one repetition, and its end-of-run extras. */
class Bench
{
  public:
    virtual ~Bench() = default;
    virtual void setup() = 0;
    /** One repetition; @p traced drives it through spanned calls. */
    virtual Rep rep(bool traced) = 0;
    /** Simulated metrics from a repetition's stats. */
    virtual void simMetricsOf(const Rep &r, Result &out) = 0;
    /** Checks made once per run, after the timed repetitions. */
    virtual void finalChecks(const Rep &, Result &) {}
    /** Per-layer extras of the traced run (kernels, seam timings). */
    virtual void layerExtras(Result &out) = 0;
    virtual int threads() const { return 1; }
};

// ---------------------------------------------------------------------
// single_core / eight_core: SimSession phases on one thread.

class SessionBench : public Bench
{
  public:
    SessionBench(const Options &opt, int cores, SimBudget budget)
        : opt_(opt), cores_(cores), budget_(budget)
    {
    }

    void
    setup() override
    {
        SpanScope span("setup");
        traces_ = seededQuickSuite(opt_.seed);
        grid_.clear();
        if (cores_ == 1) {
            for (const TraceSpec &t : traces_) {
                grid_.push_back({t.name() + "/pythia", pythiaConfig(1), {t},
                                 budget_});
                grid_.push_back({t.name() + "/hermes", hermesConfig(1, 6, true),
                                 {t}, budget_});
            }
        } else {
            // One heterogeneous mix of the first eight distinct traces.
            std::vector<TraceSpec> mix(traces_.begin(),
                                       traces_.begin() + cores_);
            grid_.push_back({"mix/pythia", pythiaConfig(cores_), mix,
                             budget_});
            grid_.push_back({"mix/hermes", hermesConfig(cores_, 6, true), mix,
                             budget_});
        }
    }

    Rep
    rep(bool traced) override
    {
        Rep r;
        // Back-to-back untraced repetitions share the calibration
        // between them.
        const double cal_before =
            traced ? 0 : lastCalS_ > 0 ? lastCalS_ : calibrate(1);
        lastCalS_ = 0;
        const std::int64_t t0 = threadCpuNs();
        for (std::size_t i = 0; i < grid_.size(); ++i) {
            const auto p = static_cast<std::int64_t>(i);
            const sweep::GridPoint &g = grid_[i];
            SpanScope point("point", p);
            const std::int64_t pt0 = threadCpuNs();
            ++r.attempted;
            try {
                SimSession s(g.config, g.traces, g.budget);
                {
                    SpanScope sp("session.build", p);
                    s.build();
                }
                {
                    SpanScope sp("session.warmup", p);
                    s.warmup();
                }
                {
                    SpanScope sp("session.measure", p);
                    s.measure();
                }
                SpanScope sp("session.collect", p);
                r.stats.push_back(s.collect());
            } catch (const std::exception &e) {
                std::fprintf(stderr, "point %s failed: %s\n",
                             g.label.c_str(), e.what());
                ++r.failed;
                r.stats.emplace_back();
            }
            r.pointS.push_back(cpuSecondsSince(pt0));
            r.fps.push_back(statsFingerprint(r.stats.back()));
            r.instrs += r.stats.back().hostPerf.instrs;
        }
        r.simS = cpuSecondsSince(t0);
        if (!traced) {
            lastCalS_ = calibrate(1);
            r.speed = speedOf(cal_before, lastCalS_);
        }
        double sum = 0;
        for (double s : r.pointS)
            sum += s;
        r.parallelEff = sum / r.simS;
        return r;
    }

    void
    simMetricsOf(const Rep &r, Result &out) override
    {
        std::vector<RunStats> pythia, hermes_runs;
        for (std::size_t i = 0; i < r.stats.size(); i += 2) {
            pythia.push_back(r.stats[i]);
            hermes_runs.push_back(r.stats[i + 1]);
        }
        simMetrics(pythia, hermes_runs, out);
    }

    void
    layerExtras(Result &out) override
    {
        const std::vector<TraceSpec> used(traces_.begin(),
                                          traces_.begin() +
                                              (cores_ == 1 ? traces_.size()
                                                           : cores_));
        out.layers["trace.gen_ns_per_instr"] = streamNsPerInstr(used);
        runKernels(used, cores_, out);
        const std::string why = opt_.workload +
                                " uses no trace files, stores or journal "
                                "(it is the control for them)";
        for (const char *key :
             {"trace.decode_ns_per_instr", "trace.write_s",
              "session.snapshot_s", "session.restore_s",
              "session.ckpt_bytes", "result_cache.load_ms",
              "result_cache.store_ms", "result_cache.hit_frac",
              "warmup_cache.load_ms", "warmup_cache.store_ms",
              "warmup_cache.restored_frac", "journal.append_ms"})
            out.absent[key] = why;
    }

  private:
    const Options &opt_;
    int cores_;
    SimBudget budget_;
    std::vector<TraceSpec> traces_;
    std::vector<sweep::GridPoint> grid_;
    /** Calibration after the last repetition, if it was untraced. */
    double lastCalS_ = 0;
};

// ---------------------------------------------------------------------
// fig_sweep: runJournaled over captured trace files, three passes.

/** In-memory checkpoint sink/source for the snapshot seam timings. */
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
    explicit MemorySource(const std::vector<char> &bytes) : bytes_(bytes) {}

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

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

void
resetDir(const std::string &dir)
{
    fs::remove_all(dir);
    sweep::ensureDirectory(dir);
}

struct PassOut
{
    std::vector<sweep::PointResult> results;
    double wall = 0;
    std::size_t cached = 0;
    std::size_t simulated = 0;
    sweep::ResultCacheStats rc;
    WarmupCacheStats wc;
};

class SweepBench : public Bench
{
  public:
    static constexpr int kThreads = 4;
    static constexpr int kLatencies = 10; ///< 0, 3, ..., 27 cycles
    static constexpr std::size_t kPerTrace = 1 + kLatencies;
    /** Offset of the 6-cycle (Hermes-O) point among a trace's points. */
    static constexpr std::size_t kHermesO = 1 + 2;

    SweepBench(const Options &opt, SimBudget budget)
        : opt_(opt), budget_(budget), dir_(opt.workDir)
    {
    }

    int threads() const override { return kThreads; }

    void
    setup() override
    {
        SpanScope span("setup");
        synthetic_ = seededQuickSuite(opt_.seed);
        files_.clear();
        // Replay must never loop: the file holds every instruction a
        // point can fetch (warmup + measure + the ROB's run-ahead).
        const std::uint64_t records =
            budget_.warmupInstrs + budget_.simInstrs + 16'384;
        const std::int64_t w0 = nowNs();
        sweep::ensureDirectory(dir_ + "/traces");
        for (const TraceSpec &t : synthetic_) {
            SpanScope sp("trace.write");
            const std::string path =
                dir_ + "/traces/" + t.name() + ".hrm.gz";
            auto wl = t.make();
            writeTraceFile(path, *wl, records, t.name(), t.category());
            files_.push_back(resolveTrace("file:" + path));
        }
        writeS_ = secondsSince(w0);
        fileGrid_ = grid(files_);
        resetDir(dir_ + "/results");
        resetDir(dir_ + "/warmup");
    }

    Rep
    rep(bool traced) override
    {
        Rep r;
        const std::string rdir = dir_ + "/results";
        const std::string wdir = dir_ + "/warmup";
        resetDir(rdir);
        resetDir(wdir);
        const double cal_before = traced ? 0 : calibrate(kThreads);
        const PassOut cold = pass("pass.cold", traced, "cold");
        if (!traced)
            r.speed = speedOf(cal_before, calibrate(kThreads));
        resetDir(rdir);
        const PassOut ckpt = pass("pass.ckpt", traced, "ckpt");
        if (opt_.inject == "corrupt_result_entry")
            corruptOneEntry(rdir);
        const PassOut warm = pass("pass.warm", traced, "warm");

        r.passS = {{"cold", cold.wall}, {"ckpt", ckpt.wall},
                   {"warm", warm.wall}};
        r.simS = cold.wall;
        double sum = 0;
        for (const auto &p : cold.results) {
            r.pointS.push_back(p.wallSeconds);
            sum += p.wallSeconds;
            r.instrs += p.stats.hostPerf.instrs;
            r.fps.push_back(statsFingerprint(p.stats));
            r.stats.push_back(p.stats);
        }
        r.parallelEff = sum / (kThreads * cold.wall);
        for (const PassOut *p : {&cold, &ckpt, &warm})
            for (const auto &pr : p->results) {
                ++r.attempted;
                r.failed += pr.ok ? 0 : 1;
            }

        // Per-repetition correctness: every pass reproduces the cold
        // pass point for point, and each pass took the intended route.
        const std::uint64_t sweep_fp = sweep::sweepFingerprint(cold.results);
        const std::size_t n = fileGrid_.size();
        const std::size_t lookups = ckpt.wc.hits + ckpt.wc.misses;
        tally("ckpt_matches_cold",
              sweep::sweepFingerprint(ckpt.results) == sweep_fp &&
                  fps(ckpt.results) == r.fps);
        tally("warm_matches_cold",
              sweep::sweepFingerprint(warm.results) == sweep_fp &&
                  fps(warm.results) == r.fps);
        tally("cold_simulates_every_point", cold.simulated == n);
        tally("ckpt_restores_every_warmup",
              ckpt.simulated == n && ckpt.wc.hits == n);
        tally("warm_serves_every_point_from_store",
              warm.cached == n && warm.rc.rejected == 0);

        journalsIdentical_ =
            readFile(dir_ + "/cold.jsonl") == readFile(dir_ + "/warm.jsonl");
        if (!traced) {
            const std::size_t rc_lookups = warm.rc.hits + warm.rc.misses;
            hitFrac_ = rc_lookups ? static_cast<double>(warm.rc.hits) /
                                        static_cast<double>(rc_lookups)
                                  : 0;
            restoredFrac_ = lookups ? static_cast<double>(ckpt.wc.hits) /
                                          static_cast<double>(lookups)
                                    : 0;
        }
        return r;
    }

    void
    simMetricsOf(const Rep &r, Result &out) override
    {
        // Issue latency 6 (Hermes-O) against Pythia, per trace.
        std::vector<RunStats> pythia, hermes_runs;
        for (std::size_t t = 0; t < files_.size(); ++t) {
            pythia.push_back(r.stats[t * kPerTrace]);
            hermes_runs.push_back(r.stats[t * kPerTrace + kHermesO]);
        }
        simMetrics(pythia, hermes_runs, out);
    }

    void
    finalChecks(const Rep &first, Result &out) override
    {
        for (const auto &[name, tally] : passChecks_)
            out.check(name, tally.first == 0,
                      std::to_string(tally.first) + " of " +
                          std::to_string(tally.second) +
                          " repetitions failed");
        out.journalsIdentical = journalsIdentical_ ? 1 : 0;

        // Round trip: the file-replayed points equal the same
        // traces simulated straight from the generator.
        std::vector<sweep::GridPoint> gen = grid(synthetic_);
        std::vector<bool> skip(gen.size(), true);
        for (std::size_t t = 0; t < synthetic_.size(); ++t) {
            skip[t * kPerTrace] = false;
            skip[t * kPerTrace + kHermesO] = false;
        }
        sweep::SweepOptions so;
        so.threads = kThreads;
        const auto direct = sweep::SweepEngine(so).run(gen, skip);
        int compared = 0, equal = 0;
        for (std::size_t i = 0; i < gen.size(); ++i) {
            if (skip[i])
                continue;
            ++compared;
            equal += statsFingerprint(direct[i].stats) == first.fps[i];
        }
        out.check("file_replay_matches_generator", compared == equal,
                  std::to_string(equal) + "/" + std::to_string(compared) +
                      " points");
    }

    void
    layerExtras(Result &out) override
    {
        out.layers["trace.write_s"] = writeS_;
        out.layers["trace.gen_ns_per_instr"] = streamNsPerInstr(synthetic_);
        out.layers["trace.decode_ns_per_instr"] = streamNsPerInstr(files_);
        out.layers["result_cache.hit_frac"] = hitFrac_;
        out.layers["warmup_cache.restored_frac"] = restoredFrac_;
        seamTimings(out);
        runKernels(files_, 1, out);
    }

  private:
    std::vector<sweep::GridPoint>
    grid(const std::vector<TraceSpec> &traces) const
    {
        std::vector<sweep::GridPoint> g;
        for (const TraceSpec &t : traces) {
            const std::string name = t.params.name;
            g.push_back({name + "/pythia", pythiaConfig(1), {t}, budget_});
            for (int l = 0; l < kLatencies; ++l) {
                g.push_back({name + "/lat=" + std::to_string(3 * l),
                             hermesConfig(1, 3 * l, false), {t}, budget_});
            }
        }
        return g;
    }

    /** Count one repetition's outcome of a per-pass check. */
    void
    tally(const std::string &name, bool ok)
    {
        auto &t = passChecks_[name];
        t.first += ok ? 0 : 1;
        ++t.second;
    }

    static std::vector<std::uint64_t>
    fps(const std::vector<sweep::PointResult> &rs)
    {
        std::vector<std::uint64_t> out;
        for (const auto &r : rs)
            out.push_back(statsFingerprint(r.stats));
        return out;
    }

    PassOut
    pass(const char *span_name, bool traced, const std::string &name)
    {
        SpanScope span(span_name);
        PassOut out;
        const std::string journal = dir_ + "/" + name + ".jsonl";
        fs::remove(journal);
        fs::remove(journal + ".bak");
        sweep::ResultCache rc({dir_ + "/results", 0, 0});
        WarmupCache wc({dir_ + "/warmup", 0, 0});
        sweep::JournalWriter writer(journal);
        const std::int64_t t0 = nowNs();
        if (traced) {
            out.results = tracedPass(rc, wc, writer, span.id(), out.cached);
            out.simulated = out.results.size() - out.cached;
        } else {
            sweep::SweepOptions so;
            so.threads = kThreads;
            so.warmupCache = &wc;
            sweep::OrchestrateOptions oo;
            oo.journal = &writer;
            oo.cache = &rc;
            sweep::OrchestratedRun run =
                sweep::runJournaled(so, fileGrid_, oo);
            out.results = std::move(run.results);
            out.cached = run.cached;
            out.simulated = run.simulated;
        }
        out.wall = secondsSince(t0);
        out.rc = rc.stats();
        out.wc = wc.stats();
        return out;
    }

    /**
     * The same grid driven point by point through the public store,
     * session and journal calls, so each gets its own span (the
     * untraced pass goes through runJournaled, which hides them).
     */
    std::vector<sweep::PointResult>
    tracedPass(sweep::ResultCache &rc, WarmupCache &wc,
               sweep::JournalWriter &writer, std::uint64_t parent,
               std::size_t &cached)
    {
        writer.beginGrid(fileGrid_);
        std::vector<sweep::PointResult> results(fileGrid_.size());
        std::atomic<std::size_t> next{0}, hits{0};
        auto work = [&] {
            for (std::size_t i; (i = next.fetch_add(1)) < fileGrid_.size();) {
                try {
                    results[i] = tracedPoint(i, rc, wc, writer, parent, hits);
                } catch (const std::exception &e) {
                    std::fprintf(stderr, "point %zu failed: %s\n", i,
                                 e.what());
                    results[i].index = i;
                    results[i].ok = false;
                }
            }
        };
        std::vector<std::thread> pool;
        for (int t = 0; t < kThreads; ++t)
            pool.emplace_back(work);
        for (auto &t : pool)
            t.join();
        cached = hits;
        return results;
    }

    sweep::PointResult
    tracedPoint(std::size_t i, sweep::ResultCache &rc, WarmupCache &wc,
                sweep::JournalWriter &writer, std::uint64_t parent,
                std::atomic<std::size_t> &hits)
    {
        const auto p = static_cast<std::int64_t>(i);
        const sweep::GridPoint &g = fileGrid_[i];
        SpanScope span("point", p, parent);
        sweep::PointResult r;
        r.index = i;
        r.label = g.label;
        std::optional<sweep::PointResult> hit;
        {
            SpanScope sp("result_cache.load", p);
            hit = rc.load(g);
        }
        if (hit) {
            r.stats = hit->stats;
            r.wallSeconds = hit->wallSeconds;
            ++hits;
        } else {
            const std::int64_t t0 = nowNs();
            try {
                SimSession s(g.config, g.traces, g.budget);
                {
                    SpanScope sp("session.build", p);
                    s.build();
                }
                auto warm = [&] {
                    SpanScope sp("session.warmup", p);
                    s.warmup();
                };
                if (s.checkpointable()) {
                    auto guard = wc.lockFingerprint(s.warmupFingerprint());
                    bool restored = false;
                    {
                        SpanScope sp("warmup_cache.load", p);
                        restored = wc.load(s);
                    }
                    if (!restored) {
                        warm();
                        SpanScope sp("warmup_cache.store", p);
                        wc.store(s);
                    }
                } else {
                    warm();
                }
                {
                    SpanScope sp("session.measure", p);
                    s.measure();
                }
                SpanScope sp("session.collect", p);
                r.stats = s.collect();
            } catch (const std::exception &e) {
                std::fprintf(stderr, "point %s failed: %s\n",
                             g.label.c_str(), e.what());
                r.ok = false;
            }
            r.wallSeconds = secondsSince(t0);
            SpanScope sp("result_cache.store", p);
            rc.store(g, r);
        }
        SpanScope sp("journal.append", p);
        writer.append(r);
        return r;
    }

    /** Overwrite one result-store entry with garbage (self-test). */
    static void
    corruptOneEntry(const std::string &dir)
    {
        for (const auto &e : fs::directory_iterator(dir)) {
            if (e.path().extension() != ".rec")
                continue;
            std::ofstream(e.path(), std::ios::binary | std::ios::trunc)
                << "{\"hermes_result_cache\":0}\ngarbage\n";
            return;
        }
    }

    /** snapshot()/restore() of every distinct warmed state. */
    void
    seamTimings(Result &out)
    {
        double snap = 0, restore = 0, bytes = 0;
        int n = 0;
        bool ok = true;
        for (std::size_t i = 0; i < fileGrid_.size(); ++i) {
            if (i % kPerTrace > 1)
                continue; // lat>0 points share the lat=0 warmed state
            const sweep::GridPoint &g = fileGrid_[i];
            SimSession a(g.config, g.traces, g.budget);
            a.build();
            a.warmup();
            MemorySink sink;
            {
                SpanScope sp("session.snapshot", static_cast<int>(i));
                const std::int64_t t0 = nowNs();
                a.snapshot(sink);
                snap += secondsSince(t0);
            }
            SimSession b(g.config, g.traces, g.budget);
            b.build();
            MemorySource src(sink.bytes);
            {
                SpanScope sp("session.restore", static_cast<int>(i));
                const std::int64_t t0 = nowNs();
                ok = b.restore(src) && ok;
                restore += secondsSince(t0);
            }
            bytes += static_cast<double>(sink.bytes.size());
            ++n;
        }
        out.layers["session.snapshot_s"] = snap / n;
        out.layers["session.restore_s"] = restore / n;
        out.layers["session.ckpt_bytes"] = bytes / n;
        out.check("snapshot_restore_round_trip", ok);
    }

    const Options &opt_;
    SimBudget budget_;
    std::string dir_;
    std::vector<TraceSpec> synthetic_;
    std::vector<TraceSpec> files_;
    std::vector<sweep::GridPoint> fileGrid_;
    /** Per-pass check name -> (failed, total) repetitions. */
    std::map<std::string, std::pair<int, int>> passChecks_;
    bool journalsIdentical_ = false;
    double writeS_ = 0;
    double hitFrac_ = 0;
    double restoredFrac_ = 0;
};

// ---------------------------------------------------------------------

/**
 * Returns false when @p r's simulated stats differ from @p first's.
 * A timed repetition's host times are scaled to the nominal host
 * speed by its r.speed.
 */
bool
recordRep(const Rep &r, const Rep &first, bool timed, Result &out)
{
    out.pointsAttempted += r.attempted;
    out.pointsFailed += r.failed;
    if (!timed)
        return r.fps == first.fps;
    const double mips = static_cast<double>(r.instrs) / r.simS / 1e6;
    out.hostSpeed.push_back(r.speed);
    out.mipsRaw.push_back(mips);
    out.mips.push_back(mips / r.speed);
    for (double s : r.pointS)
        out.pointS.push_back(s * r.speed);
    for (const auto &[k, v] : r.passS)
        out.passS[k].push_back(v);
    return r.fps == first.fps;
}

/** Spans recorded since @p mark. */
std::vector<Span>
spansSince(std::size_t mark)
{
    std::vector<Span> all = Tracer::collect();
    return std::vector<Span>(all.begin() + static_cast<long>(mark),
                             all.end());
}

double
meanMs(const std::vector<Span> &spans, const char *name)
{
    double sum = 0;
    int n = 0;
    for (const Span &s : spans)
        if (std::strcmp(s.name, name) == 0) {
            sum += static_cast<double>(s.endNs - s.startNs) * 1e-6;
            ++n;
        }
    return n ? sum / n : 0;
}

void
runBench(const Options &opt, Bench &d, Result &out)
{
    out.threads = d.threads();
    Tracer::setEnabled(opt.trace);
    d.setup();
    const double setup_s = secondsSinceStart(opt);
    Tracer::setEnabled(false);
    // Scaled like the other host times, by a calibration run after
    // the clock stopped.
    out.setupRawS.push_back(setup_s);
    out.setupS.push_back(setup_s * kNominalCalS / calibrate(1));
    if (opt.setupOnly)
        return;

    // One untimed repetition lets lazy allocation and the host's
    // caches settle; it is also the reference every later repetition
    // must reproduce.
    const Rep first = d.rep(false);
    out.pointsAttempted += first.attempted;
    out.pointsFailed += first.failed;
    int reps = 0, differing = 0;
    auto take = [&](const Rep &r, bool timed) {
        ++reps;
        differing += recordRep(r, first, timed, out) ? 0 : 1;
    };
    auto finish = [&] {
        out.check("repetition_identical", differing == 0,
                  std::to_string(differing) + " of " + std::to_string(reps) +
                      " repetitions differ from the reference");
        d.simMetricsOf(first, out);
        d.finalChecks(first, out);
    };

    const std::int64_t start = nowNs();
    if (!opt.trace) {
        double last = 0;
        while (reps < 1 || secondsSince(start) + last <= opt.seconds) {
            const std::int64_t t0 = nowNs();
            take(d.rep(false), true);
            last = secondsSince(t0);
        }
        finish();
        return;
    }

    // Traced run: interleave untraced / spans / spans+profile reps.
    std::vector<double> plain_s, spans_s, prof_s;
    Rep spans_rep, prof_rep;
    std::vector<Span> rep_spans;
    double last = 0;
    while (plain_s.empty() || secondsSince(start) + last <= opt.seconds) {
        const std::int64_t t0 = nowNs();
        Rep p = d.rep(false);
        plain_s.push_back(p.simS);
        out.layers["sweep.parallel_eff"] = p.parallelEff;
        workCounters(p.stats, out);
        take(p, false);

        Tracer::setEnabled(true);
        const std::size_t mark = Tracer::collect().size();
        spans_rep = d.rep(true);
        rep_spans = spansSince(mark);
        spans_s.push_back(spans_rep.simS);

        setenv("HERMES_PROFILE", "1", 1);
        prof_rep = d.rep(true);
        unsetenv("HERMES_PROFILE");
        Tracer::setEnabled(false);
        prof_s.push_back(prof_rep.simS);
        take(spans_rep, false);
        take(prof_rep, false);
        last = secondsSince(t0);
    }
    finish();

    const auto totals = totalSeconds(rep_spans);
    auto total = [&](const char *k) {
        auto it = totals.find(k);
        return it == totals.end() ? 0.0 : it->second;
    };
    out.layers["session.build_s"] = total("session.build");
    out.layers["session.warmup_s"] = total("session.warmup");
    out.layers["session.measure_s"] = total("session.measure");
    out.layers["session.collect_s"] = total("session.collect");
    if (total("pass.cold") > 0) {
        out.layers["result_cache.load_ms"] =
            meanMs(rep_spans, "result_cache.load");
        out.layers["result_cache.store_ms"] =
            meanMs(rep_spans, "result_cache.store");
        out.layers["warmup_cache.load_ms"] =
            meanMs(rep_spans, "warmup_cache.load");
        out.layers["warmup_cache.store_ms"] =
            meanMs(rep_spans, "warmup_cache.store");
        out.layers["journal.append_ms"] =
            meanMs(rep_spans, "journal.append");
    }
    // Cycles and point seconds of the timed (fig_sweep: cold) pass.
    double point_s = 0;
    for (double s : spans_rep.pointS)
        point_s += s;
    profileCounters(spans_rep.stats, point_s, out);
    Result prof;
    profileCounters(prof_rep.stats, 0, prof);
    for (const char *k : {"core.host_s", "l1.host_s", "l2.host_s",
                          "llc.host_s", "dram.host_s", "horizon.host_s"})
        out.layers[k] = prof.layers[k];
    out.layers["tracing.overhead_pct"] =
        (median(spans_s) / median(plain_s) - 1.0) * 100.0;
    out.layers["profile.overhead_pct"] =
        (median(prof_s) / median(spans_s) - 1.0) * 100.0;

    Tracer::setEnabled(true);
    d.layerExtras(out);
    Tracer::setEnabled(false);

    const std::vector<Span> spans = Tracer::collect();
    out.selfS = selfSeconds(spans);
    out.spansPath = opt.workDir + ".spans.jsonl";
    if (!writeSpans(out.spansPath, spans))
        out.spansPath.clear();
}

} // namespace

void
runSingleCore(const Options &opt, Result &out)
{
    SessionBench d(opt, 1, scaled(SimBudget::sweepDefaults(), opt.scale));
    runBench(opt, d, out);
}

void
runEightCore(const Options &opt, Result &out)
{
    SessionBench d(opt, 8, scaled({40'000, 100'000}, opt.scale));
    runBench(opt, d, out);
}

void
runFigSweep(const Options &opt, Result &out)
{
    SweepBench d(opt, scaled(SimBudget::sweepDefaults(), opt.scale));
    runBench(opt, d, out);
}

} // namespace perfbench
