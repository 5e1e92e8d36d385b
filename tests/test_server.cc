// Tests for the sweep job server: spec round trips (content identity
// is shared between client and server), submit/wait/result over the
// socket, cache-backed answers without simulation, and restart
// resumption from the persisted queue journal.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "sim/report.hh"
#include "sim/simulator.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"
#include "sweep/server.hh"
#include "sweep/sweep.hh"

namespace hermes
{
namespace
{

SimBudget
tinyBudget()
{
    SimBudget b;
    b.warmupInstrs = 1'000;
    b.simInstrs = 4'000;
    return b;
}

sweep::GridPoint
singlePoint(int trace_index, Cycle llc_latency = 0)
{
    const auto traces = quickSuite();
    sweep::GridPoint p;
    p.label = traces[static_cast<std::size_t>(trace_index)].name();
    p.config = SystemConfig::baseline(1);
    if (llc_latency != 0)
        p.config.llcLatency = llc_latency;
    p.traces = {traces[static_cast<std::size_t>(trace_index)]};
    p.budget = tinyBudget();
    return p;
}

sweep::GridPoint
mixPoint()
{
    const auto traces = quickSuite();
    sweep::GridPoint p;
    p.label = "mix0." + traces[0].name() + "+" + traces[1].name();
    p.config = SystemConfig::baseline(2);
    p.traces = {traces[0], traces[1]};
    p.budget = tinyBudget();
    return p;
}

/** Short unique paths: sun_path caps unix socket names at ~107 chars. */
std::string
tempDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "hermes_srv_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "cannot clear " << dir;
    return dir;
}

TEST(ServerSpec, RoundTripPreservesPointIdentity)
{
    for (const sweep::GridPoint &p :
         {singlePoint(0), singlePoint(1, 50), mixPoint()}) {
        const std::string spec = sweep::specFromPoint(p);
        const sweep::GridPoint back = sweep::pointFromSpec(spec);
        EXPECT_EQ(back.label, p.label);
        EXPECT_EQ(back.traces.size(), p.traces.size());
        EXPECT_EQ(sweep::pointFingerprint(back),
                  sweep::pointFingerprint(p))
            << spec;
    }
}

TEST(ServerSpec, ExplicitEmptyLabelRoundTrips)
{
    sweep::GridPoint p = singlePoint(0);
    p.label = "";
    const sweep::GridPoint back =
        sweep::pointFromSpec(sweep::specFromPoint(p));
    EXPECT_EQ(back.label, "");
    EXPECT_EQ(sweep::pointFingerprint(back),
              sweep::pointFingerprint(p));
}

TEST(ServerSpec, DefaultLabelIsTheJoinedTraceNames)
{
    const auto traces = quickSuite();
    const sweep::GridPoint p = sweep::pointFromSpec(
        "trace=" + traces[0].name() + "," + traces[1].name());
    EXPECT_EQ(p.label, traces[0].name() + "+" + traces[1].name());
    // A mix implies its core count when system.cores is not pinned.
    EXPECT_EQ(p.config.numCores, 2);
    EXPECT_EQ(p.traces.size(), 2u);
}

TEST(ServerSpec, SingleTraceReplicatesAcrossPinnedCores)
{
    const auto traces = quickSuite();
    const sweep::GridPoint p = sweep::pointFromSpec(
        "trace=" + traces[0].name() + ";system.cores=2");
    EXPECT_EQ(p.config.numCores, 2);
    ASSERT_EQ(p.traces.size(), 2u);
    EXPECT_EQ(p.traces[0].name(), p.traces[1].name());
}

TEST(ServerSpec, MalformedSpecsAreRejected)
{
    EXPECT_THROW(sweep::pointFromSpec(""), std::invalid_argument);
    EXPECT_THROW(sweep::pointFromSpec("label=x"),
                 std::invalid_argument); // no trace
    EXPECT_THROW(sweep::pointFromSpec("trace=no.such.trace"),
                 std::invalid_argument);
    EXPECT_THROW(sweep::pointFromSpec("trace"), std::invalid_argument);
    EXPECT_THROW(
        sweep::pointFromSpec("trace=" + quickSuite()[0].name() +
                             ";warmup=x"),
        std::invalid_argument);
    // Un-carriable labels are refused at render time, not mangled.
    sweep::GridPoint p = singlePoint(0);
    p.label = "a;b";
    EXPECT_THROW(sweep::specFromPoint(p), std::invalid_argument);
}

TEST(Server, SubmitWaitResultMatchesDirectSimulation)
{
    const std::string dir = tempDir("swr");
    sweep::ensureDirectory(dir);
    sweep::ResultCache cache({dir + "/cache", 0, 0});
    sweep::ServeOptions opts;
    opts.socketPath = dir + "/s.sock";
    opts.stateDir = dir + "/state";
    opts.workers = 2;
    opts.cache = &cache;
    sweep::SweepServer server(opts);
    server.start();

    EXPECT_EQ(sweep::serverRequest(opts.socketPath, "ping"),
              "ok pong");

    const sweep::GridPoint p = singlePoint(0);
    const std::string fp =
        fingerprintHex(sweep::pointFingerprint(p));
    const std::string sub = sweep::serverRequest(
        opts.socketPath, "submit " + sweep::specFromPoint(p));
    ASSERT_EQ(sub.compare(0, 3, "ok "), 0) << sub;
    // The server derives the same fingerprint from the spec.
    EXPECT_EQ(sub.substr(3, 16), fp) << sub;

    EXPECT_EQ(sweep::serverRequest(opts.socketPath, "wait " + fp),
              "ok " + fp + " done");
    const std::string res =
        sweep::serverRequest(opts.socketPath, "result " + fp);
    ASSERT_EQ(res.compare(0, 3, "ok "), 0) << res;
    const sweep::JournalRecord rec =
        sweep::decodeJournalRecord(res.substr(3));
    EXPECT_EQ(rec.result.label, p.label);

    const RunStats direct =
        simulate(p.config, {p.traces[0]}, p.budget);
    EXPECT_EQ(statsFingerprint(rec.result.stats),
              statsFingerprint(direct));

    // Duplicate submission dedups onto the completed job.
    EXPECT_EQ(sweep::serverRequest(opts.socketPath,
                                   "submit " +
                                       sweep::specFromPoint(p)),
              "ok " + fp + " done");
    // Unknown requests and bad job ids answer, not disconnect.
    EXPECT_EQ(sweep::serverRequest(opts.socketPath, "poll xyz")
                  .compare(0, 6, "error "),
              0);
    EXPECT_EQ(sweep::serverRequest(opts.socketPath, "frobnicate")
                  .compare(0, 6, "error "),
              0);
    server.stop();
}

TEST(Server, CacheBackedSubmitNeedsNoWorkers)
{
    // A server with ZERO workers can still answer any point its cache
    // holds — proof submissions are resolved by content, not queued
    // blindly.
    const std::string dir = tempDir("warm");
    sweep::ensureDirectory(dir);
    sweep::ResultCache cache({dir + "/cache", 0, 0});
    const sweep::GridPoint p = singlePoint(1);
    sweep::PointResult r;
    r.index = 0;
    r.label = p.label;
    r.stats = simulate(p.config, {p.traces[0]}, p.budget);
    cache.store(p, r);

    sweep::ServeOptions opts;
    opts.socketPath = dir + "/s.sock";
    opts.stateDir = dir + "/state";
    opts.workers = 0;
    opts.cache = &cache;
    sweep::SweepServer server(opts);
    server.start();
    const std::string fp =
        fingerprintHex(sweep::pointFingerprint(p));
    EXPECT_EQ(sweep::serverRequest(opts.socketPath,
                                   "submit " +
                                       sweep::specFromPoint(p)),
              "ok " + fp + " done");
    EXPECT_EQ(server.statsSnapshot().cacheHits, 1u);
    EXPECT_EQ(server.pending(), 0u);
    server.stop();
}

TEST(Server, RestartResumesAcknowledgedSubmissions)
{
    const std::string dir = tempDir("restart");
    sweep::ensureDirectory(dir);
    sweep::ResultCache cache({dir + "/cache", 0, 0});
    sweep::ServeOptions opts;
    opts.socketPath = dir + "/s.sock";
    opts.stateDir = dir + "/state";
    opts.cache = &cache;

    const sweep::GridPoint p1 = singlePoint(0);
    const sweep::GridPoint p2 = singlePoint(2);
    const std::string fp1 =
        fingerprintHex(sweep::pointFingerprint(p1));
    const std::string fp2 =
        fingerprintHex(sweep::pointFingerprint(p2));

    // Server A acknowledges two submissions but (0 workers) never
    // simulates them — then dies.
    {
        opts.workers = 0;
        sweep::SweepServer a(opts);
        a.start();
        sweep::serverRequest(opts.socketPath,
                             "submit " + sweep::specFromPoint(p1));
        sweep::serverRequest(opts.socketPath,
                             "submit " + sweep::specFromPoint(p2));
        EXPECT_EQ(a.pending(), 2u);
        a.stop();
    }

    // Server B restores both from queue.log and completes them.
    {
        opts.workers = 2;
        sweep::SweepServer b(opts);
        EXPECT_EQ(b.statsSnapshot().restored, 2u);
        EXPECT_EQ(b.pending(), 2u);
        b.start();
        EXPECT_EQ(sweep::serverRequest(opts.socketPath, "wait " + fp1),
                  "ok " + fp1 + " done");
        EXPECT_EQ(sweep::serverRequest(opts.socketPath, "wait " + fp2),
                  "ok " + fp2 + " done");
        const RunStats direct =
            simulate(p1.config, {p1.traces[0]}, p1.budget);
        const std::string res = sweep::serverRequest(
            opts.socketPath, "result " + fp1);
        ASSERT_EQ(res.compare(0, 3, "ok "), 0) << res;
        EXPECT_EQ(statsFingerprint(
                      sweep::decodeJournalRecord(res.substr(3))
                          .result.stats),
                  statsFingerprint(direct));
        b.stop();
    }

    // Server C finds nothing left to restore: both specs resolve from
    // the result cache, and a poll still answers from the store even
    // though the compacted queue forgot the job.
    {
        opts.workers = 0;
        sweep::SweepServer c(opts);
        EXPECT_EQ(c.statsSnapshot().restored, 0u);
        EXPECT_EQ(c.statsSnapshot().cacheHits, 2u);
        EXPECT_EQ(c.pending(), 0u);
        c.start();
        EXPECT_EQ(sweep::serverRequest(opts.socketPath, "poll " + fp1),
                  "ok " + fp1 + " done");
        c.stop();
    }
}

TEST(Server, TornQueueTailIsToleratedEarlierCorruptionIsNot)
{
    const std::string dir = tempDir("torn");
    sweep::ensureDirectory(dir);
    sweep::ResultCache cache({dir + "/cache", 0, 0});
    sweep::ServeOptions opts;
    opts.socketPath = dir + "/s.sock";
    opts.stateDir = dir + "/state";
    opts.workers = 0;
    opts.cache = &cache;

    const sweep::GridPoint p = singlePoint(0);
    {
        sweep::SweepServer a(opts);
        a.start();
        sweep::serverRequest(opts.socketPath,
                             "submit " + sweep::specFromPoint(p));
        a.stop();
    }
    const std::string queue = opts.stateDir + "/queue.log";

    // A torn final line (kill mid-append, before the ack) is dropped.
    {
        std::ofstream out(queue, std::ios::app | std::ios::binary);
        out << "0123456789abcdef label=half-writ";
    }
    {
        sweep::SweepServer b(opts);
        EXPECT_EQ(b.statsSnapshot().restored, 1u);
    }

    // A corrupt line with acknowledged lines after it is a hard error:
    // silently dropping it would lose a submission a client saw acked.
    std::ifstream in(queue, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    in.close();
    {
        std::ofstream out(queue, std::ios::binary);
        out << "not a valid line\n" << buf.str();
    }
    EXPECT_THROW(sweep::SweepServer c(opts), std::runtime_error);
}

TEST(Server, ShutdownRequestReleasesWaitForShutdown)
{
    const std::string dir = tempDir("bye");
    sweep::ensureDirectory(dir);
    sweep::ResultCache cache({dir + "/cache", 0, 0});
    sweep::ServeOptions opts;
    opts.socketPath = dir + "/s.sock";
    opts.stateDir = dir + "/state";
    opts.workers = 0;
    opts.cache = &cache;
    sweep::SweepServer server(opts);
    server.start();

    std::thread waiter([&] { server.waitForShutdown(); });
    EXPECT_EQ(sweep::serverRequest(opts.socketPath, "shutdown"),
              "ok bye");
    waiter.join();
    server.stop();

    // The socket file is gone; a second server can reuse the address.
    sweep::SweepServer again(opts);
    again.start();
    EXPECT_EQ(sweep::serverRequest(opts.socketPath, "ping"),
              "ok pong");
    again.stop();
}

TEST(Server, RequiresACache)
{
    sweep::ServeOptions opts;
    opts.socketPath = "/tmp/x.sock";
    opts.stateDir = "/tmp/x.state";
    opts.cache = nullptr;
    EXPECT_THROW(sweep::SweepServer s(opts), std::runtime_error);
}

} // namespace
} // namespace hermes
