// Tests for the content-addressed result store: cold/warm determinism
// (a second run simulates nothing and reproduces every byte), thread
// count invariance of journals and dumps, corrupt entry rejection +
// re-simulation, concurrent shards sharing one store, LRU eviction,
// and in-flight claims across processes (forked children sweeping or
// warming against one store). The store primitive, its spec grammar
// and the claim file rules are covered by test_content_store.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <regex>
#include <sstream>
#include <thread>

#include "sim/report.hh"
#include "sim/warmup_cache.hh"
#include "sweep/journal.hh"
#include "sweep/result_cache.hh"
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

/** A (2 configs x 3 traces) grid, small enough for unit tests. */
std::vector<sweep::GridPoint>
smallGrid()
{
    const SimBudget b = tinyBudget();
    SystemConfig nopf = SystemConfig::baseline(1);
    SystemConfig pythia = nopf;
    pythia.prefetcher = "pythia";

    const auto traces = quickSuite();
    std::vector<sweep::GridPoint> grid;
    for (int c = 0; c < 2; ++c) {
        const SystemConfig &cfg = c == 0 ? nopf : pythia;
        for (int t = 0; t < 3; ++t)
            grid.push_back({"cfg" + std::to_string(c) + "." +
                                traces[t].name(),
                            cfg,
                            {traces[t]},
                            b});
    }
    return grid;
}

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "hermes_cache_" + name;
    std::string cmd = "rm -rf '" + dir + "'";
    if (std::system(cmd.c_str()) != 0)
        ADD_FAILURE() << "cannot clear " << dir;
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
spit(const std::string &path, const std::string &text)
{
    std::ofstream out(path, std::ios::binary);
    out << text;
}

/** A forked child and the read end of the pipe it reports through. */
struct Child
{
    pid_t pid = -1;
    int fd = -1;
};

/**
 * Run @p body in a forked child, which writes the returned text to a
 * pipe and exits 0 (or writes the error and exits 1). The child opens
 * its own stores: each process brings its own ContentStore.
 */
Child
spawn(const std::function<std::string()> &body)
{
    int fds[2];
    if (pipe(fds) != 0)
        return {};
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        int code = 0;
        std::string out;
        try {
            out = body();
        } catch (const std::exception &e) {
            out = std::string("error: ") + e.what();
            code = 1;
        }
        if (write(fds[1], out.data(), out.size()) !=
            static_cast<ssize_t>(out.size()))
            code = 1;
        _exit(code);
    }
    close(fds[1]);
    return {pid, fds[0]};
}

/** Read the child's report to EOF and reap it; it must exit 0. */
std::string
reap(const Child &child)
{
    std::string out;
    char buf[256];
    for (ssize_t k; (k = read(child.fd, buf, sizeof buf)) > 0;)
        out.append(buf, static_cast<std::size_t>(k));
    close(child.fd);
    int status = 0;
    EXPECT_EQ(waitpid(child.pid, &status, 0), child.pid);
    EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0) << out;
    return out;
}

/** "simulated cached fingerprint" of one cached sweep over @p grid. */
std::string
sweepReport(const std::string &dir,
            const std::vector<sweep::GridPoint> &grid)
{
    sweep::ResultCache cache({dir, 0, 0});
    sweep::SweepOptions so;
    so.threads = 2;
    sweep::OrchestrateOptions oopts;
    oopts.cache = &cache;
    const auto run = sweep::runJournaled(so, grid, oopts);
    return std::to_string(run.simulated) + " " +
           std::to_string(run.cached) + " " +
           fingerprintHex(sweep::sweepFingerprint(run.results));
}

TEST(ResultCache, StoreLoadRoundTripVerifiesEverything)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);
    sweep::ResultCache cache({tempDir("roundtrip"), 0, 0});

    EXPECT_FALSE(cache.load(grid[0]).has_value());
    EXPECT_EQ(cache.stats().misses, 1u);

    cache.store(grid[0], direct[0]);
    EXPECT_EQ(cache.stats().stores, 1u);
    EXPECT_EQ(cache.entryCount(), 1u);

    const auto hit = cache.load(grid[0]);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(hit->label, grid[0].label);
    EXPECT_TRUE(hit->ok);
    EXPECT_EQ(statsFingerprint(hit->stats),
              statsFingerprint(direct[0].stats));
    // The stored result comes back wholesale, host-perf included.
    EXPECT_EQ(hit->wallSeconds, direct[0].wallSeconds);
    EXPECT_EQ(hit->stats.hostPerf.seconds,
              direct[0].stats.hostPerf.seconds);

    // A point that was never stored misses cleanly.
    EXPECT_FALSE(cache.load(grid[1]).has_value());
    EXPECT_EQ(cache.stats().rejected, 0u);

    // Failed results are never stored.
    sweep::PointResult bad = direct[1];
    bad.ok = false;
    cache.store(grid[1], bad);
    EXPECT_EQ(cache.entryCount(), 1u);
}

TEST(ResultCache, WarmRunSimulatesNothingAndMatchesByteForByte)
{
    const auto grid = smallGrid();
    sweep::ResultCache cache({tempDir("warm"), 0, 0});
    const std::string j1 = ::testing::TempDir() + "cache_warm1.jsonl";
    const std::string j2 = ::testing::TempDir() + "cache_warm2.jsonl";

    sweep::OrchestratedRun cold;
    {
        sweep::JournalWriter w(j1);
        sweep::OrchestrateOptions oopts;
        oopts.journal = &w;
        oopts.cache = &cache;
        cold = sweep::runJournaled({}, grid, oopts);
    }
    EXPECT_TRUE(cold.complete());
    EXPECT_EQ(cold.simulated, grid.size());
    EXPECT_EQ(cold.cached, 0u);
    EXPECT_EQ(cache.entryCount(), grid.size());

    sweep::OrchestratedRun warm;
    {
        sweep::JournalWriter w(j2);
        sweep::OrchestrateOptions oopts;
        oopts.journal = &w;
        oopts.cache = &cache;
        warm = sweep::runJournaled({}, grid, oopts);
    }
    EXPECT_TRUE(warm.complete());
    // The contract under test: the second run simulates ZERO points.
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cached, grid.size());

    // Cached and simulated results merge byte-identically: same CSV
    // (host-perf columns included), same fingerprints, and the two
    // journals are byte-for-byte the same file.
    EXPECT_EQ(sweep::toCsv(warm.results, true),
              sweep::toCsv(cold.results, true));
    EXPECT_EQ(sweep::toJson(warm.results, true),
              sweep::toJson(cold.results, true));
    EXPECT_EQ(sweep::sweepFingerprint(warm.results),
              sweep::sweepFingerprint(cold.results));
    EXPECT_EQ(slurp(j2), slurp(j1));
    std::remove(j1.c_str());
    std::remove(j2.c_str());
}

/** @p journal minus its per-record host timing (wall, host). */
std::string
withoutHostTiming(const std::string &journal)
{
    static const std::regex timing(",\"wall\":[^,]*,\"host\":\\[[^\\]]*\\]");
    return std::regex_replace(journal, timing, "");
}

TEST(ResultCache, JournalsCsvAndFingerprintsIgnoreThreadCount)
{
    // Nothing a sweep writes may depend on its thread count or its
    // completion order: cold runs at 1, 2 and every hardware thread
    // agree on CSV, fingerprints and (host timing aside) journals...
    const auto grid = smallGrid();
    const int wide = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    const std::string tmp = ::testing::TempDir();
    std::string csv;
    std::string journal;
    std::uint64_t fp = 0;
    std::string wide_dir;
    std::string wide_csv; // host columns included
    for (const int threads : {1, 2, wide}) {
        const std::string path =
            tmp + "cache_threads" + std::to_string(threads) + ".jsonl";
        wide_dir = tempDir("threads" + std::to_string(threads));
        sweep::ResultCache cache({wide_dir, 0, 0});
        sweep::SweepOptions eopts;
        eopts.threads = threads;
        sweep::OrchestratedRun run;
        {
            sweep::JournalWriter w(path);
            sweep::OrchestrateOptions oopts;
            oopts.journal = &w;
            oopts.cache = &cache;
            run = sweep::runJournaled(eopts, grid, oopts);
        }
        ASSERT_EQ(run.simulated, grid.size());
        if (threads == 1) {
            csv = sweep::toCsv(run.results);
            journal = withoutHostTiming(slurp(path));
            fp = sweep::sweepFingerprint(run.results);
        }
        EXPECT_EQ(sweep::toCsv(run.results), csv) << threads;
        EXPECT_EQ(withoutHostTiming(slurp(path)), journal) << threads;
        EXPECT_EQ(sweep::sweepFingerprint(run.results), fp) << threads;
        wide_csv = sweep::toCsv(run.results, true);
    }

    // ...and replaying the store the widest run filled reproduces its
    // journal byte for byte, host timing included, at every count.
    const std::string cold = tmp + "cache_threads" +
                             std::to_string(wide) + ".jsonl";
    sweep::ResultCache cache({wide_dir, 0, 0});
    for (const int threads : {1, 2, wide}) {
        const std::string path = tmp + "cache_threads_warm.jsonl";
        sweep::SweepOptions eopts;
        eopts.threads = threads;
        sweep::OrchestratedRun run;
        {
            sweep::JournalWriter w(path);
            sweep::OrchestrateOptions oopts;
            oopts.journal = &w;
            oopts.cache = &cache;
            run = sweep::runJournaled(eopts, grid, oopts);
        }
        EXPECT_EQ(run.cached, grid.size());
        EXPECT_EQ(slurp(path), slurp(cold)) << threads;
        EXPECT_EQ(sweep::toCsv(run.results, true), wide_csv) << threads;
        std::remove(path.c_str());
        std::remove((path + ".bak").c_str());
    }
    for (const int threads : {1, 2, wide})
        std::remove((tmp + "cache_threads" + std::to_string(threads) +
                     ".jsonl")
                        .c_str());
}

TEST(ResultCache, CorruptEntryIsRejectedAndResimulated)
{
    const auto grid = smallGrid();
    const std::string dir = tempDir("corrupt");
    sweep::ResultCache cache({dir, 0, 0});
    sweep::OrchestrateOptions oopts;
    oopts.cache = &cache;
    const auto cold = sweep::runJournaled({}, grid, oopts);

    // Flip a stats digit inside one entry: its recorded fingerprint no
    // longer matches, so the load must reject it rather than serve it.
    const std::string victim =
        dir + "/" +
        sweep::ResultCache::entryName(sweep::pointFingerprint(grid[2]));
    std::string text = slurp(victim);
    ASSERT_FALSE(text.empty());
    const std::size_t cycles = text.find("\"cycles\":");
    ASSERT_NE(cycles, std::string::npos);
    const std::size_t digit = cycles + 9;
    text[digit] = text[digit] == '1' ? '2' : '1';
    spit(victim, text);

    const auto warm = sweep::runJournaled({}, grid, oopts);
    EXPECT_TRUE(warm.complete());
    EXPECT_EQ(warm.cached, grid.size() - 1);
    EXPECT_EQ(warm.simulated, 1u);
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(sweep::sweepFingerprint(warm.results),
              sweep::sweepFingerprint(cold.results));

    // The re-simulation rewrote the entry cleanly.
    ASSERT_TRUE(cache.load(grid[2]).has_value());
    EXPECT_EQ(cache.entryCount(), grid.size());
}

TEST(ResultCache, TruncatedEntryIsRejected)
{
    const auto grid = smallGrid();
    const std::string dir = tempDir("truncated");
    sweep::ResultCache cache({dir, 0, 0});
    cache.store(grid[0], sweep::SweepEngine().run(grid)[0]);

    const std::string path =
        dir + "/" +
        sweep::ResultCache::entryName(sweep::pointFingerprint(grid[0]));
    const std::string text = slurp(path);
    spit(path, text.substr(0, text.size() - 10));

    EXPECT_FALSE(cache.load(grid[0]).has_value());
    EXPECT_EQ(cache.stats().rejected, 1u);
    EXPECT_EQ(cache.entryCount(), 0u); // unlinked, not served
}

TEST(ResultCache, ConcurrentShardsShareOneStore)
{
    // Two writers (shard 1/2 and 2/2 of the same grid) filling one
    // directory concurrently, as two CI shard jobs sharing a cache
    // artifact would. Every point must land; a full follow-up run is
    // then answered entirely from the store.
    const auto grid = smallGrid();
    const std::string dir = tempDir("concurrent");
    sweep::ResultCache cache1({dir, 0, 0});
    sweep::ResultCache cache2({dir, 0, 0});

    std::thread t1([&] {
        sweep::OrchestrateOptions oopts;
        oopts.shard = {1, 2};
        oopts.cache = &cache1;
        sweep::runJournaled({}, grid, oopts);
    });
    std::thread t2([&] {
        sweep::OrchestrateOptions oopts;
        oopts.shard = {2, 2};
        oopts.cache = &cache2;
        sweep::runJournaled({}, grid, oopts);
    });
    t1.join();
    t2.join();
    EXPECT_EQ(cache1.entryCount(), grid.size());

    const auto direct = sweep::SweepEngine().run(grid);
    sweep::ResultCache reader({dir, 0, 0});
    sweep::OrchestrateOptions oopts;
    oopts.cache = &reader;
    const auto warm = sweep::runJournaled({}, grid, oopts);
    EXPECT_TRUE(warm.complete());
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cached, grid.size());
    EXPECT_EQ(sweep::sweepFingerprint(warm.results),
              sweep::sweepFingerprint(direct));
}

TEST(ResultCache, ClaimedPointIsWaitedForThenLoaded)
{
    // While this process holds one point's claim, a child sweeping the
    // grid simulates everything else and then waits. Once the point is
    // published and released, the child loads it instead of
    // simulating it.
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);
    const std::string dir = tempDir("claim_wait");
    sweep::ResultCache cache({dir, 0, 0});
    ContentStore::Claim held = cache.tryClaim(grid[2]);
    ASSERT_TRUE(held);

    const Child child = spawn([&] { return sweepReport(dir, grid); });
    ASSERT_GE(child.pid, 0);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(2);
    while (cache.entryCount() < grid.size() - 1 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    ASSERT_EQ(cache.entryCount(), grid.size() - 1);
    // Every other point is in; the child is still waiting on ours.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    int status = 0;
    EXPECT_EQ(waitpid(child.pid, &status, WNOHANG), 0);

    cache.store(grid[2], direct[2]);
    held.release();
    EXPECT_EQ(reap(child),
              std::to_string(grid.size() - 1) + " 1 " +
                  fingerprintHex(sweep::sweepFingerprint(direct)));
}

TEST(ResultCache, ConcurrentProcessesSimulateEachPointOnce)
{
    // Two processes over overlapping grids (points 0-3 and 2-5) on one
    // store: the shared points run once between them, and each sweep
    // matches its grid swept alone.
    const auto grid = smallGrid();
    const std::vector<sweep::GridPoint> a(grid.begin(), grid.begin() + 4);
    const std::vector<sweep::GridPoint> b(grid.begin() + 2, grid.end());
    const std::string dir = tempDir("claim_overlap");
    const Child ca = spawn([&] { return sweepReport(dir, a); });
    const Child cb = spawn([&] { return sweepReport(dir, b); });
    ASSERT_GE(ca.pid, 0);
    ASSERT_GE(cb.pid, 0);
    std::istringstream ra(reap(ca)), rb(reap(cb));
    std::size_t sim_a = 0, cached_a = 0, sim_b = 0, cached_b = 0;
    std::string fp_a, fp_b;
    ra >> sim_a >> cached_a >> fp_a;
    rb >> sim_b >> cached_b >> fp_b;
    EXPECT_EQ(sim_a + sim_b, grid.size());
    EXPECT_EQ(sim_a + cached_a, a.size());
    EXPECT_EQ(sim_b + cached_b, b.size());
    EXPECT_EQ(fp_a, fingerprintHex(sweep::sweepFingerprint(
                        sweep::SweepEngine().run(a))));
    EXPECT_EQ(fp_b, fingerprintHex(sweep::sweepFingerprint(
                        sweep::SweepEngine().run(b))));
    EXPECT_EQ(sweep::ResultCache({dir, 0, 0}).entryCount(), grid.size());
}

TEST(ResultCache, TwoProcessesWarmOneIdentityOnce)
{
    // The warmup store's claim spans processes: of two children running
    // one warmup identity, one warms and stores, the other restores.
    const sweep::GridPoint p = smallGrid()[0];
    const std::string dir = tempDir("claim_warmup");
    auto warm = [&] {
        WarmupCache cache({dir, 0, 0});
        SimSession session(p.config, p.traces, p.budget);
        const RunStats stats = runSession(session, &cache);
        return std::to_string(cache.stats().stores) + " " +
               fingerprintHex(statsFingerprint(stats));
    };
    const Child c1 = spawn(warm);
    const Child c2 = spawn(warm);
    ASSERT_GE(c1.pid, 0);
    ASSERT_GE(c2.pid, 0);
    std::istringstream r1(reap(c1)), r2(reap(c2));
    std::size_t stores1 = 0, stores2 = 0;
    std::string fp1, fp2;
    r1 >> stores1 >> fp1;
    r2 >> stores2 >> fp2;
    EXPECT_EQ(stores1 + stores2, 1u);
    EXPECT_EQ(fp1, fp2);
    EXPECT_EQ(fp1, fingerprintHex(statsFingerprint(
                       sweep::simulatePoint(p, nullptr))));
}

TEST(ResultCache, OverlappingGridsShareEntries)
{
    // A different grid containing some of the same points hits the
    // store for exactly the shared ones — content addressing, not
    // per-sweep caching.
    const auto grid = smallGrid();
    sweep::ResultCache cache({tempDir("overlap"), 0, 0});
    sweep::OrchestrateOptions oopts;
    oopts.cache = &cache;
    sweep::runJournaled({}, grid, oopts);

    std::vector<sweep::GridPoint> other(grid.begin() + 2,
                                        grid.begin() + 5);
    const auto run = sweep::runJournaled({}, other, oopts);
    EXPECT_TRUE(run.complete());
    EXPECT_EQ(run.cached, other.size());
    EXPECT_EQ(run.simulated, 0u);
}

TEST(ResultCache, LruEvictionDropsTheColdestEntry)
{
    const auto grid = smallGrid();
    const auto direct = sweep::SweepEngine().run(grid);
    sweep::ResultCache cache({tempDir("lru"), 0, 2});

    // Stores 10ms apart so the mtime LRU clock orders them even on a
    // coarse-timestamp filesystem.
    cache.store(grid[0], direct[0]);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cache.store(grid[1], direct[1]);
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cache.store(grid[2], direct[2]);

    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_EQ(cache.stats().evicted, 1u);
    EXPECT_FALSE(cache.load(grid[0]).has_value()); // the coldest
    EXPECT_TRUE(cache.load(grid[1]).has_value());
    EXPECT_TRUE(cache.load(grid[2]).has_value());

    // A hit refreshes the clock: touch grid[1], store another entry,
    // and grid[2] (now the coldest) is the one evicted.
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    ASSERT_TRUE(cache.load(grid[1]).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    cache.store(grid[3], direct[3]);
    EXPECT_EQ(cache.entryCount(), 2u);
    EXPECT_TRUE(cache.load(grid[1]).has_value());
    EXPECT_TRUE(cache.load(grid[3]).has_value());
    EXPECT_FALSE(cache.load(grid[2]).has_value());
}

TEST(ResultCache, ResumedRecordsMigrateIntoTheStore)
{
    // A journal-only sweep followed by a resume WITH a cache seeds the
    // store from the journal — existing journals warm new caches.
    const auto grid = smallGrid();
    const std::string path =
        ::testing::TempDir() + "cache_migrate.jsonl";
    {
        sweep::JournalWriter w(path);
        sweep::OrchestrateOptions oopts;
        oopts.journal = &w;
        sweep::runJournaled({}, grid, oopts);
    }
    auto segments = sweep::readJournal(path);
    ASSERT_EQ(segments.size(), 1u);

    sweep::ResultCache cache({tempDir("migrate"), 0, 0});
    sweep::OrchestrateOptions oopts;
    oopts.resume = &segments[0];
    oopts.cache = &cache;
    const auto run = sweep::runJournaled({}, grid, oopts);
    EXPECT_EQ(run.resumed, grid.size());
    EXPECT_EQ(run.simulated, 0u);
    EXPECT_EQ(cache.entryCount(), grid.size());
    std::remove(path.c_str());
}

} // namespace
} // namespace hermes
