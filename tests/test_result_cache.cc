// Tests for the content-addressed result store: cold/warm determinism
// (a second run simulates nothing and reproduces every byte), thread
// count invariance of journals and dumps, corrupt entry rejection +
// re-simulation, concurrent shards sharing one store and LRU
// eviction. The store primitive and its spec grammar are covered by
// test_content_store.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <regex>
#include <sstream>
#include <thread>

#include "sim/report.hh"
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

    // By-fingerprint lookup (the server's restart path) agrees.
    const auto by_fp =
        cache.loadByFp(sweep::pointFingerprint(grid[0]));
    ASSERT_TRUE(by_fp.has_value());
    EXPECT_EQ(statsFingerprint(by_fp->stats),
              statsFingerprint(direct[0].stats));

    // Unknown fingerprints miss cleanly.
    EXPECT_FALSE(cache.loadByFp(0xdeadbeefu).has_value());

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
