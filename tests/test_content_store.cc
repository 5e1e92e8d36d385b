// Tests for the content-addressed store under both typed caches, run
// once per entry suffix (".rec" for the result cache, ".ckpt" for the
// warmup checkpoint cache): the spec grammar, first-writer-wins
// publish, LRU eviction by entries and by bytes in mtime-then-name
// order, tmp and stranger files staying invisible, reject-and-unlink of
// entries failing verification, concurrent stores of one key, and the
// per-key in-flight claim (held, released, broken when stale).

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/content_store.hh"
#include "sim/report.hh"
#include "sim/warmup_cache.hh"
#include "sweep/result_cache.hh"
#include "trace/trace_io.hh"

namespace hermes
{
namespace
{

namespace fs = std::filesystem;

struct StoreKind
{
    const char *suffix;
    const char *kind;
};

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

ContentStore::Write
bytes(const std::string &text)
{
    return [text](ByteSink &sink) { sink.write(text.data(), text.size()); };
}

/** Accepts exactly the bytes @p want. */
ContentStore::Verify
holds(const std::string &want)
{
    return [want](const std::string &path) { return slurp(path) == want; };
}

class ContentStoreTest : public ::testing::TestWithParam<StoreKind>
{
  protected:
    void
    SetUp() override
    {
        const auto *info =
            ::testing::UnitTest::GetInstance()->current_test_info();
        std::string name = std::string(info->name());
        for (char &c : name)
            c = c == '/' ? '_' : c;
        dir_ = ::testing::TempDir() + "hermes_store_" + name;
        fs::remove_all(dir_);
    }

    void TearDown() override { fs::remove_all(dir_); }

    ContentStore
    open(std::uint64_t max_bytes = 0, std::uint64_t max_entries = 0)
    {
        return ContentStore({dir_, max_bytes, max_entries},
                            GetParam().suffix, GetParam().kind);
    }

    std::string
    entry(std::uint64_t key) const
    {
        return dir_ + "/" + fingerprintHex(key) + GetParam().suffix;
    }

    /** Pin @p key's LRU clock to @p seconds after the epoch. */
    void
    setMtime(std::uint64_t key, long seconds) const
    {
        const timespec ts[2] = {{seconds, 0}, {seconds, 0}};
        ASSERT_EQ(utimensat(AT_FDCWD, entry(key).c_str(), ts, 0), 0);
    }

    std::string
    claimFile(std::uint64_t key) const
    {
        return entry(key) + ".claim";
    }

    std::string dir_;
};

TEST_P(ContentStoreTest, SpecGrammar)
{
    const std::string kind = GetParam().kind;
    struct Good
    {
        const char *spec;
        const char *dir;
        std::uint64_t maxBytes;
        std::uint64_t maxEntries;
    };
    // Folded in from the result cache's and warmup cache's own parser
    // tests: both caches now share this one grammar.
    const Good good[] = {
        {"/tmp/c", "/tmp/c", 0, 0},
        {"cache,max_bytes=2M,max_entries=100", "cache", 2u << 20, 100},
        {"/tmp/wc", "/tmp/wc", 0, 0},
        {"/tmp/wc,max_bytes=64M,max_entries=9", "/tmp/wc", 64u << 20, 9},
        {"d,max_entries=3", "d", 0, 3},
        {"d,max_bytes=1G", "d", 1ull << 30, 0},
    };
    for (const Good &g : good) {
        const StoreSpec s = parseStoreSpec(g.spec, kind);
        EXPECT_EQ(s.dir, g.dir) << g.spec;
        EXPECT_EQ(s.maxBytes, g.maxBytes) << g.spec;
        EXPECT_EQ(s.maxEntries, g.maxEntries) << g.spec;
    }
    const char *bad[] = {"",
                         ",max_entries=1",
                         "c,max_bytes=0",
                         "c,max_bytes=x",
                         "c,max_entries=-3",
                         "c,bogus=1",
                         "/d,max_bytes=",
                         "/d,bogus=1",
                         "d,max_entries=0"};
    for (const char *spec : bad)
        EXPECT_THROW(parseStoreSpec(spec, kind), std::invalid_argument)
            << spec;

    // Errors name the store they configure, word for word as each
    // cache's own parser worded them.
    const std::pair<const char *, std::string> messages[] = {
        {"", kind + " spec wants \"DIR[,max_bytes=SIZE][,max_entries=N]\"; "
                    "got ''"},
        {"d,max_bytes=x", kind + " max_bytes wants a positive size (K/M/G "
                                 "suffixes allowed); got 'x'"},
        {"d,max_entries=0",
         kind + " max_entries wants a positive integer; got '0'"},
        {"d,bogus=1", "unknown " + kind +
                          " option 'bogus' (want max_bytes or max_entries)"},
    };
    for (const auto &[spec, want] : messages) {
        try {
            parseStoreSpec(spec, kind);
            ADD_FAILURE() << spec;
        } catch (const std::invalid_argument &e) {
            EXPECT_EQ(e.what(), want);
        }
    }

    EXPECT_EQ(sweep::ResultCache::entryName(0xabcdef0123456789ull),
              "abcdef0123456789.rec");
    EXPECT_EQ(WarmupCache::entryName(0xabcdef0123456789ull),
              "abcdef0123456789.ckpt");
}

TEST_P(ContentStoreTest, FirstWriterWinsAndHitsCount)
{
    ContentStore store = open();
    EXPECT_FALSE(store.load(7, holds("seven")));
    store.store(7, bytes("seven"));
    EXPECT_EQ(store.entryPath(7), entry(7));
    // A second store of a present key writes nothing.
    store.store(7, bytes("other"));
    EXPECT_EQ(slurp(entry(7)), "seven");
    EXPECT_TRUE(store.load(7, holds("seven")));

    const StoreStats s = store.stats();
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.rejected, 0u);
    EXPECT_EQ(store.entryCount(), 1u);
}

TEST_P(ContentStoreTest, EvictsByEntriesInMtimeThenNameOrder)
{
    {
        ContentStore fill = open();
        for (std::uint64_t key : {3, 1, 2})
            fill.store(key, bytes("x"));
    }
    // Keys 1 and 2 tie on mtime, so the name breaks the tie; key 3 is
    // the newest.
    setMtime(1, 1000);
    setMtime(2, 1000);
    setMtime(3, 2000);

    ContentStore store = open(0, 2);
    store.store(4, bytes("x"));
    EXPECT_EQ(store.stats().evicted, 2u);
    EXPECT_FALSE(fs::exists(entry(1)));
    EXPECT_FALSE(fs::exists(entry(2)));
    EXPECT_TRUE(fs::exists(entry(3)));
    EXPECT_TRUE(fs::exists(entry(4)));

    // A hit refreshes the clock: make 4 the coldest, touch it, and 3
    // is evicted next.
    setMtime(3, 3000);
    setMtime(4, 1000);
    ASSERT_TRUE(store.load(4, holds("x")));
    store.store(5, bytes("x"));
    EXPECT_FALSE(fs::exists(entry(3)));
    EXPECT_TRUE(fs::exists(entry(4)));
    EXPECT_EQ(store.entryCount(), 2u);
}

TEST_P(ContentStoreTest, EvictsByBytes)
{
    {
        ContentStore fill = open();
        for (std::uint64_t key = 1; key <= 3; ++key)
            fill.store(key, bytes(std::string(100, 'x')));
    }
    for (std::uint64_t key = 1; key <= 3; ++key)
        setMtime(key, 1000 + static_cast<long>(key));

    // 250 bytes hold two 100-byte entries: storing a fourth drops the
    // two oldest.
    ContentStore store = open(250, 0);
    store.store(4, bytes(std::string(100, 'x')));
    EXPECT_EQ(store.stats().evicted, 2u);
    EXPECT_FALSE(fs::exists(entry(1)));
    EXPECT_FALSE(fs::exists(entry(2)));
    EXPECT_TRUE(fs::exists(entry(3)));
    EXPECT_TRUE(fs::exists(entry(4)));
}

TEST_P(ContentStoreTest, TmpAndStrangerFilesAreInvisible)
{
    ContentStore store = open(150, 1);
    const std::string suffix = GetParam().suffix;
    const std::string big(1000, 's');
    const std::vector<std::string> strangers = {
        fingerprintHex(9) + suffix + ".tmp.123.0", // a writer's temp
        "README",
        "abc" + suffix,                            // short name
        fingerprintHex(9) + (suffix == ".rec" ? ".ckpt" : ".rec"),
        fingerprintHex(9) + suffix + "x",
    };
    for (const std::string &name : strangers)
        spit(dir_ + "/" + name, big);

    EXPECT_EQ(store.entryCount(), 0u);
    store.store(1, bytes(std::string(100, 'x')));
    // The strangers' 5000 bytes are not charged to the budget, so the
    // one real entry fits and nothing is evicted.
    EXPECT_EQ(store.stats().evicted, 0u);
    EXPECT_EQ(store.entryCount(), 1u);
    store.store(2, bytes(std::string(100, 'x')));
    EXPECT_EQ(store.stats().evicted, 1u);
    EXPECT_EQ(store.entryCount(), 1u);
    for (const std::string &name : strangers)
        EXPECT_EQ(slurp(dir_ + "/" + name), big) << name;
}

TEST_P(ContentStoreTest, CorruptEntryIsUnlinkedRejectedAndMissed)
{
    ContentStore store = open();
    store.store(1, bytes("good"));
    store.store(2, bytes("good"));
    spit(entry(1), "bad");
    spit(entry(2), "bad");

    // A verify that says no and one that throws are both rejections.
    EXPECT_FALSE(store.load(1, holds("good")));
    EXPECT_FALSE(store.load(2, [](const std::string &) -> bool {
        throw std::runtime_error("garbled");
    }));
    EXPECT_FALSE(fs::exists(entry(1)));
    EXPECT_FALSE(fs::exists(entry(2)));
    StoreStats s = store.stats();
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.misses, 2u);
    EXPECT_EQ(s.hits, 0u);

    // The unlink lets a clean rewrite land.
    store.store(1, bytes("good"));
    EXPECT_TRUE(store.load(1, holds("good")));
    s = store.stats();
    EXPECT_EQ(s.rejected, 2u);
    EXPECT_EQ(s.hits, 1u);
}

TEST_P(ContentStoreTest, ConcurrentStoresOfOneKeyLeaveOneIntactEntry)
{
    ContentStore store = open();
    const std::string payload(1 << 20, 'p');
    std::atomic<int> ready{0};
    auto writer = [&] {
        ++ready;
        while (ready.load() < 2) {
        }
        store.store(42, bytes(payload));
    };
    std::thread a(writer);
    std::thread b(writer);
    a.join();
    b.join();

    EXPECT_EQ(store.entryCount(), 1u);
    EXPECT_EQ(slurp(entry(42)), payload);
    const StoreStats s = store.stats();
    EXPECT_GE(s.stores, 1u);
    EXPECT_LE(s.stores, 2u);
    // Both writers' temporaries are gone.
    std::size_t files = 0;
    for (const auto &e : fs::directory_iterator(dir_)) {
        static_cast<void>(e);
        ++files;
    }
    EXPECT_EQ(files, 1u);
    EXPECT_TRUE(store.load(42, holds(payload)));
}

TEST_P(ContentStoreTest, ClaimIsHeldUntilReleased)
{
    ContentStore store = open();
    ContentStore other = open(); // another holder on the same directory
    ContentStore::Claim held = store.tryClaim(5);
    ASSERT_TRUE(held);
    EXPECT_EQ(slurp(claimFile(5)), std::to_string(getpid()) + "\n");
    // Taken in this instance, and by a live pid for anyone else.
    EXPECT_FALSE(store.tryClaim(5));
    EXPECT_FALSE(other.tryClaim(5));
    EXPECT_TRUE(store.tryClaim(6)); // other keys are independent

    // A thread blocking in claim() wakes once the holder releases.
    std::atomic<bool> got{false};
    std::thread waiter([&] {
        ContentStore::Claim c = store.claim(5);
        got = static_cast<bool>(c);
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    EXPECT_FALSE(got.load());
    store.store(5, bytes("five"));
    held.release();
    waiter.join();
    EXPECT_TRUE(got.load());
    EXPECT_FALSE(fs::exists(claimFile(5)));

    // A published entry leaves nothing to claim.
    EXPECT_FALSE(other.tryClaim(5));
    EXPECT_FALSE(fs::exists(claimFile(5)));
}

TEST_P(ContentStoreTest, ClaimOfAReapedPidIsBroken)
{
    const pid_t child = fork();
    ASSERT_GE(child, 0);
    if (child == 0)
        _exit(0);
    int status = 0;
    ASSERT_EQ(waitpid(child, &status, 0), child);
    ensureDirectory(dir_);
    spit(claimFile(3), std::to_string(child) + "\n");

    ContentStore store = open();
    ContentStore::Claim c = store.tryClaim(3);
    ASSERT_TRUE(c);
    EXPECT_EQ(slurp(claimFile(3)), std::to_string(getpid()) + "\n");
    c.release();
    EXPECT_FALSE(fs::exists(claimFile(3)));
}

TEST_P(ContentStoreTest, GarbageClaimIsBroken)
{
    ensureDirectory(dir_);
    const std::string garbage[] = {"", "\n", "12ab\n", "0\n", "-4\n",
                                   "123", std::string(64, '7') + "\n"};
    ContentStore store = open();
    for (const std::string &text : garbage) {
        spit(claimFile(8), text);
        ContentStore::Claim c = store.tryClaim(8);
        EXPECT_TRUE(c) << '"' << text << '"';
        EXPECT_EQ(slurp(claimFile(8)), std::to_string(getpid()) + "\n");
    }
    // Blocking claims break garbage too.
    spit(claimFile(8), "garbage");
    EXPECT_TRUE(store.claim(8));
}

TEST_P(ContentStoreTest, ClaimFilesAreInvisibleToCountAndEviction)
{
    ContentStore store = open(0, 2);
    std::vector<ContentStore::Claim> claims;
    for (std::uint64_t key = 1; key <= 3; ++key) {
        claims.push_back(store.tryClaim(key));
        ASSERT_TRUE(claims.back());
    }
    EXPECT_EQ(store.entryCount(), 0u);
    store.store(1, bytes("x"));
    store.store(2, bytes("x"));
    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_EQ(store.stats().evicted, 0u);
    setMtime(1, 1000);
    store.store(3, bytes("x"));
    // Only the oldest entry goes; every claim file stays.
    EXPECT_EQ(store.stats().evicted, 1u);
    EXPECT_EQ(store.entryCount(), 2u);
    EXPECT_FALSE(fs::exists(entry(1)));
    for (std::uint64_t key = 1; key <= 3; ++key)
        EXPECT_TRUE(fs::exists(claimFile(key))) << key;
    claims.clear();
    for (std::uint64_t key = 1; key <= 3; ++key)
        EXPECT_FALSE(fs::exists(claimFile(key))) << key;
}

INSTANTIATE_TEST_SUITE_P(
    BothSuffixes, ContentStoreTest,
    ::testing::Values(StoreKind{".rec", sweep::ResultCache::kKind},
                      StoreKind{".ckpt", WarmupCache::kKind}),
    [](const ::testing::TestParamInfo<StoreKind> &info) {
        return std::string(info.param.suffix + 1);
    });

} // namespace
} // namespace hermes
