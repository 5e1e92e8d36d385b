#include "sim/content_store.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <dirent.h>
#include <fcntl.h>
#include <stdexcept>
#include <sys/stat.h>
#include <thread>
#include <tuple>
#include <unistd.h>
#include <utility>
#include <vector>

#include "common/config.hh"
#include "sim/report.hh"
#include "trace/trace_io.hh"

namespace hermes
{

namespace
{

struct EntryInfo
{
    std::string name;
    std::uint64_t bytes = 0;
    /** mtime in nanoseconds — the LRU clock (hits touch it). */
    std::int64_t mtimeNs = 0;
};

std::vector<EntryInfo>
scanEntries(const ContentStore &store, const std::string &suffix)
{
    std::vector<EntryInfo> out;
    DIR *d = opendir(store.dir().c_str());
    if (d == nullptr)
        store.fail("cannot scan " + store.dir() + ": " +
                   std::strerror(errno));
    while (const dirent *e = readdir(d)) {
        const std::string name = e->d_name;
        // Entries are exactly "<hex16><suffix>"; tmp files and
        // strangers are invisible to the budget and never evicted.
        if (name.size() != 16 + suffix.size() ||
            name.compare(16, suffix.size(), suffix) != 0)
            continue;
        struct stat st = {};
        if (stat((store.dir() + "/" + name).c_str(), &st) != 0)
            continue;
        EntryInfo info;
        info.name = name;
        info.bytes = static_cast<std::uint64_t>(st.st_size);
        info.mtimeNs =
            static_cast<std::int64_t>(st.st_mtim.tv_sec) * 1000000000 +
            st.st_mtim.tv_nsec;
        out.push_back(std::move(info));
    }
    closedir(d);
    return out;
}

/** How often a waiter re-checks a claim another process holds. */
constexpr auto kClaimPoll = std::chrono::milliseconds(10);

std::string
claimPath(const ContentStore &store, std::uint64_t key)
{
    return store.entryPath(key) + ".claim";
}

/**
 * Called after link() found @p path taken: true when the caller should
 * retry, i.e. the claim vanished or was stale and is now unlinked. A
 * claim is stale when its pid is gone (kill reports ESRCH) or when it
 * does not parse; claims are single-host, so pids name processes.
 */
bool
breakStaleClaim(const std::string &path)
{
    const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0)
        return errno == ENOENT;
    char buf[24] = {};
    const ssize_t n = read(fd, buf, sizeof buf);
    close(fd);
    long pid = 0;
    bool parsed = n >= 2 && buf[n - 1] == '\n';
    for (ssize_t i = 0; parsed && i + 1 < n; ++i) {
        parsed = buf[i] >= '0' && buf[i] <= '9' && pid < 100000000;
        pid = pid * 10 + (buf[i] - '0');
    }
    if (parsed && pid > 0 &&
        !(kill(static_cast<pid_t>(pid), 0) != 0 && errno == ESRCH))
        return false;
    static_cast<void>(unlink(path.c_str()));
    return true;
}

} // namespace

StoreSpec
parseStoreSpec(const std::string &spec, const std::string &kind)
{
    StoreSpec cfg;
    std::size_t pos = spec.find(',');
    cfg.dir = spec.substr(0, pos);
    if (cfg.dir.empty())
        throw std::invalid_argument(
            kind + " spec wants \"DIR[,max_bytes=SIZE][,max_entries=N]\"; "
                   "got '" +
            spec + "'");
    while (pos != std::string::npos) {
        const std::size_t next = spec.find(',', pos + 1);
        const std::string part = spec.substr(pos + 1, next - pos - 1);
        pos = next;
        const std::size_t eq = part.find('=');
        const std::string key = part.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : part.substr(eq + 1);
        const bool bytes = key == "max_bytes";
        if (!bytes && key != "max_entries")
            throw std::invalid_argument(
                "unknown " + kind + " option '" + key +
                "' (want max_bytes or max_entries)");
        const auto v = bytes ? parseSizeBytes(value) : parseUint64(value);
        if (!v || *v == 0)
            throw std::invalid_argument(
                kind + " " + key +
                (bytes ? " wants a positive size (K/M/G suffixes allowed)"
                       : " wants a positive integer") +
                "; got '" + value + "'");
        (bytes ? cfg.maxBytes : cfg.maxEntries) = *v;
    }
    return cfg;
}

void
ensureDirectory(const std::string &path)
{
    std::size_t pos = 0;
    while (pos <= path.size()) {
        std::size_t next = path.find('/', pos);
        if (next == std::string::npos)
            next = path.size();
        const std::string partial = path.substr(0, next);
        pos = next + 1;
        if (partial.empty() || partial == ".")
            continue;
        if (mkdir(partial.c_str(), 0777) != 0 && errno != EEXIST)
            throw std::runtime_error("cannot create directory " +
                                     partial + ": " +
                                     std::strerror(errno));
    }
}

ContentStore::ContentStore(StoreSpec spec, std::string suffix,
                           std::string kind)
    : spec_(std::move(spec)), suffix_(std::move(suffix)),
      kind_(std::move(kind))
{
    if (spec_.dir.empty())
        fail("empty cache directory");
    ensureDirectory(spec_.dir);
    struct stat st = {};
    if (stat(spec_.dir.c_str(), &st) != 0 || !S_ISDIR(st.st_mode))
        fail(spec_.dir + " is not a directory");
}

void
ContentStore::fail(const std::string &what) const
{
    throw std::runtime_error(kind_ + ": " + what);
}

std::string
ContentStore::entryPath(std::uint64_t key) const
{
    return spec_.dir + "/" + fingerprintHex(key) + suffix_;
}

bool
ContentStore::load(std::uint64_t key, const Verify &verify)
{
    const std::string path = entryPath(key);
    const bool present = access(path.c_str(), F_OK) == 0;
    bool ok = false;
    if (present) {
        try {
            ok = verify(path);
        } catch (const std::exception &) {
            ok = false;
        }
        // A hit refreshes the LRU clock. A doubtful entry is never
        // served, and since publish is first-writer-wins it must go
        // away for the caller's clean rewrite to land.
        if (ok)
            static_cast<void>(
                utimensat(AT_FDCWD, path.c_str(), nullptr, 0));
        else
            static_cast<void>(unlink(path.c_str()));
    }
    std::lock_guard<std::mutex> g(mutex_);
    ++(ok ? stats_.hits : stats_.misses);
    stats_.rejected += present && !ok ? 1 : 0;
    return ok;
}

void
ContentStore::store(std::uint64_t key, const Write &write)
{
    const std::string path = entryPath(key);
    // Content-addressed and deterministic: an existing entry already
    // holds these bytes, so the first writer wins and re-stores (e.g.
    // every resumed point of a warm re-run) cost one access() check.
    if (access(path.c_str(), F_OK) == 0)
        return;
    // Atomic publish through the crash-safe sink. Each writer streams
    // into its own temporary (pid + per-process counter), so racing
    // threads and processes never share one; the last rename wins, and
    // both wrote identical bytes.
    auto sink = openByteSink(path, Compression::None);
    write(*sink);
    sink->finish();
    std::lock_guard<std::mutex> g(mutex_);
    ++stats_.stores;
    evictToBudgetLocked();
}

ContentStore::Claim &
ContentStore::Claim::operator=(Claim &&other) noexcept
{
    if (this != &other) {
        release();
        store_ = std::exchange(other.store_, nullptr);
        key_ = other.key_;
    }
    return *this;
}

void
ContentStore::Claim::release()
{
    if (store_ == nullptr)
        return;
    ContentStore *store = std::exchange(store_, nullptr);
    static_cast<void>(unlink(claimPath(*store, key_).c_str()));
    store->unreserve(key_);
}

void
ContentStore::unreserve(std::uint64_t key)
{
    {
        std::lock_guard<std::mutex> g(mutex_);
        held_.erase(key);
    }
    released_.notify_all();
}

bool
ContentStore::claimFile(std::uint64_t key) const
{
    static std::atomic<unsigned> tmp_counter{0};
    const std::string path = claimPath(*this, key);
    const std::string pid = std::to_string(getpid());
    const std::string tmp =
        path + "." + pid + "." + std::to_string(tmp_counter++);
    // Write the pid into a private temp and link(2) it into place, so
    // the claim appears complete or not at all: a reader never sees an
    // empty claim and mistakes it for garbage. Where no claim can be
    // made (no write access, no hard links) the caller runs unclaimed;
    // claims are advisory, so that costs duplicates, never a wrong
    // result.
    const int fd =
        open(tmp.c_str(), O_WRONLY | O_CREAT | O_EXCL | O_CLOEXEC, 0666);
    if (fd < 0)
        return true;
    const std::string text = pid + "\n";
    bool won = write(fd, text.data(), text.size()) !=
               static_cast<ssize_t>(text.size());
    close(fd);
    // A few rounds bound the loop when stale claims keep reappearing;
    // the caller polls again anyway.
    for (int round = 0; !won && round < 3; ++round) {
        if (link(tmp.c_str(), path.c_str()) == 0 || errno != EEXIST)
            won = true;
        else if (!breakStaleClaim(path))
            break;
    }
    static_cast<void>(unlink(tmp.c_str()));
    return won;
}

ContentStore::Claim
ContentStore::acquire(std::uint64_t key, bool wait)
{
    {
        std::unique_lock<std::mutex> g(mutex_);
        if (wait)
            released_.wait(g, [&] { return held_.count(key) == 0; });
        if (!held_.insert(key).second)
            return {};
    }
    while (!claimFile(key)) {
        if (!wait) {
            unreserve(key);
            return {};
        }
        std::this_thread::sleep_for(kClaimPoll);
    }
    Claim c;
    c.store_ = this;
    c.key_ = key;
    return c;
}

ContentStore::Claim
ContentStore::tryClaim(std::uint64_t key)
{
    Claim c = acquire(key, false);
    // Published between the caller's miss and this claim: there is
    // nothing left to produce.
    if (c && access(entryPath(key).c_str(), F_OK) == 0)
        c.release();
    return c;
}

ContentStore::Claim
ContentStore::claim(std::uint64_t key)
{
    return acquire(key, true);
}

std::size_t
ContentStore::entryCount() const
{
    return scanEntries(*this, suffix_).size();
}

StoreStats
ContentStore::stats() const
{
    std::lock_guard<std::mutex> g(mutex_);
    return stats_;
}

void
ContentStore::evictToBudgetLocked()
{
    if (spec_.maxBytes == 0 && spec_.maxEntries == 0)
        return;
    // Rescan instead of tracking incrementally: other processes share
    // the directory, and stores are rare next to simulation work.
    std::vector<EntryInfo> entries = scanEntries(*this, suffix_);
    std::uint64_t bytes = 0;
    for (const EntryInfo &e : entries)
        bytes += e.bytes;
    std::sort(entries.begin(), entries.end(),
              [](const EntryInfo &a, const EntryInfo &b) {
                  return std::tie(a.mtimeNs, a.name) <
                         std::tie(b.mtimeNs, b.name);
              });
    std::size_t count = entries.size();
    std::size_t victim = 0;
    while (victim < entries.size() &&
           ((spec_.maxEntries != 0 && count > spec_.maxEntries) ||
            (spec_.maxBytes != 0 && bytes > spec_.maxBytes))) {
        const EntryInfo &e = entries[victim++];
        if (unlink((spec_.dir + "/" + e.name).c_str()) == 0)
            ++stats_.evicted;
        --count;
        bytes -= e.bytes;
    }
}

} // namespace hermes
