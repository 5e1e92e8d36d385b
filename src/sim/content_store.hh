#pragma once

/**
 * @file
 * The content-addressed store under both typed caches (the result
 * cache and the warmup checkpoint cache): a directory mapping a 64-bit
 * key to one file "<hex16><suffix>". The typed caches own only their
 * entry bytes; this owns the shared contract (docs/result-cache.md):
 * the DIR[,max_bytes=SIZE][,max_entries=N] spec, first-writer-wins
 * atomic publish through trace_io's sink, verify-or-unlink loads, and
 * mtime LRU eviction. Verify callbacks and publishes run outside the
 * lock, which guards only the counters and eviction.
 */

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <string>

namespace hermes
{

class ByteSink;

/** Where a store lives and how big it may grow (0 = unbounded). */
struct StoreSpec
{
    std::string dir;
    std::uint64_t maxBytes = 0;
    std::uint64_t maxEntries = 0;
};

/**
 * Parse "DIR[,max_bytes=SIZE][,max_entries=N]" (SIZE takes K/M/G
 * suffixes); @p kind names the store in errors. Throws
 * std::invalid_argument on malformed specs.
 */
StoreSpec parseStoreSpec(const std::string &spec, const std::string &kind);

/** mkdir -p. Throws std::runtime_error when a component can't be made. */
void ensureDirectory(const std::string &path);

/** Hit/miss/housekeeping counters for one store instance. */
struct StoreStats
{
    std::size_t hits = 0;
    std::size_t misses = 0;
    /** Entries written (stores of already-present keys are free). */
    std::size_t stores = 0;
    /** Entries that failed verification and were unlinked. */
    std::size_t rejected = 0;
    std::size_t evicted = 0;
};

class ContentStore
{
  public:
    /** Reads and checks the entry at a path; false or a throw rejects. */
    using Verify = std::function<bool(const std::string &path)>;
    /** Streams an entry's bytes. */
    using Write = std::function<void(ByteSink &)>;

    /** Opens (mkdir -p) the directory. Throws std::runtime_error. */
    ContentStore(StoreSpec spec, std::string suffix, std::string kind);

    ContentStore(const ContentStore &) = delete;
    ContentStore &operator=(const ContentStore &) = delete;

    /**
     * A present entry that passes @p verify is a hit and refreshes its
     * LRU clock; one that fails is unlinked, rejected and a miss.
     */
    bool load(std::uint64_t key, const Verify &verify);

    /** Publish @p key unless present, then evict past the budget. */
    void store(std::uint64_t key, const Write &write);

    std::string entryPath(std::uint64_t key) const;

    /** Live count of entries (rescans the directory). */
    std::size_t entryCount() const;

    const std::string &dir() const { return spec_.dir; }
    StoreStats stats() const;

    /** Throw std::runtime_error("<kind>: <what>"). */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    void evictToBudgetLocked();

    const StoreSpec spec_;
    const std::string suffix_;
    const std::string kind_;
    mutable std::mutex mutex_;
    StoreStats stats_;
};

/**
 * The CLI rule for opening a typed store: the flag's @p spec, else
 * Store::kEnvVar unless @p disabled (--no-cache, --no-warmup-cache);
 * nullptr when neither names one.
 */
template <class Store>
std::unique_ptr<Store>
openStore(std::string spec, bool disabled)
{
    if (spec.empty() && !disabled)
        if (const char *env = std::getenv(Store::kEnvVar))
            spec = env;
    if (spec.empty())
        return nullptr;
    return std::make_unique<Store>(parseStoreSpec(spec, Store::kKind));
}

} // namespace hermes
