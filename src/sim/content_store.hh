#pragma once

/**
 * @file
 * The content-addressed store under both typed caches (the result
 * cache and the warmup checkpoint cache): a directory mapping a 64-bit
 * key to one file "<hex16><suffix>". The typed caches own only their
 * entry bytes; this owns the shared contract (docs/result-cache.md):
 * the DIR[,max_bytes=SIZE][,max_entries=N] spec, first-writer-wins
 * atomic publish through trace_io's sink, verify-or-unlink loads,
 * mtime LRU eviction, and per-key in-flight claims. Verify callbacks,
 * publishes and claim-file I/O run outside the lock, which guards only
 * the counters, eviction and the set of keys this instance holds.
 */

#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
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

    /**
     * The in-flight claim on one key: the file "<entry>.claim" holding
     * the owner's pid, plus this instance's record of the key.
     * Releases on destruction; an empty Claim holds nothing.
     */
    class Claim
    {
      public:
        Claim() = default;
        Claim(Claim &&other) noexcept { *this = std::move(other); }
        Claim &operator=(Claim &&other) noexcept;
        ~Claim() { release(); }

        explicit operator bool() const { return store_ != nullptr; }

        /** Unlink the claim file and wake waiters (idempotent). */
        void release();

      private:
        friend class ContentStore;
        ContentStore *store_ = nullptr;
        std::uint64_t key_ = 0;
    };

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

    /**
     * Claim @p key without blocking. Empty when a thread of this
     * instance or a live process holds it, or when its entry is
     * already published; a stale claim (dead pid, unparsable file) is
     * broken first. Publish, then release: a caller that waits in
     * claim() then finds the entry.
     */
    Claim tryClaim(std::uint64_t key);

    /**
     * Block until @p key's claim is ours: threads of this instance wait
     * on a condition variable, other processes' claims are polled. The
     * entry may have been published meanwhile; load() it before
     * producing it.
     */
    Claim claim(std::uint64_t key);

    std::string entryPath(std::uint64_t key) const;

    /** Live count of entries (rescans the directory). */
    std::size_t entryCount() const;

    const std::string &dir() const { return spec_.dir; }
    StoreStats stats() const;

    /** Throw std::runtime_error("<kind>: <what>"). */
    [[noreturn]] void fail(const std::string &what) const;

  private:
    void evictToBudgetLocked();
    /**
     * Reserve @p key in held_, then create its claim file; with
     * @p wait, wait out this instance's threads and poll other
     * processes' claims instead of giving up.
     */
    Claim acquire(std::uint64_t key, bool wait);
    void unreserve(std::uint64_t key);
    /** Create the claim file, breaking a stale one; false if held. */
    bool claimFile(std::uint64_t key) const;

    const StoreSpec spec_;
    const std::string suffix_;
    const std::string kind_;
    mutable std::mutex mutex_;
    StoreStats stats_;
    /** Keys claimed through this instance; released_ signals erasure. */
    std::set<std::uint64_t> held_;
    std::condition_variable released_;
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
