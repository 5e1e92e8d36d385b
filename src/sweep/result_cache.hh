#pragma once

/**
 * @file
 * Content-addressed result store: a directory holding one file per
 * completed grid point, named by the point's identity fingerprint
 * (pointFingerprint over label + full registry-rendered config +
 * traces + budget). Any sweep — hermes_sweep, hermes_run, a bench
 * driver, a CI shard — that reaches the same point loads the recorded
 * result instead of simulating, so overlapping figure grids and
 * repeated runs share one warm store.
 *
 * Entry layout ("<hex16>.rec", two journal-format lines):
 *   {"hermes_result_cache":V,"point":"<hex16>"}   <- version + key echo
 *   {"i":0,"label":...,"fp":...,"stats":{...}}    <- journal record
 *
 * V is journalFormatVersion(): a stats-codec bump invalidates cache
 * entries and journals together. The record's grid index is stored as
 * 0 (an entry is grid-independent); load() rewrites it for the caller.
 *
 * Storage, trust and LRU are the shared ContentStore's
 * (sim/content_store.hh, docs/result-cache.md): every load re-derives
 * the record's stats fingerprint (decodeJournalRecord) and re-checks
 * the header / record point fingerprints and label against the key,
 * and an entry that fails is unlinked and reported as a miss.
 *
 * Deliberately NOT part of the parameter registry: registry keys are
 * rendered into every point's fingerprint, so a cache knob there would
 * change point identity and invalidate the store it configures. The
 * cache is addressed by CLI flag (--cache SPEC) or environment
 * (HERMES_RESULT_CACHE) instead; see openStore().
 */

#include <cstdint>
#include <optional>
#include <string>

#include "sim/content_store.hh"
#include "sim/report.hh"
#include "sweep/journal.hh"
#include "sweep/sweep.hh"

namespace hermes::sweep
{

using hermes::ensureDirectory;

/** Where the store lives and how big it may grow (0 = unbounded). */
using ResultCacheConfig = StoreSpec;

/** Hit/miss/housekeeping counters for one ResultCache instance. */
using ResultCacheStats = StoreStats;

/** The store itself. Thread-safe; one instance per process is enough. */
class ResultCache
{
  public:
    /** Error-message name and environment variable (openStore()). */
    static constexpr const char *kKind = "result cache";
    static constexpr const char *kEnvVar = "HERMES_RESULT_CACHE";

    /** Opens (mkdir -p) the directory. Throws std::runtime_error. */
    explicit ResultCache(ResultCacheConfig cfg)
        : store_(std::move(cfg), ".rec", kKind)
    {
    }

    /**
     * Look @p point up. A hit returns the verified result (index 0 —
     * the caller assigns its grid index) and refreshes the entry's LRU
     * clock; a corrupt entry is unlinked and counts as a miss.
     */
    std::optional<PointResult> load(const GridPoint &point);

    /**
     * Persist @p r under @p point's fingerprint (atomic publish, then
     * eviction past the budget). Failed results (!r.ok) and
     * already-present points are skipped.
     */
    void store(const GridPoint &point, const PointResult &r);

    /**
     * The in-flight claim on @p point (ContentStore::tryClaim): empty
     * when another thread or live process is simulating it, or when it
     * is already stored.
     */
    ContentStore::Claim tryClaim(const GridPoint &point)
    {
        return store_.tryClaim(pointFingerprint(point));
    }

    /** Block until @p point's claim is ours (ContentStore::claim). */
    ContentStore::Claim claim(const GridPoint &point)
    {
        return store_.claim(pointFingerprint(point));
    }

    const std::string &dir() const { return store_.dir(); }
    ResultCacheStats stats() const { return store_.stats(); }

    /** Live count of "*.rec" entries (rescans the directory). */
    std::size_t entryCount() const { return store_.entryCount(); }

    /** Entry filename for a point fingerprint: "<hex16>.rec". */
    static std::string
    entryName(std::uint64_t point_fp)
    {
        return fingerprintHex(point_fp) + ".rec";
    }

  private:
    ContentStore store_;
};

} // namespace hermes::sweep
