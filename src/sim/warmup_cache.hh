#pragma once

/**
 * @file
 * Content-addressed warmup checkpoint store: a directory holding one
 * serialized warmed machine state per distinct warmup identity, named
 * by SimSession::warmupFingerprint() ("<hex16>.ckpt"). Any run — a
 * hermes_sweep grid point, hermes_run, a bench driver — whose warmup
 * identity matches an entry restores it instead of re-executing the
 * warmup window, so a sweep over post-warmup parameters (e.g.
 * hermes.issue_latency with hermes.warmup_issue=false) pays for warmup
 * exactly once.
 *
 * Entry layout (SimSession::snapshot): "HRMCKPT1" magic, format
 * version, the warmup fingerprint, every component's saveState stream
 * and a trailing FNV-1a checksum.
 *
 * Storage, trust and LRU are the shared ContentStore's
 * (sim/content_store.hh, docs/result-cache.md): load() verifies magic,
 * version, fingerprint and checksum via SimSession::restore(), and a
 * corrupt, truncated or stale entry is unlinked and reported as a
 * miss — the caller re-warms and the store rewrites it cleanly.
 *
 * Deliberately NOT part of the parameter registry, for the same reason
 * as the result cache: registry keys feed fingerprints, so a cache
 * knob there would change the identities it stores under. Addressed by
 * CLI flag (--warmup-cache SPEC) or environment (HERMES_WARMUP_CACHE);
 * see openStore().
 */

#include <cstdint>
#include <string>

#include "sim/content_store.hh"
#include "sim/report.hh"
#include "sim/simulator.hh"

namespace hermes
{

/** Where the store lives and how big it may grow (0 = unbounded). */
using WarmupCacheConfig = StoreSpec;

/** Hit/miss/housekeeping counters for one WarmupCache instance. */
using WarmupCacheStats = StoreStats;

/** The store itself. Thread-safe; one instance per process is enough. */
class WarmupCache
{
  public:
    /** Error-message name and environment variable (openStore()). */
    static constexpr const char *kKind = "warmup cache";
    static constexpr const char *kEnvVar = "HERMES_WARMUP_CACHE";

    /** Opens (mkdir -p) the directory. Throws std::runtime_error. */
    explicit WarmupCache(WarmupCacheConfig cfg)
        : store_(std::move(cfg), ".ckpt", kKind)
    {
    }

    /**
     * Try to restore @p session (built phase) from the entry matching
     * its warmup fingerprint. True on success (session is warmed); a
     * missing entry is a miss and a corrupt/stale entry is unlinked
     * and counts as a miss (session stays built either way).
     */
    bool load(SimSession &session);

    /**
     * Persist @p session's warmed state (warmed phase) under its
     * warmup fingerprint (atomic publish, then eviction past the
     * budget). Already-present identities are skipped (first writer
     * wins; determinism makes them identical).
     */
    void store(SimSession &session);

    /**
     * Block until this caller holds the in-flight claim on warmup
     * identity @p fp (ContentStore::claim), so threads and processes
     * sharing the store warm each identity once and the rest restore
     * its checkpoint. Distinct fingerprints proceed in parallel.
     */
    ContentStore::Claim lockFingerprint(std::uint64_t fp)
    {
        return store_.claim(fp);
    }

    const std::string &dir() const { return store_.dir(); }
    WarmupCacheStats stats() const { return store_.stats(); }

    /** Live count of "*.ckpt" entries (rescans the directory). */
    std::size_t entryCount() const { return store_.entryCount(); }

    /** Entry filename for a warmup fingerprint: "<hex16>.ckpt". */
    static std::string
    entryName(std::uint64_t fp)
    {
        return fingerprintHex(fp) + ".ckpt";
    }

  private:
    ContentStore store_;
};

/**
 * The one driver every caller shares: build @p session, obtain the
 * warmed state — restored from @p cache when possible, else by running
 * warmup (and storing the result) — then measure and return the stats.
 * A null @p cache, or a session with a non-checkpointable component,
 * degrades to the plain build/warmup/measure sequence.
 */
RunStats runSession(SimSession &session, WarmupCache *cache);

} // namespace hermes
