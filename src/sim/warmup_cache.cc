#include "sim/warmup_cache.hh"

#include "trace/trace_io.hh"

namespace hermes
{

bool
WarmupCache::load(SimSession &session)
{
    return store_.load(session.warmupFingerprint(),
                       [&session](const std::string &path) {
                           auto source = openByteSource(path);
                           return session.restore(*source);
                       });
}

void
WarmupCache::store(SimSession &session)
{
    store_.store(session.warmupFingerprint(),
                 [&session](ByteSink &sink) { session.snapshot(sink); });
}

RunStats
runSession(SimSession &session, WarmupCache *cache)
{
    session.build();
    if (cache != nullptr && session.checkpointable()) {
        // Of N threads or processes racing to the same warmed state,
        // one warms and stores, the rest restore.
        auto claim = cache->lockFingerprint(session.warmupFingerprint());
        if (!cache->load(session)) {
            session.warmup();
            cache->store(session);
        }
    } else {
        session.warmup();
    }
    session.measure();
    return session.collect();
}

} // namespace hermes
