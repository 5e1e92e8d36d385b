#include "cache/replacement.hh"

#include <cassert>

#include "sim/model_registry.hh"

namespace hermes
{

namespace
{

ModelDef
replDef(const char *name, const char *doc,
        std::unique_ptr<ReplacementPolicy> (*make)(std::uint32_t,
                                                   std::uint32_t))
{
    ModelDef d;
    d.name = name;
    d.kind = ModelKind::Replacement;
    d.doc = doc;
    d.counters = replacementCounterKeys();
    d.makeReplacement = [make](const ModelContext &ctx) {
        return make(ctx.sets, ctx.ways);
    };
    return d;
}

const ModelRegistrar lruRegistrar(replDef(
    "lru", "least-recently-used (L1/L2 default)",
    [](std::uint32_t sets,
       std::uint32_t ways) -> std::unique_ptr<ReplacementPolicy> {
        return std::make_unique<LruPolicy>(sets, ways);
    }));

const ModelRegistrar srripRegistrar(replDef(
    "srrip", "static re-reference interval prediction (2-bit RRPV)",
    [](std::uint32_t sets,
       std::uint32_t ways) -> std::unique_ptr<ReplacementPolicy> {
        return std::make_unique<SrripPolicy>(sets, ways);
    }));

const ModelRegistrar shipRegistrar(replDef(
    "ship", "signature-based hit prediction (the paper's LLC policy, "
            "Table 4)",
    [](std::uint32_t sets,
       std::uint32_t ways) -> std::unique_ptr<ReplacementPolicy> {
        return std::make_unique<ShipPolicy>(sets, ways);
    }));

} // namespace

std::unique_ptr<ReplacementPolicy>
makeReplacement(ReplKind kind, std::uint32_t sets, std::uint32_t ways)
{
    assert(sets > 0 && ways > 0);
    // The sealed kinds build through the same registered factories as
    // every other policy name.
    ModelContext ctx;
    ctx.sets = sets;
    ctx.ways = ways;
    return ModelRegistry::instance().makeReplacement(replKindName(kind),
                                                     std::move(ctx));
}

std::optional<ReplKind>
sealedReplKind(const std::string &name)
{
    for (const ReplKind k : {ReplKind::Lru, ReplKind::Srrip, ReplKind::Ship})
        if (name == replKindName(k))
            return k;
    return std::nullopt;
}

const char *
replKindName(ReplKind kind)
{
    switch (kind) {
      case ReplKind::Lru:
        return "lru";
      case ReplKind::Srrip:
        return "srrip";
      case ReplKind::Ship:
        return "ship";
    }
    return "?";
}

} // namespace hermes
