#include "sweep/result_cache.hh"

#include <fstream>
#include <sstream>
#include <stdexcept>

#include "trace/trace_io.hh"

namespace hermes::sweep
{

namespace
{

/** The first line of every entry; byte-compared on load. */
std::string
entryHeader(std::uint64_t point_fp)
{
    return "{\"hermes_result_cache\":" +
           std::to_string(journalFormatVersion()) + ",\"point\":\"" +
           fingerprintHex(point_fp) + "\"}";
}

} // namespace

std::optional<PointResult>
ResultCache::load(const GridPoint &point)
{
    const std::uint64_t point_fp = pointFingerprint(point);
    std::optional<PointResult> out;
    store_.load(point_fp, [&](const std::string &path) {
        std::ifstream in(path, std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        const std::string text = buf.str();
        const std::size_t nl1 = text.find('\n');
        if (nl1 == std::string::npos)
            store_.fail("truncated entry");
        // The header is deterministic given the key, so a flat byte
        // compare checks version and point echo at once.
        if (text.substr(0, nl1) != entryHeader(point_fp))
            store_.fail("version/point header mismatch");
        const std::size_t nl2 = text.find('\n', nl1 + 1);
        if (nl2 == std::string::npos || nl2 + 1 != text.size())
            store_.fail("truncated entry");
        JournalRecord rec =
            decodeJournalRecord(text.substr(nl1 + 1, nl2 - nl1 - 1));
        if (rec.pointFp != point_fp)
            store_.fail("record point fingerprint mismatch");
        if (rec.result.label != point.label)
            store_.fail("label mismatch");
        rec.result.index = 0;
        rec.result.ok = true;
        out = std::move(rec.result);
        return true;
    });
    return out;
}

void
ResultCache::store(const GridPoint &point, const PointResult &r)
{
    if (!r.ok)
        return;
    if (r.label != point.label)
        store_.fail("store: result label '" + r.label +
                    "' does not match point '" + point.label + "'");
    const std::uint64_t point_fp = pointFingerprint(point);
    store_.store(point_fp, [&](ByteSink &sink) {
        JournalRecord rec;
        rec.index = 0;
        rec.pointFp = point_fp;
        rec.result = r;
        rec.result.index = 0;
        const std::string text = entryHeader(point_fp) + "\n" +
                                 encodeJournalRecord(rec) + "\n";
        sink.write(text.data(), text.size());
    });
}

} // namespace hermes::sweep
