#include "common/state_io.hh"

#include <algorithm>

#include "trace/trace_io.hh"

namespace hermes
{

StateWriter::StateWriter(ByteSink &sink)
    : sink_(sink), window_(new unsigned char[kStateWindow])
{
}

void
StateWriter::flush()
{
    hash_.addBytes(window_.get(), fill_);
    sink_.write(window_.get(), fill_);
    fill_ = 0;
}

void
StateWriter::bytes(const void *data, std::size_t size)
{
    const auto *p = static_cast<const unsigned char *>(data);
    while (size > 0) {
        if (fill_ == kStateWindow)
            flush();
        const std::size_t n = std::min(size, kStateWindow - fill_);
        std::memcpy(window_.get() + fill_, p, n);
        fill_ += n;
        p += n;
        size -= n;
    }
}

void
StateWriter::sealChecksum()
{
    flush();
    put<8>(hash_.value());
    sink_.write(window_.get(), fill_);
    fill_ = 0;
}

StateReader::StateReader(ByteSource &source)
    : source_(source), window_(new unsigned char[kStateWindow])
{
}

void
StateReader::hashConsumed()
{
    hash_.addBytes(window_.get() + hashed_, pos_ - hashed_);
    hashed_ = pos_;
}

void
StateReader::refill(std::size_t need)
{
    hashConsumed();
    const std::size_t held = end_ - pos_;
    std::memmove(window_.get(), window_.get() + pos_, held);
    pos_ = hashed_ = 0;
    end_ = held;
    while (end_ < need) {
        const std::size_t n =
            source_.read(window_.get() + end_, kStateWindow - end_);
        if (n == 0)
            throw StateError("truncated stream (wanted " +
                             std::to_string(need) + " bytes, got " +
                             std::to_string(end_) + ")");
        end_ += n;
    }
}

void
StateReader::bytes(void *data, std::size_t size)
{
    auto *p = static_cast<unsigned char *>(data);
    while (size > 0) {
        if (pos_ == end_)
            refill(1);
        const std::size_t n = std::min(size, end_ - pos_);
        std::memcpy(p, window_.get() + pos_, n);
        pos_ += n;
        p += n;
        size -= n;
    }
}

std::string
StateReader::str(std::size_t max_size)
{
    const std::size_t n = count(max_size);
    std::string s(n, '\0');
    bytes(s.data(), n);
    return s;
}

void
StateReader::section(const char *tag)
{
    const std::string got = str(64);
    if (got != tag)
        throw StateError("expected section '" + std::string(tag) +
                         "', found '" + got + "'");
}

void
StateReader::verifyChecksum()
{
    hashConsumed();
    const std::uint64_t expect = hash_.value();
    // The checksum word itself is never hashed: every payload byte is
    // folded in above, and nothing is folded in after it.
    const std::uint64_t stored = get<8>();
    if (stored != expect)
        throw StateError("payload checksum mismatch");
    unsigned char extra = 0;
    if (pos_ != end_ || source_.read(&extra, 1) != 0)
        throw StateError("trailing bytes after checksum");
}

} // namespace hermes
