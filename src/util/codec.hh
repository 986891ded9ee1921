/**
 * @file
 * Shared little-endian byte codec for the versioned binary formats
 * (traces, subsets). One encoder, one bounds-checked decoder, and the
 * common file framing — { magic, version, payload size, FNV-1a-32
 * payload checksum } — so every format fails the same way: a typed
 * error with byte-offset context, never UB, unbounded allocation, or
 * a silently-wrong object.
 *
 * The decoder is templated on the error type it throws so call sites
 * keep their format-specific exception (TraceIoError, SubsetIoError),
 * both rooted at gws::IoError.
 */

#ifndef GWS_UTIL_CODEC_HH
#define GWS_UTIL_CODEC_HH

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>
#include <string>

#include "util/env.hh"
#include "util/error.hh"
#include "util/logging.hh"

namespace gws {

/** FNV-1a 64 truncated to 32 bits; catches truncation and bit rot. */
inline std::uint32_t
fnv1a32(const std::string &payload)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : payload) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return static_cast<std::uint32_t>(h ^ (h >> 32));
}

/** Size of the common file header: magic, version, size, checksum. */
constexpr std::size_t framedHeaderBytes = 16;

/**
 * Default upper bound on a framed payload. The size field is
 * untrusted input: without a cap, a 4-byte lie makes the reader
 * allocate up to 4 GiB before the checksum can catch it. 1 GiB is
 * orders of magnitude above any real capture while still failing
 * fast on lies.
 */
constexpr std::uint32_t maxFramedPayloadBytes = 1u << 30;

/**
 * Sanitize a raw GWS_MAX_PAYLOAD value into a usable cap: zero is
 * rejected (a zero cap would refuse every payload, which can only be
 * a misconfiguration) and values beyond the u32 size field are
 * clamped to it. Pure, for testability; callers use
 * framedPayloadCap().
 */
inline std::uint32_t
framedPayloadCapFromRaw(std::size_t raw)
{
    if (raw == 0) {
        GWS_WARN("GWS_MAX_PAYLOAD=0 would reject every payload; "
                 "using the default of ",
                 maxFramedPayloadBytes, " bytes");
        return maxFramedPayloadBytes;
    }
    constexpr std::size_t u32_max = 0xffffffffu;
    if (raw > u32_max) {
        GWS_WARN("GWS_MAX_PAYLOAD ", raw,
                 " exceeds the 32-bit size field; clamping to ",
                 u32_max);
        return static_cast<std::uint32_t>(u32_max);
    }
    return static_cast<std::uint32_t>(raw);
}

/**
 * The effective framed-payload cap: GWS_MAX_PAYLOAD (bytes, read once
 * through the checked envSize parser), defaulting to
 * maxFramedPayloadBytes. Applies to every framed format (the trace
 * and subset files).
 */
inline std::uint32_t
framedPayloadCap()
{
    static const std::uint32_t cap = framedPayloadCapFromRaw(
        envSize("GWS_MAX_PAYLOAD", maxFramedPayloadBytes));
    return cap;
}

/** Append-only little-endian encoder into a string buffer. */
class ByteWriter
{
  public:
    void
    u8(std::uint8_t v)
    {
        buf.push_back(static_cast<char>(v));
    }

    void
    u32(std::uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    u64(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }

    void
    f64(double v)
    {
        std::uint64_t bits;
        static_assert(sizeof(bits) == sizeof(v));
        std::memcpy(&bits, &v, sizeof(bits));
        u64(bits);
    }

    void
    str(const std::string &s)
    {
        u32(static_cast<std::uint32_t>(s.size()));
        buf.append(s);
    }

    const std::string &data() const { return buf; }

  private:
    std::string buf;
};

/**
 * Bounds-checked little-endian decoder over a string buffer. Every
 * primitive read verifies the remaining length first; count fields
 * that drive allocations must additionally pass checkCount() so a
 * length-field lie cannot trigger a multi-gigabyte reserve before
 * the per-item reads would fail.
 */
template <typename ErrorT>
class ByteReader
{
  public:
    /** Decode `data`; `label` names the format in error messages. */
    ByteReader(std::string data, const char *label)
        : buf(std::move(data)), what(label)
    {
    }

    std::uint8_t
    u8()
    {
        need(1);
        return static_cast<std::uint8_t>(buf[pos++]);
    }

    std::uint32_t
    u32()
    {
        need(4);
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(buf[pos++]))
                 << (8 * i);
        return v;
    }

    std::uint64_t
    u64()
    {
        need(8);
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(buf[pos++]))
                 << (8 * i);
        return v;
    }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    /**
     * A strict boolean byte: 0 or 1 only. Rejecting 2..255 keeps the
     * encoding canonical — an accepted payload always re-encodes to
     * the exact same bytes, which the fuzz harness asserts.
     */
    bool
    boolean()
    {
        const std::uint8_t v = u8();
        if (v > 1)
            throw ErrorT(std::string(what) + " has invalid boolean byte " +
                             std::to_string(v),
                         static_cast<std::int64_t>(pos - 1));
        return v != 0;
    }

    std::string
    str()
    {
        const std::uint32_t n = u32();
        need(n);
        std::string s = buf.substr(pos, n);
        pos += n;
        return s;
    }

    /**
     * Validate an untrusted element count before reserving memory for
     * it: `count` items of at least `min_bytes_each` must fit in the
     * remaining buffer. Throws a typed error naming `field` if not.
     */
    void
    checkCount(std::uint64_t count, std::uint64_t min_bytes_each,
               const char *field)
    {
        if (count * min_bytes_each > remaining())
            throw ErrorT(std::string(what) + " " + field + " count " +
                             std::to_string(count) + " exceeds the " +
                             std::to_string(remaining()) +
                             " bytes left in the payload",
                         static_cast<std::int64_t>(pos));
    }

    /** True once every byte has been consumed. */
    bool exhausted() const { return pos == buf.size(); }

    /** Current read position (byte offset into the buffer). */
    std::size_t offset() const { return pos; }

    /** Bytes not yet consumed. */
    std::size_t remaining() const { return buf.size() - pos; }

    /** Throw a typed structural error at the current offset. */
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        throw ErrorT(msg, static_cast<std::int64_t>(pos));
    }

  private:
    void
    need(std::size_t n)
    {
        if (pos + n > buf.size())
            throw ErrorT(std::string(what) + " payload truncated: need " +
                             std::to_string(n) + " bytes, have " +
                             std::to_string(buf.size() - pos),
                         static_cast<std::int64_t>(pos));
    }

    std::string buf;
    std::size_t pos = 0;
    const char *what;
};

/**
 * Write the common 16-byte header plus `payload` to `os`. `context`
 * names the object for the error message (e.g. the trace name).
 */
template <typename ErrorT>
void
writeFramed(std::ostream &os, std::uint32_t magic, std::uint32_t version,
            const std::string &payload, const char *label,
            const std::string &context)
{
    ByteWriter header;
    header.u32(magic);
    header.u32(version);
    header.u32(static_cast<std::uint32_t>(payload.size()));
    header.u32(fnv1a32(payload));
    os.write(header.data().data(),
             static_cast<std::streamsize>(header.data().size()));
    os.write(payload.data(), static_cast<std::streamsize>(payload.size()));
    if (!os)
        throw ErrorT(std::string("stream write failed for ") + label +
                     " '" + context + "'");
}

/**
 * Read and validate the common header from `is`, then return the
 * checksummed payload. Throws ErrorT (with the byte offset of the
 * offending field) on truncation, bad magic, version skew, an
 * implausible size field, or a checksum mismatch.
 */
template <typename ErrorT>
std::string
readFramed(std::istream &is, std::uint32_t magic, std::uint32_t version,
           const char *label)
{
    char raw_header[framedHeaderBytes];
    is.read(raw_header, sizeof(raw_header));
    if (is.gcount() != static_cast<std::streamsize>(sizeof(raw_header)))
        throw ErrorT(std::string(label) + " header truncated: got " +
                         std::to_string(is.gcount()) + " of " +
                         std::to_string(sizeof(raw_header)) + " bytes",
                     is.gcount());
    ByteReader<ErrorT> header(std::string(raw_header, sizeof(raw_header)),
                              label);
    if (header.u32() != magic)
        throw ErrorT(std::string("bad magic: not a gws ") + label, 0);
    const std::uint32_t ver = header.u32();
    if (ver != version)
        throw ErrorT(std::string("unsupported ") + label +
                         " format version " + std::to_string(ver) +
                         " (expected " + std::to_string(version) + ")",
                     4);
    const std::uint32_t size = header.u32();
    if (size > framedPayloadCap())
        throw ErrorT(std::string("implausible ") + label +
                         " payload size " + std::to_string(size),
                     8);
    const std::uint32_t expect_sum = header.u32();

    std::string payload(size, '\0');
    is.read(payload.data(), static_cast<std::streamsize>(size));
    if (static_cast<std::uint32_t>(is.gcount()) != size)
        throw ErrorT(std::string(label) + " payload truncated: got " +
                         std::to_string(is.gcount()) + " of " +
                         std::to_string(size) + " bytes",
                     static_cast<std::int64_t>(framedHeaderBytes) +
                         is.gcount());
    if (fnv1a32(payload) != expect_sum)
        throw ErrorT(std::string(label) +
                     " checksum mismatch (corrupt file)");
    return payload;
}

} // namespace gws

#endif // GWS_UTIL_CODEC_HH
