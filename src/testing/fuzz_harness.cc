#include "testing/fuzz_harness.hh"

#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "core/subset_io.hh"
#include "obs/metrics.hh"
#include "trace/trace_io.hh"
#include "util/codec.hh"
#include "util/logging.hh"
#include "util/rng.hh"

namespace gws {
namespace fuzz {

namespace {

/** Patch a little-endian u32 into `blob` at `pos`. */
void
patchU32(std::string &blob, std::size_t pos, std::uint32_t v)
{
    for (int i = 0; i < 4; ++i)
        blob[pos + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/** Mutation body; `rng` has already been positioned past the kind draw. */
std::string
mutate(const std::string &good, Mutation kind, Rng &rng)
{
    std::string blob = good;
    const std::size_t payload_size =
        blob.size() > framedHeaderBytes ? blob.size() - framedHeaderBytes
                                        : 0;
    switch (kind) {
    case Mutation::None:
        break;
    case Mutation::TruncateHeader:
        blob.resize(rng.index(framedHeaderBytes));
        break;
    case Mutation::TruncateRaw:
        blob.resize(rng.index(blob.size() + 1));
        break;
    case Mutation::TruncateResealed:
        blob.resize(framedHeaderBytes + rng.index(payload_size + 1));
        resealFramed(blob);
        break;
    case Mutation::HeaderByte:
        blob[rng.index(framedHeaderBytes)] =
            static_cast<char>(rng.nextU64() & 0xff);
        break;
    case Mutation::BitFlipRaw:
        blob[rng.index(blob.size())] ^=
            static_cast<char>(1u << rng.index(8));
        break;
    case Mutation::BitFlipResealed:
        if (payload_size == 0)
            break;
        blob[framedHeaderBytes + rng.index(payload_size)] ^=
            static_cast<char>(1u << rng.index(8));
        resealFramed(blob);
        break;
    case Mutation::ByteSplatResealed: {
        if (payload_size == 0)
            break;
        static const unsigned char boundary[] = {0x00, 0x01, 0x7f,
                                                 0x80, 0xff};
        const std::size_t pick = rng.index(6);
        const unsigned char v =
            pick < 5 ? boundary[pick]
                     : static_cast<unsigned char>(rng.nextU64() & 0xff);
        blob[framedHeaderBytes + rng.index(payload_size)] =
            static_cast<char>(v);
        resealFramed(blob);
        break;
    }
    case Mutation::Word32Resealed: {
        // Length-field lies: overwrite an aligned-on-nothing 32-bit
        // word with a boundary count. When it lands on a count or
        // string-length field the decoder's checkCount()/need()
        // guards must trip; elsewhere it is a field-range mutation.
        if (payload_size < 4)
            break;
        static const std::uint32_t boundary[] = {0u, 1u, 0x7fffffffu,
                                                 0xfffffffeu, 0xffffffffu};
        const std::size_t pick = rng.index(7);
        std::uint32_t v;
        if (pick < 5)
            v = boundary[pick];
        else if (pick == 5)
            v = static_cast<std::uint32_t>(rng.index(256));
        else
            v = static_cast<std::uint32_t>(rng.nextU64());
        patchU32(blob,
                 framedHeaderBytes + rng.index(payload_size - 3), v);
        resealFramed(blob);
        break;
    }
    case Mutation::AppendResealed: {
        const std::size_t extra = 1 + rng.index(8);
        for (std::size_t i = 0; i < extra; ++i)
            blob.push_back(static_cast<char>(rng.nextU64() & 0xff));
        resealFramed(blob);
        break;
    }
    }
    return blob;
}

/** Resolve the artifact directory: config, env, then default. */
std::string
artifactDirFor(const FuzzConfig &cfg)
{
    if (!cfg.artifactDir.empty())
        return cfg.artifactDir;
    if (const char *env = std::getenv("GWS_FUZZ_ARTIFACT_DIR"))
        if (*env != '\0')
            return env;
    return "fuzz-artifacts";
}

/** Dump a failing mutation for offline reproduction. */
void
writeArtifact(const std::string &dir, const std::string &format,
              const FuzzConfig &cfg, std::uint64_t iteration,
              Mutation kind, const std::string &blob,
              const std::string &note)
{
    ::mkdir(dir.c_str(), 0755);
    const std::string stem = dir + "/fuzz_" + format + "_iter" +
                             std::to_string(iteration);
    if (FILE *fp = std::fopen((stem + ".bin").c_str(), "wb")) {
        std::fwrite(blob.data(), 1, blob.size(), fp);
        std::fclose(fp);
    }
    if (FILE *fp = std::fopen((stem + ".txt").c_str(), "w")) {
        std::fprintf(fp,
                     "format: %s\nseed: %llu\niteration: %llu\n"
                     "mutation: %s\nnote: %s\n"
                     "reproduce: applyMutation(goodBlob, %s, %llu, %llu)\n",
                     format.c_str(),
                     static_cast<unsigned long long>(cfg.seed),
                     static_cast<unsigned long long>(iteration),
                     toString(kind), note.c_str(), toString(kind),
                     static_cast<unsigned long long>(cfg.seed),
                     static_cast<unsigned long long>(iteration));
        std::fclose(fp);
    }
}

/**
 * The generic engine: mutate, decode + re-encode via `roundTrip`,
 * classify. ErrorT is the format's typed error; any other escape is
 * a contract violation.
 */
template <typename ErrorT, typename RoundTripFn>
FuzzReport
fuzzBlob(const char *format, const std::string &good,
         RoundTripFn roundTrip, const FuzzConfig &cfg)
{
    GWS_ASSERT(good.size() >= framedHeaderBytes,
               "fuzz corpus blob smaller than a header");
    FuzzReport rep;
    rep.format = format;

    auto &reg = obs::metricsRegistry();
    obs::Counter &m_iter = reg.counter("gws.fuzz.iterations");
    obs::Counter &m_typed = reg.counter("gws.fuzz.typed_errors");
    obs::Counter &m_accepted = reg.counter("gws.fuzz.accepted");
    obs::Counter &m_failures = reg.counter("gws.fuzz.failures");

    const Rng root(cfg.seed);
    const std::string dir = artifactDirFor(cfg);
    for (std::uint64_t i = 0; i < cfg.iterations; ++i) {
        Rng rng = root.fork(i);
        const auto kind =
            static_cast<Mutation>(rng.index(numMutationKinds));
        const std::string blob = mutate(good, kind, rng);
        rep.perKind[static_cast<std::size_t>(kind)]++;
        rep.iterations++;
        m_iter.increment();

        Outcome outcome;
        std::string note;
        try {
            const std::string reencoded = roundTrip(blob);
            if (reencoded == blob) {
                outcome = Outcome::AcceptedIdentical;
            } else {
                outcome = Outcome::Failure;
                note = "accepted payload re-encoded differently (" +
                       std::to_string(blob.size()) + " -> " +
                       std::to_string(reencoded.size()) + " bytes)";
            }
        } catch (const ErrorT &) {
            outcome = Outcome::TypedError;
        } catch (const std::exception &e) {
            outcome = Outcome::Failure;
            note = std::string("escaped non-typed exception: ") + e.what();
        } catch (...) {
            outcome = Outcome::Failure;
            note = "escaped unknown exception";
        }

        switch (outcome) {
        case Outcome::TypedError:
            rep.typedErrors++;
            rep.perKindTyped[static_cast<std::size_t>(kind)]++;
            m_typed.increment();
            break;
        case Outcome::AcceptedIdentical:
            rep.acceptedIdentical++;
            m_accepted.increment();
            break;
        case Outcome::Failure:
            rep.failures++;
            m_failures.increment();
            if (rep.failureNotes.size() < cfg.maxArtifacts) {
                rep.failureNotes.push_back(
                    "iter " + std::to_string(i) + " [" + toString(kind) +
                    "]: " + note);
                writeArtifact(dir, format, cfg, i, kind, blob, note);
            }
            break;
        }
    }
    return rep;
}

} // namespace

const char *
toString(Mutation m)
{
    switch (m) {
    case Mutation::None: return "none";
    case Mutation::TruncateHeader: return "truncate-header";
    case Mutation::TruncateRaw: return "truncate-raw";
    case Mutation::TruncateResealed: return "truncate-resealed";
    case Mutation::HeaderByte: return "header-byte";
    case Mutation::BitFlipRaw: return "bit-flip-raw";
    case Mutation::BitFlipResealed: return "bit-flip-resealed";
    case Mutation::ByteSplatResealed: return "byte-splat-resealed";
    case Mutation::Word32Resealed: return "word32-resealed";
    case Mutation::AppendResealed: return "append-resealed";
    }
    return "unknown";
}

void
resealFramed(std::string &blob)
{
    if (blob.size() < framedHeaderBytes)
        return;
    const std::string payload = blob.substr(framedHeaderBytes);
    patchU32(blob, 8, static_cast<std::uint32_t>(payload.size()));
    patchU32(blob, 12, fnv1a32(payload));
}

std::string
applyMutation(const std::string &good, Mutation kind, std::uint64_t seed,
              std::uint64_t iteration)
{
    Rng rng = Rng(seed).fork(iteration);
    (void)rng.index(numMutationKinds); // the engine's kind draw
    return mutate(good, kind, rng);
}

FuzzReport
fuzzTraceFormat(const std::string &goodBlob, const FuzzConfig &cfg)
{
    return fuzzBlob<TraceIoError>(
        "trace", goodBlob,
        [](const std::string &blob) {
            std::istringstream iss(blob, std::ios::binary);
            const Trace t = readTrace(iss);
            std::ostringstream oss(std::ios::binary);
            writeTrace(t, oss);
            return oss.str();
        },
        cfg);
}

FuzzReport
fuzzSubsetFormat(const std::string &goodBlob, const FuzzConfig &cfg)
{
    return fuzzBlob<SubsetIoError>(
        "subset", goodBlob,
        [](const std::string &blob) {
            std::istringstream iss(blob, std::ios::binary);
            const WorkloadSubset s = readSubset(iss);
            std::ostringstream oss(std::ios::binary);
            writeSubset(s, oss);
            return oss.str();
        },
        cfg);
}

std::string
FuzzReport::summary() const
{
    std::string out = format + " fuzz: " + std::to_string(iterations) +
                      " iterations, " + std::to_string(typedErrors) +
                      " typed errors, " +
                      std::to_string(acceptedIdentical) +
                      " accepted identical, " + std::to_string(failures) +
                      " failures\n";
    for (std::size_t k = 0; k < numMutationKinds; ++k) {
        if (perKind[k] == 0)
            continue;
        out += "  " + std::string(toString(static_cast<Mutation>(k))) +
               ": " + std::to_string(perKind[k]) + " applied, " +
               std::to_string(perKindTyped[k]) + " typed errors\n";
    }
    for (const auto &n : failureNotes)
        out += "  FAILURE " + n + "\n";
    return out;
}

} // namespace fuzz
} // namespace gws
