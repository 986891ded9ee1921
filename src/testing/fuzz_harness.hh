/**
 * @file
 * Deterministic fault-injection fuzz harness for the binary input
 * boundary (trace and subset files).
 *
 * The harness takes a known-good serialized blob and systematically
 * applies corruption — truncation at every layer, bit flips, byte
 * splats, 32-bit word overwrites (length-field lies), header field
 * mutations, and trailing garbage — then asserts the decoder's
 * contract for every mutation:
 *
 *   - a typed error (TraceIoError / SubsetIoError, both IoError), or
 *   - an accepted payload that re-encodes byte-identically
 *     (i.e. the mutation landed on a don't-care value and the
 *     canonical encoding is unchanged);
 *
 * anything else — a crash, another exception type, or a decode that
 * silently canonicalizes different bytes — is a failure. Mutations
 * whose damage lands past the checksum are "resealed" (size and
 * checksum fields recomputed) so the structural validation paths are
 * exercised, not just the checksum.
 *
 * Everything is driven by the project Rng, so a (seed, iterations)
 * pair replays bit-identically; failures are dumped as artifact files
 * (mutated blob + a note with seed/iteration/kind) for offline
 * reproduction, and progress is exported as gws.fuzz.* metrics.
 */

#ifndef GWS_TESTING_FUZZ_HARNESS_HH
#define GWS_TESTING_FUZZ_HARNESS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace gws {
namespace fuzz {

/** Fault classes the harness injects. */
enum class Mutation : std::uint8_t {
    /** No change; the decoder must accept and round-trip. */
    None,
    /** Keep only the first 0..15 bytes (inside the header). */
    TruncateHeader,
    /** Truncate anywhere without fixing the header size field. */
    TruncateRaw,
    /** Truncate the payload and reseal size + checksum. */
    TruncateResealed,
    /** Overwrite one header byte (magic/version/size/checksum). */
    HeaderByte,
    /** Flip one payload bit without resealing (checksum must trip). */
    BitFlipRaw,
    /** Flip one payload bit and reseal (structure must decide). */
    BitFlipResealed,
    /** Splat one payload byte with a boundary value and reseal. */
    ByteSplatResealed,
    /** Overwrite a 32-bit word with a length-lie value and reseal. */
    Word32Resealed,
    /** Append trailing garbage and reseal. */
    AppendResealed,
};

/** Number of Mutation kinds (for tables and the kind picker). */
constexpr std::size_t numMutationKinds = 10;

/** Printable name of a mutation kind. */
const char *toString(Mutation m);

/** Per-mutation decoder verdict. */
enum class Outcome : std::uint8_t {
    /** Decoder raised the format's typed error. */
    TypedError,
    /** Decoder accepted; re-encoding is byte-identical to the input. */
    AcceptedIdentical,
    /** Contract violation: wrong exception or silent canonicalization. */
    Failure,
};

/** Knobs of one fuzz run. */
struct FuzzConfig
{
    /** Root seed; equal seeds replay the exact mutation sequence. */
    std::uint64_t seed = 0x5eedULL;

    /** Mutations to apply. */
    std::size_t iterations = 10000;

    /**
     * Directory for failure artifacts. Empty = $GWS_FUZZ_ARTIFACT_DIR,
     * falling back to "fuzz-artifacts" in the working directory.
     */
    std::string artifactDir;

    /** Cap on artifacts written (and failure notes kept). */
    std::size_t maxArtifacts = 8;
};

/** Aggregate result of a fuzz run over one format. */
struct FuzzReport
{
    /** Format label ("trace" or "subset"). */
    std::string format;

    /** Mutations executed. */
    std::uint64_t iterations = 0;

    /** Mutations rejected with the typed error. */
    std::uint64_t typedErrors = 0;

    /** Mutations accepted with a byte-identical re-encoding. */
    std::uint64_t acceptedIdentical = 0;

    /** Contract violations (must be zero). */
    std::uint64_t failures = 0;

    /** Mutations applied, by kind. */
    std::uint64_t perKind[numMutationKinds] = {};

    /** Typed-error outcomes, by kind. */
    std::uint64_t perKindTyped[numMutationKinds] = {};

    /** Human-readable notes for the first maxArtifacts failures. */
    std::vector<std::string> failureNotes;

    /** True when every mutation honoured the decoder contract. */
    bool ok() const { return failures == 0; }

    /** Multi-line per-kind outcome table for logs. */
    std::string summary() const;
};

/**
 * Recompute the framed header's size and checksum fields over the
 * blob's current payload bytes (offset 16 onward). No-op on blobs
 * shorter than a header. Exposed for targeted corruption tests that
 * need a structurally-reachable (checksum-valid) malformed payload.
 */
void resealFramed(std::string &blob);

/**
 * Apply `kind` to a copy of `good`, drawing randomness from the
 * iteration seed. Exposed so tests can reproduce an artifact.
 */
std::string applyMutation(const std::string &good, Mutation kind,
                          std::uint64_t seed, std::uint64_t iteration);

/**
 * Fuzz the trace format: mutate `goodBlob` (a complete serialized
 * trace file image) cfg.iterations times and classify every decode.
 */
FuzzReport fuzzTraceFormat(const std::string &goodBlob,
                           const FuzzConfig &cfg);

/** Fuzz the subset format; same contract as fuzzTraceFormat(). */
FuzzReport fuzzSubsetFormat(const std::string &goodBlob,
                            const FuzzConfig &cfg);

} // namespace fuzz
} // namespace gws

#endif // GWS_TESTING_FUZZ_HARNESS_HH
