/**
 * @file
 * Shared pieces of the benchmark harness: the workload interface, the
 * metric list, the output digest, the seeded suite and the decomposed
 * subset pricing that validate and explore share.
 *
 * Every workload runs the same work two ways. The reference pass
 * calls the library's composite entry points (evaluateFramePrediction,
 * runFreqScaling, runPathfinding, WorkloadSubset::predictTotalNs) and
 * is never timed. Timed passes make the constituent public calls
 * themselves, one span per call, and must reproduce the reference
 * results bit for bit.
 */

#ifndef GWS_PERFBENCH_BENCH_HH
#define GWS_PERFBENCH_BENCH_HH

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/subset_pipeline.hh"
#include "gpusim/gpu_simulator.hh"
#include "synth/game_profile.hh"
#include "trace/trace.hh"

namespace perfbench {

/** One named metric value. */
struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

using Metrics = std::vector<Metric>;

/** FNV-1a over the exact bit patterns of simulated outputs. */
class Digest
{
  public:
    void add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }

    void add(double v)
    {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &v, sizeof(bits));
        add(bits);
    }

    std::uint64_t value() const { return h; }

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/** True when two doubles have the same bit pattern. */
inline bool
sameBits(double a, double b)
{
    return std::memcmp(&a, &b, sizeof(a)) == 0;
}

/** True for a usable simulated cost: finite and positive. */
bool validCost(double ns);

/** Result of checking one timed pass against the reference pass. */
struct PassCheck
{
    /** Operations attempted and failed in the pass. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    /** Digest of every simulated statistic of the pass. */
    std::uint64_t digest = 0;

    /** Human-readable mismatches against the reference (empty = ok). */
    std::vector<std::string> mismatches;
};

/** One benchmark workload. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build the inputs for a seed (timed as setup_s; run several
     * times per process, each run replacing the previous inputs).
     * Files go under work_dir.
     */
    virtual void setup(std::uint64_t seed, const std::string &work_dir) = 0;

    /** Untimed: run the composite entry points, keep their results. */
    virtual void reference() = 0;

    /** Timed: the same work through the constituent public calls. */
    virtual void pass() = 0;

    /** Compare the last pass with the reference; digest; op counts. */
    virtual PassCheck check() const = 0;

    /**
     * Fidelity metrics of the last pass (deterministic for a seed):
     * printed on every run, reported with the per-layer metrics.
     */
    virtual void fidelity(Metrics &out) const = 0;

    /**
     * Registry metric prefixes this workload's passes drive; a
     * counter under one of them that is not registered is reported
     * as absent rather than as zero.
     */
    virtual std::vector<std::string> drivenPrefixes() const = 0;
};

std::unique_ptr<Workload> makeCharacterize();
std::unique_ptr<Workload> makeValidate();
std::unique_ptr<Workload> makeExplore();

/**
 * The built-in suite at a scale with the benchmark seed mixed into
 * every profile seed. Seed 0 leaves the profiles untouched (the
 * library's canonical suite).
 */
std::vector<gws::GameProfile> seededProfiles(gws::SuiteScale scale,
                                             std::uint64_t seed);

/** Generate one profile's playthrough (one synth.generate span). */
gws::Trace generateGame(const gws::GameProfile &profile);

/**
 * WorkloadSubset::predictTotalNs through its constituent calls:
 * units fan out one per chunk as in the library; each prices its
 * representatives with simulateDraw (gpusim.price) and expands them
 * with predictItemCosts (core.predict); the weighted terms are summed
 * in unit order. Bit-identical to predictTotalNs.
 */
double priceSubset(const gws::Trace &parent,
                   const gws::WorkloadSubset &subset,
                   const gws::GpuSimulator &simulator);

} // namespace perfbench

#endif // GWS_PERFBENCH_BENCH_HH
