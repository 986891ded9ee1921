/**
 * @file
 * Unit tests for the util substrate: RNG, statistics, strings, tables,
 * and the argument parser.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include <cstdlib>

#include "obs/obs.hh"
#include "util/args.hh"
#include "util/codec.hh"
#include "util/divisor.hh"
#include "util/env.hh"
#include "util/logging.hh"
#include "util/rng.hh"
#include "util/stats.hh"
#include "util/strings.hh"
#include "util/table.hh"

namespace gws {
namespace {

// ---------------------------------------------------------------- RNG --

TEST(SplitMix64, KnownSequenceIsDeterministic)
{
    SplitMix64 a(42);
    SplitMix64 b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(SplitMix64, DifferentSeedsDiverge)
{
    SplitMix64 a(1);
    SplitMix64 b(2);
    EXPECT_NE(a.next(), b.next());
}

TEST(Rng, SameSeedSameStream)
{
    Rng a(7), b(7);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.nextU64(), b.nextU64());
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(1);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformRangeRespectsBounds)
{
    Rng rng(2);
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.5, 9.25);
        ASSERT_GE(u, -3.5);
        ASSERT_LT(u, 9.25);
    }
}

TEST(Rng, UniformIntCoversFullRangeInclusive)
{
    Rng rng(3);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i)
        seen.insert(rng.uniformInt(0, 5));
    EXPECT_EQ(seen.size(), 6u);
    EXPECT_TRUE(seen.count(0));
    EXPECT_TRUE(seen.count(5));
}

TEST(Rng, UniformIntSingleton)
{
    Rng rng(4);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.uniformInt(17, 17), 17);
}

TEST(Rng, UniformIntMeanIsCentered)
{
    Rng rng(5);
    double sum = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.uniformInt(0, 100));
    EXPECT_NEAR(sum / n, 50.0, 1.0);
}

TEST(Rng, BernoulliEdges)
{
    Rng rng(6);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliFrequencyMatchesP)
{
    Rng rng(7);
    int hits = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, NormalMomentsMatch)
{
    Rng rng(8);
    SummaryStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.normal(10.0, 2.0));
    EXPECT_NEAR(s.mean(), 10.0, 0.05);
    EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LogNormalMedianIsExpMu)
{
    Rng rng(9);
    std::vector<double> xs;
    for (int i = 0; i < 20001; ++i)
        xs.push_back(rng.logNormal(1.0, 0.5));
    EXPECT_NEAR(percentile(xs, 50.0), std::exp(1.0), 0.1);
}

TEST(Rng, ExponentialMeanIsInverseRate)
{
    Rng rng(10);
    SummaryStats s;
    for (int i = 0; i < 50000; ++i)
        s.add(rng.exponential(4.0));
    EXPECT_NEAR(s.mean(), 0.25, 0.01);
}

TEST(Rng, ParetoRespectsMinimum)
{
    Rng rng(11);
    for (int i = 0; i < 10000; ++i)
        ASSERT_GE(rng.pareto(2.0, 1.5), 2.0);
}

TEST(Rng, PoissonZeroMeanIsZero)
{
    Rng rng(12);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.poisson(0.0), 0u);
}

TEST(Rng, PoissonMeanMatchesSmall)
{
    Rng rng(13);
    double sum = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(2.5));
    EXPECT_NEAR(sum / n, 2.5, 0.05);
}

TEST(Rng, PoissonMeanMatchesLargeViaNormalApprox)
{
    Rng rng(14);
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.poisson(80.0));
    EXPECT_NEAR(sum / n, 80.0, 0.5);
}

TEST(Rng, IndexAlwaysInRange)
{
    Rng rng(15);
    for (int i = 0; i < 1000; ++i)
        ASSERT_LT(rng.index(7), 7u);
}

TEST(Rng, WeightedIndexZeroWeightNeverPicked)
{
    Rng rng(16);
    const std::vector<double> w{0.0, 1.0, 0.0, 2.0};
    for (int i = 0; i < 2000; ++i) {
        const std::size_t pick = rng.weightedIndex(w);
        ASSERT_TRUE(pick == 1 || pick == 3);
    }
}

TEST(Rng, WeightedIndexProportions)
{
    Rng rng(17);
    const std::vector<double> w{1.0, 3.0};
    int count1 = 0;
    const int n = 40000;
    for (int i = 0; i < n; ++i)
        count1 += rng.weightedIndex(w) == 1 ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(count1) / n, 0.75, 0.01);
}

TEST(Rng, PermutationIsAPermutation)
{
    Rng rng(18);
    const auto perm = rng.permutation(100);
    std::set<std::size_t> seen(perm.begin(), perm.end());
    EXPECT_EQ(perm.size(), 100u);
    EXPECT_EQ(seen.size(), 100u);
    EXPECT_EQ(*seen.begin(), 0u);
    EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(Rng, PermutationOfZeroAndOne)
{
    Rng rng(19);
    EXPECT_TRUE(rng.permutation(0).empty());
    const auto one = rng.permutation(1);
    ASSERT_EQ(one.size(), 1u);
    EXPECT_EQ(one[0], 0u);
}

TEST(Rng, ForkIsDeterministicAndIndependent)
{
    Rng parent(20);
    Rng c1 = parent.fork(1);
    Rng c2 = parent.fork(2);
    Rng c1_again = Rng(20).fork(1);
    EXPECT_EQ(c1.nextU64(), c1_again.nextU64());
    EXPECT_NE(c1.nextU64(), c2.nextU64());
}

TEST(Rng, ForkDoesNotPerturbParent)
{
    Rng a(21), b(21);
    (void)a.fork(5);
    EXPECT_EQ(a.nextU64(), b.nextU64());
}

// ---------------------------------------------------------------- stats --

TEST(SummaryStats, EmptyIsAllZero)
{
    SummaryStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
    EXPECT_EQ(s.min(), 0.0);
    EXPECT_EQ(s.max(), 0.0);
}

TEST(SummaryStats, SingleSample)
{
    SummaryStats s;
    s.add(4.5);
    EXPECT_EQ(s.count(), 1u);
    EXPECT_DOUBLE_EQ(s.mean(), 4.5);
    EXPECT_DOUBLE_EQ(s.min(), 4.5);
    EXPECT_DOUBLE_EQ(s.max(), 4.5);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
}

TEST(SummaryStats, KnownMoments)
{
    SummaryStats s;
    s.addAll({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0});
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(SummaryStats, SampleVarianceUsesNMinusOne)
{
    SummaryStats s;
    s.addAll({1.0, 3.0});
    EXPECT_DOUBLE_EQ(s.variance(), 1.0);
    EXPECT_DOUBLE_EQ(s.sampleVariance(), 2.0);
}

TEST(Stats, MeanAndStddevOfVector)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_NEAR(stddev({2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}), 2.0,
                1e-12);
}

TEST(Stats, GeomeanKnownValue)
{
    EXPECT_NEAR(geomean({1.0, 8.0}), std::sqrt(8.0), 1e-12);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_NEAR(geomean({4.0, 4.0, 4.0}), 4.0, 1e-12);
}

TEST(Stats, PercentileInterpolates)
{
    std::vector<double> xs{4.0, 1.0, 3.0, 2.0}; // unsorted on purpose
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 100.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 50.0), 2.5);
    EXPECT_DOUBLE_EQ(percentile({5.0}, 75.0), 5.0);
}

TEST(Stats, PearsonPerfectCorrelations)
{
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0};
    const std::vector<double> y{2.0, 4.0, 6.0, 8.0};
    std::vector<double> neg(y.rbegin(), y.rend());
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonZeroVarianceIsZero)
{
    EXPECT_DOUBLE_EQ(pearson({1.0, 1.0, 1.0}, {1.0, 2.0, 3.0}), 0.0);
}

TEST(Stats, PearsonInvariantToAffineTransform)
{
    const std::vector<double> x{1.0, 5.0, 2.0, 8.0, 3.0};
    const std::vector<double> y{2.0, 4.0, 3.0, 9.0, 1.0};
    std::vector<double> y2;
    for (double v : y)
        y2.push_back(3.0 * v + 7.0);
    EXPECT_NEAR(pearson(x, y), pearson(x, y2), 1e-12);
}

TEST(Stats, RanksHandleTies)
{
    const auto r = ranks({10.0, 20.0, 20.0, 30.0});
    ASSERT_EQ(r.size(), 4u);
    EXPECT_DOUBLE_EQ(r[0], 1.0);
    EXPECT_DOUBLE_EQ(r[1], 2.5);
    EXPECT_DOUBLE_EQ(r[2], 2.5);
    EXPECT_DOUBLE_EQ(r[3], 4.0);
}

TEST(Stats, SpearmanMonotoneNonlinearIsOne)
{
    const std::vector<double> x{1.0, 2.0, 3.0, 4.0, 5.0};
    std::vector<double> y;
    for (double v : x)
        y.push_back(std::exp(v)); // monotone but nonlinear
    EXPECT_NEAR(spearman(x, y), 1.0, 1e-12);
}

TEST(Histogram, BinningAndClamping)
{
    Histogram h(0.0, 10.0, 5);
    h.add(0.5);   // bin 0
    h.add(9.9);   // bin 4
    h.add(-3.0);  // clamped to bin 0
    h.add(42.0);  // clamped to bin 4
    h.add(5.0);   // bin 2
    EXPECT_EQ(h.total(), 5u);
    EXPECT_EQ(h.binCount(0), 2u);
    EXPECT_EQ(h.binCount(2), 1u);
    EXPECT_EQ(h.binCount(4), 2u);
    EXPECT_DOUBLE_EQ(h.binLo(2), 4.0);
    EXPECT_DOUBLE_EQ(h.binHi(2), 6.0);
    EXPECT_DOUBLE_EQ(h.binFraction(0), 0.4);
}

// --------------------------------------------------------------- strings --

TEST(Strings, SplitAndJoinRoundTrip)
{
    const auto parts = split("a,b,,c", ',');
    ASSERT_EQ(parts.size(), 4u);
    EXPECT_EQ(parts[2], "");
    EXPECT_EQ(join(parts, ","), "a,b,,c");
}

TEST(Strings, TrimAndLower)
{
    EXPECT_EQ(trim("  Hello \t\n"), "Hello");
    EXPECT_EQ(trim(""), "");
    EXPECT_EQ(trim("   "), "");
    EXPECT_EQ(toLower("MiXeD"), "mixed");
}

TEST(Strings, PrefixSuffix)
{
    EXPECT_TRUE(startsWith("gws_trace", "gws"));
    EXPECT_FALSE(startsWith("g", "gws"));
    EXPECT_TRUE(endsWith("trace.cc", ".cc"));
    EXPECT_FALSE(endsWith("cc", "trace.cc"));
}

TEST(Strings, HumanBytesAndCount)
{
    EXPECT_EQ(humanBytes(512), "512 B");
    EXPECT_EQ(humanBytes(1536), "1.5 KiB");
    EXPECT_EQ(humanBytes(3.0 * 1024 * 1024), "3.0 MiB");
    EXPECT_EQ(humanCount(999), "999");
    EXPECT_EQ(humanCount(828000), "828.0K");
    EXPECT_EQ(humanCount(2.5e6), "2.5M");
}

TEST(Strings, FormatHelpers)
{
    EXPECT_EQ(formatDouble(1.2345, 2), "1.23");
    EXPECT_EQ(formatPercent(0.658, 1), "65.8%");
}

// --------------------------------------------------------------- divisor --

TEST(Divisor, QuotientAndRemainderAreExact)
{
    constexpr std::uint64_t max = ~std::uint64_t{0};
    const std::uint64_t divisors[] = {
        1, 2, 3, 7, 64, (1ULL << 32) - 1, 1ULL << 32, (1ULL << 32) + 1,
        // Above 2^63 ceil(log2 d) is 64: the magic number needs 2^64.
        1ULL << 63, (1ULL << 63) + 1, max};
    for (const std::uint64_t d : divisors) {
        const Divisor div(d);
        for (const std::uint64_t n : {std::uint64_t{0}, std::uint64_t{1},
                                      d - 1, d, d + 1, max}) {
            EXPECT_EQ(div.quotient(n), n / d) << n << " / " << d;
            EXPECT_EQ(div.remainder(n), n % d) << n << " % " << d;
        }
    }

    SplitMix64 rng(0xd1f150);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t n = rng.next();
        // Mix full-width divisors with small ones.
        const std::uint64_t d =
            std::max<std::uint64_t>(rng.next() >> (rng.next() % 64), 1);
        const Divisor div(d);
        ASSERT_EQ(div.quotient(n), n / d) << n << " / " << d;
        ASSERT_EQ(div.remainder(n), n % d) << n << " % " << d;
    }
}

TEST(Divisor, ZeroDies)
{
    EXPECT_DEATH(Divisor(0), "division by zero");
}

// ----------------------------------------------------------------- table --

TEST(Table, CellStorageAndAccess)
{
    Table t({"name", "value", "pct"});
    t.newRow();
    t.cell(std::string("shock1"));
    t.cell(static_cast<std::size_t>(42));
    t.cellPercent(0.658);
    EXPECT_EQ(t.rows(), 1u);
    EXPECT_EQ(t.columns(), 3u);
    EXPECT_EQ(t.at(0, 0), "shock1");
    EXPECT_EQ(t.at(0, 1), "42");
    EXPECT_EQ(t.at(0, 2), "65.8");
}

TEST(Table, AsciiRenderAlignsColumns)
{
    Table t({"a", "longheader"});
    t.newRow();
    t.cell(std::string("x"));
    t.cell(std::string("y"));
    const std::string out = t.renderAscii();
    EXPECT_NE(out.find("a  longheader"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Table, MarkdownRenderHasSeparatorRow)
{
    Table t({"h1", "h2"});
    t.newRow();
    t.cell(1.5, 1);
    t.cell(2.0, 1);
    const std::string out = t.renderMarkdown();
    EXPECT_NE(out.find("| h1 | h2 |"), std::string::npos);
    EXPECT_NE(out.find("|---|---|"), std::string::npos);
    EXPECT_NE(out.find("| 1.5 | 2.0 |"), std::string::npos);
}

TEST(Table, CsvEscapesSpecials)
{
    Table t({"k", "v"});
    t.newRow();
    t.cell(std::string("a,b"));
    t.cell(std::string("say \"hi\""));
    const std::string out = t.renderCsv();
    EXPECT_NE(out.find("\"a,b\""), std::string::npos);
    EXPECT_NE(out.find("\"say \"\"hi\"\"\""), std::string::npos);
}

// ------------------------------------------------------------------ args --

TEST(Args, DefaultsApplyWithoutFlags)
{
    ArgParser p("prog", "test");
    p.addString("scale", "ci", "suite scale");
    p.addInt("frames", 72, "frame count");
    p.addDouble("radius", 0.9, "cluster radius");
    p.addFlag("verbose", "chatty output");
    const char *argv[] = {"prog"};
    ASSERT_TRUE(p.parse(1, argv));
    EXPECT_EQ(p.getString("scale"), "ci");
    EXPECT_EQ(p.getInt("frames"), 72);
    EXPECT_DOUBLE_EQ(p.getDouble("radius"), 0.9);
    EXPECT_FALSE(p.getFlag("verbose"));
}

TEST(Args, EqualsAndSpaceForms)
{
    ArgParser p("prog", "test");
    p.addString("scale", "ci", "");
    p.addInt("frames", 1, "");
    const char *argv[] = {"prog", "--scale=paper", "--frames", "717"};
    ASSERT_TRUE(p.parse(4, argv));
    EXPECT_EQ(p.getString("scale"), "paper");
    EXPECT_EQ(p.getInt("frames"), 717);
}

TEST(Args, FlagSetsTrue)
{
    ArgParser p("prog", "test");
    p.addFlag("verbose", "");
    const char *argv[] = {"prog", "--verbose"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_TRUE(p.getFlag("verbose"));
}

TEST(Args, HelpReturnsFalse)
{
    ArgParser p("prog", "test");
    p.addInt("n", 3, "count");
    const char *argv[] = {"prog", "--help"};
    EXPECT_FALSE(p.parse(2, argv));
    EXPECT_NE(p.usage().find("--n"), std::string::npos);
    EXPECT_NE(p.usage().find("count"), std::string::npos);
}

TEST(Args, NegativeNumbersParse)
{
    ArgParser p("prog", "test");
    p.addInt("i", 0, "");
    p.addDouble("d", 0.0, "");
    const char *argv[] = {"prog", "--i=-5", "--d=-2.5"};
    ASSERT_TRUE(p.parse(3, argv));
    EXPECT_EQ(p.getInt("i"), -5);
    EXPECT_DOUBLE_EQ(p.getDouble("d"), -2.5);
}

TEST(Args, SpaceFormRejectsOptionLikeValue)
{
    // "--trace-out --threads 4" must not silently eat "--threads" as
    // the filename; the parser rejects an option-shaped value in the
    // space form with a hint to use --name=value.
    ArgParser p("prog", "test");
    p.addString("trace-out", "", "");
    p.addInt("threads", 0, "");
    const char *argv[] = {"prog", "--trace-out", "--threads", "4"};
    EXPECT_EXIT(p.parse(4, argv), ::testing::ExitedWithCode(1),
                "needs a value");
}

TEST(Args, EqualsFormAcceptsDashValue)
{
    // The escape hatch: --name=--literal still works.
    ArgParser p("prog", "test");
    p.addString("trace-out", "", "");
    const char *argv[] = {"prog", "--trace-out=--odd-filename"};
    ASSERT_TRUE(p.parse(2, argv));
    EXPECT_EQ(p.getString("trace-out"), "--odd-filename");
}

TEST(Args, MissingValueAtEndOfLineIsFatal)
{
    ArgParser p("prog", "test");
    p.addString("scale", "ci", "");
    const char *argv[] = {"prog", "--scale"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "needs a value");
}

TEST(Args, IntGarbageIsFatal)
{
    ArgParser p("prog", "test");
    p.addInt("frames", 1, "");
    const char *argv[] = {"prog", "--frames=lots"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "wants an integer");
}

TEST(Args, IntOverflowIsFatal)
{
    // strtoll saturates with ERANGE; a silently-clamped value must not
    // reach the program.
    ArgParser p("prog", "test");
    p.addInt("frames", 1, "");
    const char *argv[] = {"prog", "--frames=99999999999999999999"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "overflows");
}

TEST(Args, DoubleOverflowIsFatal)
{
    ArgParser p("prog", "test");
    p.addDouble("radius", 1.0, "");
    const char *argv[] = {"prog", "--radius=1e999"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "overflows");
}

TEST(Args, UnknownOptionIsFatal)
{
    ArgParser p("prog", "test");
    const char *argv[] = {"prog", "--nope"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "unknown option");
}

TEST(Args, PositionalArgumentIsFatal)
{
    ArgParser p("prog", "test");
    const char *argv[] = {"prog", "stray"};
    EXPECT_EXIT(p.parse(2, argv), ::testing::ExitedWithCode(1),
                "positional");
}

// -------------------------------------------------------------------- env --

TEST(Env, SizeParsesAndTrims)
{
    ::setenv("GWS_TEST_SIZE", " 4096 ", 1);
    EXPECT_EQ(envSize("GWS_TEST_SIZE", 7), 4096u);
    ::unsetenv("GWS_TEST_SIZE");
    EXPECT_EQ(envSize("GWS_TEST_SIZE", 7), 7u);
}

TEST(Env, SizeRejectsGarbageNegativeAndOverflow)
{
    const int before = warnCount();
    ::setenv("GWS_TEST_SIZE", "many", 1);
    EXPECT_EQ(envSize("GWS_TEST_SIZE", 7), 7u);
    ::setenv("GWS_TEST_SIZE", "-4", 1);
    EXPECT_EQ(envSize("GWS_TEST_SIZE", 7), 7u);
    ::setenv("GWS_TEST_SIZE", "99999999999999999999999", 1);
    EXPECT_EQ(envSize("GWS_TEST_SIZE", 7), 7u);
    ::setenv("GWS_TEST_SIZE", "12cores", 1);
    EXPECT_EQ(envSize("GWS_TEST_SIZE", 7), 7u);
    EXPECT_EQ(warnCount(), before + 4);
    ::unsetenv("GWS_TEST_SIZE");
}

// ---------------------------------------------------------------- logging --

TEST(Logging, WarnIncrementsCounter)
{
    const int before = warnCount();
    GWS_WARN("test warning ", 42);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(Logging, WarnFeedsObservability)
{
    // Warnings must surface in both observability sinks: the
    // gws.warnings counter (--metrics-out) and, while the tracer
    // records, an instant event carrying the message (--trace-out).
    obs::Counter &warnings =
        obs::metricsRegistry().counter("gws.warnings");
    const std::uint64_t before = warnings.value();

    obs::traceBegin();
    GWS_WARN("observable warning ", 7);
    obs::traceEnd();

    EXPECT_EQ(warnings.value(), before + 1);
    bool found = false;
    for (const auto &e : obs::traceSnapshot())
        if (e.phase == obs::TracePhase::Instant && e.name == "warn" &&
            e.detail.find("observable warning 7") != std::string::npos)
            found = true;
    EXPECT_TRUE(found);
}

TEST(Codec, PayloadCapFromRawPassesPlausibleValues)
{
    EXPECT_EQ(framedPayloadCapFromRaw(1), 1u);
    EXPECT_EQ(framedPayloadCapFromRaw(4096), 4096u);
    EXPECT_EQ(framedPayloadCapFromRaw(maxFramedPayloadBytes),
              maxFramedPayloadBytes);
}

TEST(Codec, PayloadCapFromRawZeroFallsBackToDefault)
{
    // GWS_MAX_PAYLOAD=0 would reject every payload; it warns and
    // keeps the default instead.
    const int before = warnCount();
    EXPECT_EQ(framedPayloadCapFromRaw(0), maxFramedPayloadBytes);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(Codec, PayloadCapFromRawClampsToU32)
{
    const int before = warnCount();
    EXPECT_EQ(framedPayloadCapFromRaw(1ull << 40), 0xffffffffu);
    EXPECT_EQ(warnCount(), before + 1);
}

TEST(Logging, AssertDeathOnViolation)
{
    EXPECT_DEATH(GWS_ASSERT(1 == 2, "impossible"), "assertion failed");
}

TEST(Logging, PanicDeath)
{
    EXPECT_DEATH(GWS_PANIC("boom ", 7), "boom 7");
}

} // namespace
} // namespace gws
