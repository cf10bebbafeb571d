// Cross-module edge cases: boundary values, degenerate spaces, and
// consistency properties that the per-module suites do not pin down.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "core/breed.hpp"
#include "core/ga.hpp"
#include "exp/experiment.hpp"
#include "fft/fft_generator.hpp"
#include "noc/network_generator.hpp"
#include "noc/router_generator.hpp"

namespace nautilus {
namespace {

using ip::Metric;

// ---- degenerate parameter spaces ---------------------------------------------

TEST(EdgeSpaces, SingleParameterSingleValueSpace)
{
    ParameterSpace space;
    space.add("only", ParamDomain::int_range(5, 5));
    const EvalFn eval = [](const Genome&) { return Evaluation{true, 1.0}; };
    GaConfig cfg;
    cfg.generations = 3;
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    const RunResult r = engine.run();
    // Only one point exists: exactly one distinct evaluation ever.
    EXPECT_EQ(r.distinct_evals, 1u);
    EXPECT_DOUBLE_EQ(r.best_eval.value, 1.0);
}

TEST(EdgeSpaces, TwoPointSpaceConverges)
{
    ParameterSpace space;
    space.add("bit", ParamDomain::boolean());
    const EvalFn eval = [](const Genome& g) {
        return Evaluation{true, g.gene(0) == 1 ? 10.0 : 1.0};
    };
    GaConfig cfg;
    cfg.generations = 5;
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_DOUBLE_EQ(r.best_eval.value, 10.0);
    EXPECT_LE(r.distinct_evals, 2u);
}

TEST(EdgeSpaces, MutationOnAllSingleValueDomainsIsHarmless)
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(1, 1));
    space.add("b", ParamDomain::int_range(2, 2));
    const HintSet hints = HintSet::none(space);
    BreedContext ctx{space, hints, 1.0};
    Rng rng{1};
    Genome g = Genome::zeros(space);
    EXPECT_EQ(ctx.mutate(g, rng), 0u);
    EXPECT_EQ(g, Genome::zeros(space));
}

// ---- extreme objective values -------------------------------------------------

TEST(EdgeObjectives, NegativeValuedMaximization)
{
    ParameterSpace space;
    space.add("x", ParamDomain::int_range(0, 9));
    const EvalFn eval = [](const Genome& g) {
        return Evaluation{true, -100.0 + static_cast<double>(g.gene(0))};
    };
    GaConfig cfg;
    cfg.generations = 25;
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_DOUBLE_EQ(r.best_eval.value, -91.0);
}

TEST(EdgeObjectives, HugeMagnitudesSurviveRouletteNormalization)
{
    ParameterSpace space;
    space.add("x", ParamDomain::int_range(0, 9));
    const EvalFn eval = [](const Genome& g) {
        return Evaluation{true, 1e15 + 1e12 * static_cast<double>(g.gene(0))};
    };
    GaConfig cfg;
    cfg.generations = 25;
    const GaEngine engine{space, cfg, Direction::minimize, eval, HintSet::none(space)};
    const RunResult r = engine.run();
    EXPECT_DOUBLE_EQ(r.best_eval.value, 1e15);
}

TEST(EdgeObjectives, SingleFeasiblePointIsFound)
{
    ParameterSpace space;
    space.add("x", ParamDomain::int_range(0, 9));
    space.add("y", ParamDomain::int_range(0, 9));
    const EvalFn eval = [](const Genome& g) -> Evaluation {
        if (g.gene(0) != 7 || g.gene(1) != 3) return {false, 0.0};
        return {true, 42.0};
    };
    GaConfig cfg;
    cfg.generations = 80;
    cfg.seed = 4;
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    const RunResult r = engine.run();
    // 100-point space, 80 generations: the needle should be found.
    EXPECT_TRUE(r.best_eval.feasible);
    EXPECT_DOUBLE_EQ(r.best_eval.value, 42.0);
}

// ---- hint corner cases ---------------------------------------------------------

TEST(EdgeHints, MergeOfSingleComponentIsIdentityOnBias)
{
    ParameterSpace space;
    space.add("x", ParamDomain::int_range(0, 9));
    HintSet a = HintSet::none(space);
    a.param(0).bias = 0.4;
    a.param(0).importance = 25.0;
    const std::vector<WeightedHintSet> one{{&a, 2.0}};
    const HintSet merged = merge_hints(one);
    EXPECT_DOUBLE_EQ(*merged.param(0).bias, 0.4);
    EXPECT_DOUBLE_EQ(merged.param(0).importance, 25.0);
}

TEST(EdgeHints, DoubleNegationIsIdentity)
{
    ParameterSpace space;
    space.add("x", ParamDomain::int_range(0, 9));
    HintSet a = HintSet::none(space);
    a.param(0).bias = -0.3;
    const HintSet back = a.negated_bias().negated_bias();
    EXPECT_DOUBLE_EQ(*back.param(0).bias, -0.3);
}

TEST(EdgeHints, TargetAtDomainBoundaryIsValid)
{
    ParameterSpace space;
    space.add("x", ParamDomain::pow2(2, 6));  // 4..64
    HintSet h = HintSet::none(space);
    h.param(0).target = 4.0;
    EXPECT_NO_THROW(h.validate(space));
    h.param(0).target = 64.0;
    EXPECT_NO_THROW(h.validate(space));
}

TEST(EdgeHints, ValueDistributionWithTargetEqualCurrent)
{
    // Target index == current index: mass must flow to the neighbors, not
    // vanish.
    const auto d = ParamDomain::int_range(0, 9);
    ParamHints h;
    h.target = 5.0;
    const auto w = value_distribution(d, h, 0.9, 5);
    double total = 0.0;
    for (double v : w) total += v;
    EXPECT_NEAR(total, 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(w[5], 0.0);
    EXPECT_GT(w[4] + w[6], 0.3);  // neighbors inherit the peak
}

// ---- run_stats boundaries ------------------------------------------------------

TEST(EdgeCurves, ValueAtExactBoundaries)
{
    Curve c{Direction::maximize};
    c.append(10, 1.0);
    c.append(20, 2.0);
    EXPECT_DOUBLE_EQ(*c.value_at(10.0), 1.0);
    EXPECT_DOUBLE_EQ(*c.value_at(20.0), 2.0);
    EXPECT_FALSE(c.value_at(9.999).has_value());
}

TEST(EdgeCurves, MeanCurveWithIdenticalRuns)
{
    MultiRunCurve m{Direction::minimize};
    for (int i = 0; i < 3; ++i) {
        Curve c{Direction::minimize};
        c.append(5, 50.0);
        c.append(15, 30.0);
        m.add_run(std::move(c));
    }
    const auto mean = m.mean_curve({5.0, 15.0});
    EXPECT_DOUBLE_EQ(mean[0].best, 50.0);
    EXPECT_DOUBLE_EQ(mean[1].best, 30.0);
}

// ---- generator consistency properties ------------------------------------------

class RouterConsistencySweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RouterConsistencySweep, DerivedMetricsAreConsistent)
{
    const noc::RouterGenerator gen;
    Rng rng{GetParam()};
    for (int i = 0; i < 50; ++i) {
        const Genome g = Genome::random(gen.space(), rng);
        const auto mv = gen.evaluate(g);
        ASSERT_TRUE(mv.feasible);
        EXPECT_NEAR(mv.get(Metric::period_ns) * mv.get(Metric::freq_mhz), 1000.0, 1e-6);
        EXPECT_NEAR(mv.get(Metric::area_delay_product),
                    mv.get(Metric::period_ns) * mv.get(Metric::area_luts), 1e-6);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RouterConsistencySweep, ::testing::Values(1u, 2u, 3u));

TEST(EdgeGenerators, FftSnrCacheGivesIdenticalRepeats)
{
    const fft::FftGenerator gen;  // SNR measurement on
    Genome g = Genome::zeros(gen.space());
    g.set_gene(fft::fft_gene::scaling, 1);
    const double a = gen.evaluate(g).get(Metric::snr_db);
    const double b = gen.evaluate(g).get(Metric::snr_db);
    EXPECT_DOUBLE_EQ(a, b);

    // Streaming width does not affect the SNR key: same quantization, same
    // measured SNR.
    Genome wider = g;
    wider.set_gene(fft::fft_gene::streaming_width, 2);
    EXPECT_DOUBLE_EQ(gen.evaluate(wider).get(Metric::snr_db), a);
}

TEST(EdgeGenerators, FftDspAndBramMetricsBehave)
{
    const fft::FftGenerator gen{synth::FpgaTech::virtex6_lx760t(), false};
    // Narrow widths -> DSP multipliers; wide -> LUT multipliers, zero DSPs.
    Genome narrow = Genome::zeros(gen.space());
    narrow.set_gene(fft::fft_gene::data_width, 0);  // 8 bits
    Genome wide = narrow;
    wide.set_gene(fft::fft_gene::data_width, 9);  // 26 bits
    EXPECT_GT(gen.evaluate(narrow).get(Metric::dsps), 0.0);
    EXPECT_DOUBLE_EQ(gen.evaluate(wide).get(Metric::dsps), 0.0);

    // Large transforms spill stream buffers into block RAM.
    Genome big = narrow;
    big.set_gene(fft::fft_gene::log2n, 6);  // n = 4096
    EXPECT_GT(gen.evaluate(big).get(Metric::brams), 0.0);
    EXPECT_DOUBLE_EQ(gen.evaluate(narrow).get(Metric::brams), 0.0);
}

TEST(EdgeGenerators, NetworkLatencyMetricsAreConsistent)
{
    const noc::NetworkGenerator gen;
    Rng rng{11};
    for (int i = 0; i < 30; ++i) {
        const Genome g = Genome::random(gen.space(), rng);
        const auto mv = gen.evaluate(g);
        ASSERT_TRUE(mv.feasible);
        EXPECT_GT(mv.get(Metric::latency_ns), 0.0);
        EXPECT_GT(mv.get(Metric::saturation_injection), 0.0);
        EXPECT_LE(mv.get(Metric::saturation_injection), 1.3);
    }
}

TEST(EdgeGenerators, NetworkButterflyHasLowestZeroLoadHops)
{
    const noc::NetworkGenerator gen;
    EXPECT_LT(gen.traffic(noc::TopologyKind::butterfly).avg_hops,
              gen.traffic(noc::TopologyKind::mesh).avg_hops);
}

// ---- experiment harness edges ---------------------------------------------------

TEST(EdgeExperiment, GridPointsControlSeriesResolution)
{
    ParameterSpace space;
    space.add("x", ParamDomain::int_range(0, 9));

    class Tiny final : public ip::IpGenerator {
    public:
        explicit Tiny(const ParameterSpace& s) : space_(s) {}
        std::string name() const override { return "tiny"; }
        const ParameterSpace& space() const override { return space_; }
        std::vector<Metric> metrics() const override { return {Metric::area_luts}; }
        ip::MetricValues evaluate(const Genome& g) const override
        {
            ip::MetricValues mv;
            mv.set(Metric::area_luts, 10.0 + g.gene(0));
            return mv;
        }

    private:
        const ParameterSpace& space_;
    } gen{space};

    exp::ExperimentConfig cfg;
    cfg.runs = 3;
    cfg.ga.generations = 5;
    cfg.grid_points = 7;
    exp::Experiment e{gen, exp::Query::simple("q", Metric::area_luts, Direction::minimize),
                      cfg};
    e.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    const auto r = e.run();
    EXPECT_EQ(r.shared_grid().size(), 7u);
}

TEST(EdgeSeries, TableHandlesMissingLeadingValues)
{
    std::ostringstream out;
    // Second series starts later than the first grid point: renders "-".
    exp::print_series_table(out, "x", "y", {1.0, 10.0},
                            {{"early", {{1, 1.0}}}, {"late", {{10, 2.0}}}});
    EXPECT_NE(out.str().find('-'), std::string::npos);
}

TEST(EdgeSeries, ChartToleratesFlatSeries)
{
    std::ostringstream out;
    exp::print_ascii_chart(out, "flat", {{"s", {{0, 5.0}, {100, 5.0}}}}, 20, 5);
    EXPECT_NE(out.str().find("flat"), std::string::npos);
}

}  // namespace
}  // namespace nautilus
