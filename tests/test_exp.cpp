#include "exp/experiment.hpp"

#include <gtest/gtest.h>

#include "core/local_search.hpp"

#include <cmath>
#include <iomanip>
#include <sstream>

namespace nautilus::exp {
namespace {

using ip::Metric;

// Small IP with author hints, enumerable space, known best points.
class HintedGenerator final : public ip::IpGenerator {
public:
    HintedGenerator()
    {
        space_.add("x", ParamDomain::int_range(0, 9));
        space_.add("y", ParamDomain::int_range(0, 9));
        space_.add("z", ParamDomain::int_range(0, 9));
    }

    std::string name() const override { return "hinted"; }
    const ParameterSpace& space() const override { return space_; }
    std::vector<Metric> metrics() const override
    {
        return {Metric::area_luts, Metric::freq_mhz, Metric::area_delay_product};
    }
    ip::MetricValues evaluate(const Genome& g) const override
    {
        // area grows with x and y; freq grows with z and shrinks with x.
        ip::MetricValues mv;
        mv.set(Metric::area_luts, 100.0 + 30.0 * g.gene(0) + 10.0 * g.gene(1));
        mv.set(Metric::freq_mhz, 100.0 + 15.0 * g.gene(2) - 5.0 * g.gene(0));
        ip::derive_composites(mv);
        return mv;
    }
    HintSet author_hints(Metric m) const override
    {
        HintSet h = HintSet::none(space_);
        if (m == Metric::area_luts) {
            h.param(0).importance = 90.0;
            h.param(0).bias = 0.9;
            h.param(1).importance = 40.0;
            h.param(1).bias = 0.5;
        }
        if (m == Metric::freq_mhz) {
            h.param(2).importance = 90.0;
            h.param(2).bias = 0.9;
            h.param(0).importance = 40.0;
            h.param(0).bias = -0.4;
        }
        return h;
    }

private:
    ParameterSpace space_;
};

TEST(Query, SimpleConstruction)
{
    const Query q = Query::simple("q", Metric::freq_mhz, Direction::maximize);
    EXPECT_EQ(q.metric, Metric::freq_mhz);
    EXPECT_EQ(q.direction, Direction::maximize);
    EXPECT_TRUE(q.hint_components.empty());
}

TEST(QueryHints, MaximizeKeepsAuthorOrientation)
{
    const HintedGenerator gen;
    const Query q = Query::simple("max-freq", Metric::freq_mhz, Direction::maximize);
    const HintSet h = query_hints(gen, q);
    EXPECT_DOUBLE_EQ(*h.param(2).bias, 0.9);
    EXPECT_DOUBLE_EQ(h.confidence(), 0.0);
}

TEST(QueryHints, MinimizeFoldsBias)
{
    const HintedGenerator gen;
    const Query q = Query::simple("min-area", Metric::area_luts, Direction::minimize);
    const HintSet h = query_hints(gen, q);
    // Author says area grows with x; to minimize, the engine should push x
    // down: folded bias is negative.
    EXPECT_DOUBLE_EQ(*h.param(0).bias, -0.9);
}

TEST(QueryHints, CompositeMergesComponents)
{
    const HintedGenerator gen;
    Query q = Query::simple("adp", Metric::area_delay_product, Direction::minimize);
    q.hint_components = {{Metric::area_luts, Direction::minimize, 0.5},
                         {Metric::freq_mhz, Direction::maximize, 0.5}};
    const HintSet h = query_hints(gen, q);
    EXPECT_NO_THROW(h.validate(gen.space()));
    // x hurts area (fold: -0.9) and hurts freq (fold: -0.4): merged negative.
    ASSERT_TRUE(h.param(0).bias.has_value());
    EXPECT_LT(*h.param(0).bias, 0.0);
    // z helps freq only: positive.
    ASSERT_TRUE(h.param(2).bias.has_value());
    EXPECT_GT(*h.param(2).bias, 0.0);
}

ExperimentConfig tiny_config()
{
    ExperimentConfig cfg;
    cfg.runs = 6;
    cfg.ga.generations = 15;
    cfg.ga.seed = 21;
    return cfg;
}

TEST(Experiment, RequiresEngines)
{
    const HintedGenerator gen;
    Experiment e{gen, Query::simple("q", Metric::freq_mhz, Direction::maximize),
                 tiny_config()};
    EXPECT_THROW(e.run(), std::logic_error);
}

TEST(Experiment, RunsAllEngines)
{
    const HintedGenerator gen;
    Experiment e{gen, Query::simple("q", Metric::freq_mhz, Direction::maximize),
                 tiny_config()};
    e.add_standard_engines();
    const ExperimentResult r = e.run();
    ASSERT_EQ(r.engines.size(), 3u);
    for (const auto& er : r.engines) {
        EXPECT_EQ(er.curve.runs(), 6u);
        EXPECT_EQ(er.run_evals.size(), 6u);
        EXPECT_EQ(er.generation_best.size(), 6u);
    }
}

TEST(Experiment, RandomSearchCanBeEnabled)
{
    const HintedGenerator gen;
    Experiment e{gen, Query::simple("q", Metric::freq_mhz, Direction::maximize),
                 tiny_config()};
    e.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    e.add_engine({"random", GuidanceLevel::none, std::nullopt, std::nullopt,
                  EngineKind::random, 50});
    const ExperimentResult r = e.run();
    ASSERT_EQ(r.engines.size(), 2u);
    const EngineResult& random = r.engines[1];
    EXPECT_EQ(random.curve.runs(), 6u);
    // Each run spends exactly its distinct-evaluation budget.
    for (std::size_t evals : random.run_evals) EXPECT_EQ(evals, 50u);
    EXPECT_EQ(random.eval.distinct_evals, 300u);
    EXPECT_TRUE(random.generation_best.empty());
}

// A budgeted engine kind runs exactly as its engine's run_many at the seed
// ga.seed ^ 0x5eed, with the spec's guidance applied to the author hints.
TEST(Experiment, BudgetedKindsMatchTheirEnginesRunMany)
{
    const HintedGenerator gen;
    const Query q = Query::simple("q", Metric::freq_mhz, Direction::maximize);
    Experiment e{gen, q, tiny_config()};
    e.add_engine({"hc", GuidanceLevel::strong, std::nullopt, std::nullopt,
                  EngineKind::hill_climb, 30});
    e.add_engine({"sa", GuidanceLevel::none, std::nullopt, std::nullopt, EngineKind::anneal,
                  30});
    const ExperimentResult r = e.run();

    HintSet hints = query_hints(gen, q);
    hints.set_confidence(guidance_confidence(GuidanceLevel::strong, 0.0));
    HillClimbConfig hc;
    hc.max_distinct_evals = 30;
    hc.seed = tiny_config().ga.seed ^ 0x5eedull;
    const MultiRunCurve direct =
        HillClimber{gen.space(), hc, q.direction, query_eval(gen, q), hints}.run_many(6);
    const MultiRunCurve& via = r.engines[0].curve;
    ASSERT_EQ(via.runs(), direct.runs());
    for (std::size_t i = 0; i < via.runs(); ++i) {
        EXPECT_EQ(via.run(i).final_best(), direct.run(i).final_best());
        EXPECT_EQ(via.run(i).final_evals(), direct.run(i).final_evals());
    }
    for (const EngineResult& er : r.engines) {
        EXPECT_EQ(er.run_evals.size(), 6u);
        for (std::size_t evals : er.run_evals) EXPECT_LE(evals, 30u);
    }
}

TEST(Experiment, DatasetAndLiveEvaluationAgree)
{
    const HintedGenerator gen;
    const ip::Dataset ds = ip::Dataset::enumerate(gen);
    const Query q = Query::simple("q", Metric::freq_mhz, Direction::maximize);

    Experiment live{gen, q, tiny_config()};
    live.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    Experiment cached{gen, q, tiny_config()};
    cached.use_dataset(ds);
    cached.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});

    // Deterministic evaluation + deterministic seeds: identical results.
    const auto a = live.run();
    const auto b = cached.run();
    EXPECT_DOUBLE_EQ(a.engines[0].curve.mean_final_best(),
                     b.engines[0].curve.mean_final_best());
}

TEST(Experiment, ConfidenceOverrideIsApplied)
{
    const HintedGenerator gen;
    Experiment e{gen, Query::simple("q", Metric::freq_mhz, Direction::maximize),
                 tiny_config()};
    e.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    e.add_engine({"custom", GuidanceLevel::custom, std::nullopt, 0.99});
    const ExperimentResult r = e.run();
    // Strongly-guided custom engine should do at least as well on this
    // easy monotone query.
    EXPECT_GE(r.engines[1].curve.mean_final_best() + 5.0,
              r.engines[0].curve.mean_final_best());
}

TEST(Experiment, HintsOverrideReplacesAuthorHints)
{
    const HintedGenerator gen;
    HintSet inverted = HintSet::none(gen.space());
    inverted.param(2).bias = -0.9;  // wrong direction on purpose
    inverted.param(2).importance = 90.0;

    Experiment e{gen, Query::simple("q", Metric::freq_mhz, Direction::maximize),
                 tiny_config()};
    e.add_engine({"author", GuidanceLevel::strong, std::nullopt, std::nullopt});
    e.add_engine({"inverted", GuidanceLevel::strong, inverted, std::nullopt});
    const ExperimentResult r = e.run();
    EXPECT_GE(r.engines[0].curve.mean_final_best(),
              r.engines[1].curve.mean_final_best() - 5.0);
}

TEST(ExperimentResult, SeriesAndGridAreConsistent)
{
    const HintedGenerator gen;
    Experiment e{gen, Query::simple("q", Metric::area_luts, Direction::minimize),
                 tiny_config()};
    e.add_standard_engines();
    const ExperimentResult r = e.run();
    const auto grid = r.shared_grid();
    const auto series = r.series();
    EXPECT_EQ(series.size(), 3u);
    EXPECT_FALSE(grid.empty());
    for (const auto& s : series) {
        EXPECT_FALSE(s.points.empty());
        // Mean curves are monotone improving for a minimize query.
        for (std::size_t i = 1; i < s.points.size(); ++i)
            EXPECT_LE(s.points[i].best, s.points[i - 1].best + 1e-9);
    }
}

TEST(ExperimentResult, PrintProducesReadableReport)
{
    const HintedGenerator gen;
    Experiment e{gen, Query::simple("toy-query", Metric::freq_mhz, Direction::maximize),
                 tiny_config()};
    e.add_standard_engines();
    const ExperimentResult r = e.run();
    std::ostringstream out;
    r.print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("toy-query"), std::string::npos);
    EXPECT_NE(text.find("baseline"), std::string::npos);
    EXPECT_NE(text.find("nautilus-strong"), std::string::npos);
    EXPECT_NE(text.find("legend"), std::string::npos);

    std::ostringstream conv;
    r.print_convergence(conv, 200.0, "test threshold");
    EXPECT_NE(conv.str().find("test threshold"), std::string::npos);
}

// A result with hand-made curves: every engine is one run that reaches 300 MHz
// after `designs` evaluations.  Engine 0 is the baseline.
ExperimentResult reached_at(const std::vector<std::pair<std::string, double>>& engines)
{
    ExperimentResult r{Query::simple("q", Metric::freq_mhz, Direction::maximize),
                       ExperimentConfig{}, {}};
    for (const auto& [label, designs] : engines) {
        Curve run{Direction::maximize};
        run.append(10.0, 100.0);
        run.append(designs, 300.0);
        MultiRunCurve curve{Direction::maximize};
        curve.add_run(run);
        r.engines.emplace_back(EngineSpec{label, GuidanceLevel::none, std::nullopt, std::nullopt},
                               curve);
    }
    return r;
}

TEST(ExperimentResult, ConvergenceSeparatesLongLabelsAndSaysMoreWhenSlower)
{
    const std::string long_label = "simulated-annealing+hint";  // 24 characters
    ASSERT_EQ(long_label.size(), 24u);
    const ExperimentResult r =
        reached_at({{"baseline", 100.0}, {long_label, 250.0}, {"fast", 50.0}});
    std::ostringstream out;
    r.print_convergence(out, 200.0, "test threshold");
    const std::string text = out.str();

    const auto line_of = [&](const std::string& label) {
        const auto at = text.find("    " + label);
        EXPECT_NE(at, std::string::npos) << text;
        return text.substr(at, text.find('\n', at) - at);
    };
    const std::string slow = line_of(long_label);
    EXPECT_EQ(slow.substr(4 + long_label.size(), 1), " ") << slow;
    EXPECT_NE(slow.find("[2.50x more than baseline]"), std::string::npos) << slow;
    EXPECT_EQ(slow.find("fewer"), std::string::npos) << slow;
    EXPECT_NE(line_of("fast").find("[2.00x fewer than baseline]"), std::string::npos);
}

TEST(ExperimentResult, ReportsLeaveTheCallersStreamFormatAlone)
{
    const ExperimentResult r = reached_at({{"baseline", 100.0}, {"guided", 50.0}});
    std::ostringstream out;
    out << std::scientific << std::setprecision(9);
    const std::ios_base::fmtflags flags = out.flags();
    r.print(out);
    EXPECT_EQ(out.flags(), flags);
    EXPECT_EQ(out.precision(), 9);
    r.print_convergence(out, 200.0, "test threshold");
    EXPECT_EQ(out.flags(), flags);
    EXPECT_EQ(out.precision(), 9);
}

TEST(Series, ValueAtStepInterpolation)
{
    const std::vector<CurvePoint> pts{{10, 1.0}, {20, 2.0}};
    EXPECT_TRUE(std::isnan(series_value_at(pts, 5)));
    EXPECT_DOUBLE_EQ(series_value_at(pts, 10), 1.0);
    EXPECT_DOUBLE_EQ(series_value_at(pts, 15), 1.0);
    EXPECT_DOUBLE_EQ(series_value_at(pts, 25), 2.0);
}

TEST(Series, TableRendersAllColumns)
{
    std::ostringstream out;
    print_series_table(out, "evals", "metric", {10.0, 20.0},
                       {{"alpha", {{10, 1.0}, {20, 2.0}}}, {"beta", {{10, 3.0}}}});
    const std::string text = out.str();
    EXPECT_NE(text.find("alpha"), std::string::npos);
    EXPECT_NE(text.find("beta"), std::string::npos);
    EXPECT_NE(text.find("evals"), std::string::npos);
}

TEST(Series, AsciiChartHasLegendAndAxes)
{
    std::ostringstream out;
    print_ascii_chart(out, "chart-title", {{"alpha", {{0, 0.0}, {50, 5.0}, {100, 10.0}}}},
                      40, 10);
    const std::string text = out.str();
    EXPECT_NE(text.find("chart-title"), std::string::npos);
    EXPECT_NE(text.find("legend"), std::string::npos);
    EXPECT_NE(text.find("evals"), std::string::npos);
}

TEST(Series, ScatterRendersGroups)
{
    std::ostringstream out;
    ScatterOptions opts;
    opts.log_x = true;
    opts.log_y = true;
    print_scatter(out, "scatter", "x", "y",
                  {{"g1", 'a', {{1.0, 10.0}, {100.0, 1000.0}}},
                   {"g2", 'b', {{10.0, 100.0}}}},
                  opts);
    const std::string text = out.str();
    EXPECT_NE(text.find("scatter"), std::string::npos);
    EXPECT_NE(text.find("[a] g1"), std::string::npos);
    EXPECT_NE(text.find("(log)"), std::string::npos);
}

}  // namespace
}  // namespace nautilus::exp
