// End-to-end integration tests: the full paper workflow on reduced budgets.
//
// These exercise the complete pipeline -- IP generator, virtual synthesis,
// offline dataset, hint estimation, guided search, convergence accounting --
// and assert the paper's qualitative claims on deterministic seeds.

#include <gtest/gtest.h>

#include "core/hint_estimator.hpp"
#include "core/random_search.hpp"
#include "exp/experiment.hpp"
#include "fft/fft_generator.hpp"
#include "noc/router_generator.hpp"

namespace nautilus {
namespace {

using exp::EngineSpec;
using exp::Experiment;
using exp::ExperimentConfig;
using exp::ExperimentResult;
using exp::Query;
using ip::Dataset;
using ip::Metric;

ExperimentConfig integration_config(std::size_t runs = 10, std::size_t gens = 60)
{
    ExperimentConfig cfg;
    cfg.runs = runs;
    cfg.ga.generations = gens;
    cfg.ga.seed = 2015;  // DAC'15
    return cfg;
}

TEST(Integration, FftGuidedBeatsBaselineOnMinLuts)
{
    const fft::FftGenerator gen{synth::FpgaTech::virtex6_lx760t(), /*measure_snr=*/false};
    const Dataset ds = Dataset::enumerate(gen);
    const double best = ds.best(Metric::area_luts, Direction::minimize);

    Experiment e{gen, Query::simple("min-luts", Metric::area_luts, Direction::minimize),
                 integration_config()};
    e.use_dataset(ds);
    e.add_standard_engines();
    const ExperimentResult r = e.run();

    const double threshold = best * 1.10;
    const auto base = r.engines[0].curve.evals_to_reach(threshold);
    const auto strong = r.engines[2].curve.evals_to_reach(threshold);
    EXPECT_GE(strong.reached, base.reached);
    ASSERT_GT(strong.reached, 0u);
    ASSERT_GT(base.reached, 0u);
    EXPECT_LT(strong.mean_evals, base.mean_evals * 1.05);
}

TEST(Integration, FftStrongGuidanceIsFasterThanWeak)
{
    const fft::FftGenerator gen{synth::FpgaTech::virtex6_lx760t(), false};
    const Dataset ds = Dataset::enumerate(gen);
    const double best = ds.best(Metric::area_luts, Direction::minimize);

    Experiment e{gen, Query::simple("min-luts", Metric::area_luts, Direction::minimize),
                 integration_config(16)};
    e.use_dataset(ds);
    e.add_standard_engines();
    const ExperimentResult r = e.run();

    // At 2x the optimum (paper Fig. 6 secondary threshold) everyone should
    // arrive; the guided engines sooner.
    const double threshold = best * 2.0;
    const auto base = r.engines[0].curve.evals_to_reach(threshold);
    const auto strong = r.engines[2].curve.evals_to_reach(threshold);
    EXPECT_EQ(base.reached, base.runs);
    EXPECT_EQ(strong.reached, strong.runs);
    EXPECT_LT(strong.mean_evals, base.mean_evals);
}

TEST(Integration, GaBeatsRandomSamplingByFar)
{
    // Paper footnote 3: random sampling needs orders of magnitude more
    // evaluations than the GA to hit a tight quality target.
    const fft::FftGenerator gen{synth::FpgaTech::virtex6_lx760t(), false};
    const Dataset ds = Dataset::enumerate(gen);
    // A tight target where random sampling is genuinely expensive: the best
    // 0.1% of the feasible dataset.
    const double threshold =
        ds.percentile_threshold(Metric::area_luts, Direction::minimize, 0.001);

    // Analytic expectation for random sampling.
    const double hit = ds.hit_fraction(Metric::area_luts, Direction::minimize, threshold);
    const double random_expected = RandomSearch::expected_draws(hit);
    ASSERT_GE(random_expected, 500.0);

    Experiment e{gen, Query::simple("min-luts", Metric::area_luts, Direction::minimize),
                 integration_config()};
    e.use_dataset(ds);
    e.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    const ExperimentResult r = e.run();
    const auto base = r.engines[0].curve.evals_to_reach(threshold);
    ASSERT_GT(base.reached, 0u);
    EXPECT_LT(base.mean_evals, random_expected / 2.0);
}

TEST(Integration, NocEstimatedHintsHelpFrequencyQuery)
{
    // The paper's NoC flow: a non-expert estimates hints from 80 synthesized
    // samples, then Nautilus uses them.
    const noc::RouterGenerator gen;
    const HintEstimator estimator;
    const HintSet estimated =
        estimator.estimate(gen.space(), gen.metric_eval(Metric::freq_mhz));
    EXPECT_NO_THROW(estimated.validate(gen.space()));

    // Pipeline depth must be identified as the dominant frequency knob.
    const std::size_t pipe = noc::router_gene::pipeline_stages;
    ASSERT_TRUE(estimated.param(pipe).bias.has_value());
    EXPECT_GT(*estimated.param(pipe).bias, 0.3);
    for (std::size_t i = 0; i < gen.space().size(); ++i)
        EXPECT_LE(estimated.param(i).importance, estimated.param(pipe).importance);

    Experiment e{gen, Query::simple("max-freq", Metric::freq_mhz, Direction::maximize),
                 integration_config(16)};
    e.add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    e.add_engine({"estimated-strong", GuidanceLevel::strong, estimated, std::nullopt});
    const ExperimentResult r = e.run();
    // The paper's Fig. 4 claim: at an equal (early) evaluation budget the
    // guided search has found better designs.  Compare the mean best-so-far
    // curves at a small budget.
    const auto base_at = r.engines[0].curve.mean_curve({100.0});
    const auto guided_at = r.engines[1].curve.mean_curve({100.0});
    ASSERT_FALSE(base_at.empty());
    ASSERT_FALSE(guided_at.empty());
    EXPECT_GE(guided_at[0].best, base_at[0].best - 1.0);
    // And guided runs consume no more synthesis jobs over the whole run.
    auto mean_evals = [](const MultiRunCurve& curve) {
        double total = 0.0;
        for (std::size_t i = 0; i < curve.runs(); ++i) total += curve.run(i).final_evals();
        return total / static_cast<double>(curve.runs());
    };
    EXPECT_LT(mean_evals(r.engines[1].curve), mean_evals(r.engines[0].curve) * 1.05);
}

TEST(Integration, WholeExperimentIsReproducible)
{
    const fft::FftGenerator gen{synth::FpgaTech::virtex6_lx760t(), false};
    const Dataset ds = Dataset::enumerate(gen);
    const Query q = Query::simple("min-luts", Metric::area_luts, Direction::minimize);

    auto run_once = [&] {
        Experiment e{gen, q, integration_config(4, 20)};
        e.use_dataset(ds);
        e.add_standard_engines();
        return e.run();
    };
    const ExperimentResult a = run_once();
    const ExperimentResult b = run_once();
    for (std::size_t i = 0; i < a.engines.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.engines[i].curve.mean_final_best(),
                         b.engines[i].curve.mean_final_best());
    }
}

TEST(Integration, DatasetCostAccountingMatchesPaperSemantics)
{
    // Running against the dataset or the live generator must charge the same
    // number of distinct evaluations for the same seed.
    const fft::FftGenerator gen{synth::FpgaTech::virtex6_lx760t(), false};
    const Dataset ds = Dataset::enumerate(gen);
    const Query q = Query::simple("min-luts", Metric::area_luts, Direction::minimize);

    const HintSet hints = exp::query_hints(gen, q);
    GaConfig cfg;
    cfg.generations = 20;
    const GaEngine live{gen.space(), cfg, q.direction, exp::query_eval(gen, q), hints};
    const GaEngine cached{gen.space(), cfg, q.direction, ds.lookup_eval(q.metric), hints};
    const RunResult a = live.run(5);
    const RunResult b = cached.run(5);
    EXPECT_EQ(a.distinct_evals, b.distinct_evals);
    EXPECT_DOUBLE_EQ(a.best_eval.value, b.best_eval.value);
}

TEST(Integration, Figure3StyleScoreCurves)
{
    // Fig. 3: design-solution score (%) per generation, bias hints only.
    const fft::FftGenerator gen{synth::FpgaTech::virtex6_lx760t(), false};
    const Dataset ds = Dataset::enumerate(gen);
    const Query q = Query::simple("min-luts", Metric::area_luts, Direction::minimize);

    HintSet bias_only = HintSet::none(gen.space());
    bias_only.param(fft::fft_gene::streaming_width).bias = -0.8;  // folded for minimize
    bias_only.param(fft::fft_gene::data_width).bias = -0.7;

    GaConfig cfg;
    cfg.generations = 40;
    cfg.seed = 33;
    const GaEngine baseline{gen.space(), cfg, q.direction, ds.lookup_eval(q.metric),
                            HintSet::none(gen.space())};
    HintSet guided_hints = bias_only;
    guided_hints.set_confidence(0.8);
    const GaEngine guided{gen.space(), cfg, q.direction, ds.lookup_eval(q.metric),
                          guided_hints};

    // Average generation-indexed scores over a few runs.
    auto mean_score_at_gen = [&](const GaEngine& engine, std::size_t gen_idx) {
        double total = 0.0;
        Rng seeder{77};
        constexpr int runs = 8;
        for (int i = 0; i < runs; ++i) {
            const RunResult r = engine.run(seeder.next_u64());
            total += ds.quality_percent(q.metric, q.direction,
                                        r.history[gen_idx].best_so_far);
        }
        return total / runs;
    };
    const double base_late = mean_score_at_gen(baseline, 35);
    const double guided_early = mean_score_at_gen(guided, 12);
    // Guided with bias hints reaches comparable scores in ~1/3 the
    // generations (paper: 15-23 vs 56).
    EXPECT_GT(guided_early, base_late - 2.0);
    EXPECT_GT(guided_early, 90.0);
}

}  // namespace
}  // namespace nautilus
