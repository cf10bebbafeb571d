#include "ip/ip_generator.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace nautilus::ip {
namespace {

// Every Metric, in declaration order.
std::vector<Metric> all_metrics()
{
    std::vector<Metric> all;
    for (std::size_t i = 0; i < k_metric_count; ++i) all.push_back(static_cast<Metric>(i));
    return all;
}

TEST(Metric, NamesRoundTrip)
{
    const std::vector<Metric> all = all_metrics();
    EXPECT_EQ(all.back(), Metric::saturation_injection);
    for (Metric m : all) {
        const auto parsed = metric_from_name(metric_name(m));
        ASSERT_TRUE(parsed.has_value()) << metric_name(m);
        EXPECT_EQ(*parsed, m);
        EXPECT_NE(metric_unit(m), nullptr);
    }
    EXPECT_FALSE(metric_from_name("not_a_metric").has_value());
}

TEST(Metric, DefaultDirectionsMakeSense)
{
    EXPECT_EQ(metric_default_direction(Metric::area_luts), Direction::minimize);
    EXPECT_EQ(metric_default_direction(Metric::freq_mhz), Direction::maximize);
    EXPECT_EQ(metric_default_direction(Metric::throughput_per_lut), Direction::maximize);
    EXPECT_EQ(metric_default_direction(Metric::power_mw), Direction::minimize);
}

TEST(MetricValues, SetGetAndOverwrite)
{
    MetricValues mv;
    mv.set(Metric::area_luts, 100.0);
    EXPECT_TRUE(mv.has(Metric::area_luts));
    EXPECT_DOUBLE_EQ(mv.get(Metric::area_luts), 100.0);
    mv.set(Metric::area_luts, 200.0);
    EXPECT_DOUBLE_EQ(mv.get(Metric::area_luts), 200.0);
    EXPECT_EQ(mv.try_get(Metric::area_luts), 200.0);
    // Overwriting one metric leaves every other one absent.
    for (Metric m : all_metrics()) {
        if (m == Metric::area_luts) continue;
        EXPECT_FALSE(mv.has(m)) << metric_name(m);
        EXPECT_FALSE(mv.try_get(m).has_value()) << metric_name(m);
    }
}

TEST(MetricValues, EveryMetricHoldsItsOwnValue)
{
    const std::vector<Metric> all = all_metrics();
    MetricValues mv;
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_FALSE(mv.has(all[i])) << metric_name(all[i]);
        mv.set(all[i], 10.0 * static_cast<double>(i) - 3.5);
        // Setting one metric reveals it and no later one.
        for (std::size_t j = 0; j < all.size(); ++j)
            EXPECT_EQ(mv.has(all[j]), j <= i) << metric_name(all[j]);
    }
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(mv.get(all[i]), 10.0 * static_cast<double>(i) - 3.5) << metric_name(all[i]);
        EXPECT_EQ(mv.try_get(all[i]), 10.0 * static_cast<double>(i) - 3.5);
    }
    // Overwrite in reverse order; each slot keeps only its last value.
    for (std::size_t i = all.size(); i-- > 0;) mv.set(all[i], -static_cast<double>(i));
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(mv.get(all[i]), -static_cast<double>(i)) << metric_name(all[i]);
}

TEST(MetricValues, MissingMetricThrowsOrReturnsNullopt)
{
    const MetricValues mv;
    EXPECT_THROW(mv.get(Metric::snr_db), std::out_of_range);
    EXPECT_FALSE(mv.try_get(Metric::snr_db).has_value());
}

TEST(MetricValues, InfeasiblePoint)
{
    const MetricValues mv = MetricValues::infeasible_point();
    EXPECT_FALSE(mv.feasible);
    for (Metric m : all_metrics()) {
        EXPECT_FALSE(mv.has(m)) << metric_name(m);
        EXPECT_FALSE(mv.try_get(m).has_value()) << metric_name(m);
        EXPECT_THROW(mv.get(m), std::out_of_range) << metric_name(m);
    }
}

TEST(DeriveComposites, PeriodFromFrequency)
{
    MetricValues mv;
    mv.set(Metric::freq_mhz, 250.0);
    derive_composites(mv);
    EXPECT_DOUBLE_EQ(mv.get(Metric::period_ns), 4.0);
}

TEST(DeriveComposites, AreaDelayProduct)
{
    MetricValues mv;
    mv.set(Metric::freq_mhz, 100.0);
    mv.set(Metric::area_luts, 500.0);
    derive_composites(mv);
    EXPECT_DOUBLE_EQ(mv.get(Metric::area_delay_product), 5000.0);
}

TEST(DeriveComposites, ThroughputPerLut)
{
    MetricValues mv;
    mv.set(Metric::throughput_msps, 800.0);
    mv.set(Metric::area_luts, 400.0);
    derive_composites(mv);
    EXPECT_DOUBLE_EQ(mv.get(Metric::throughput_per_lut), 2.0);
}

TEST(DeriveComposites, DoesNotOverwriteExplicitValues)
{
    MetricValues mv;
    mv.set(Metric::freq_mhz, 100.0);
    mv.set(Metric::period_ns, 7.0);  // explicitly characterized
    derive_composites(mv);
    EXPECT_DOUBLE_EQ(mv.get(Metric::period_ns), 7.0);
}

TEST(DeriveComposites, SkipsInfeasibleAndZeroDenominators)
{
    MetricValues infeasible = MetricValues::infeasible_point();
    derive_composites(infeasible);
    for (Metric m : all_metrics()) EXPECT_FALSE(infeasible.has(m)) << metric_name(m);

    MetricValues zero_luts;
    zero_luts.set(Metric::throughput_msps, 10.0);
    zero_luts.set(Metric::area_luts, 0.0);
    derive_composites(zero_luts);
    EXPECT_FALSE(zero_luts.has(Metric::throughput_per_lut));
}

// Minimal generator to exercise the IpGenerator adapters.
class ToyGenerator final : public IpGenerator {
public:
    ToyGenerator()
    {
        space_.add("x", ParamDomain::int_range(0, 9));
    }

    std::string name() const override { return "toy"; }
    const ParameterSpace& space() const override { return space_; }
    std::vector<Metric> metrics() const override
    {
        return {Metric::area_luts, Metric::freq_mhz};
    }
    MetricValues evaluate(const Genome& g) const override
    {
        if (g.gene(0) == 9) return MetricValues::infeasible_point();
        MetricValues mv;
        mv.set(Metric::area_luts, 100.0 + g.gene(0));
        mv.set(Metric::freq_mhz, 200.0 - g.gene(0));
        return mv;
    }

private:
    ParameterSpace space_;
};

TEST(IpGenerator, MetricEvalReturnsRequestedMetric)
{
    const ToyGenerator gen;
    const EvalFn eval = gen.metric_eval(Metric::freq_mhz);
    const Evaluation e = eval(Genome{{3}});
    EXPECT_TRUE(e.feasible);
    EXPECT_DOUBLE_EQ(e.value, 197.0);
}

TEST(IpGenerator, MetricEvalPropagatesInfeasibility)
{
    const ToyGenerator gen;
    const EvalFn eval = gen.metric_eval(Metric::area_luts);
    EXPECT_FALSE(eval(Genome{{9}}).feasible);
}

TEST(IpGenerator, MetricEvalMissingMetricIsInfeasible)
{
    const ToyGenerator gen;
    const EvalFn eval = gen.metric_eval(Metric::snr_db);
    EXPECT_FALSE(eval(Genome{{1}}).feasible);
}

TEST(IpGenerator, DefaultAuthorHintsAreBaseline)
{
    const ToyGenerator gen;
    const HintSet hints = gen.author_hints(Metric::area_luts);
    EXPECT_TRUE(hints.is_baseline());
    EXPECT_NO_THROW(hints.validate(gen.space()));
}

}  // namespace
}  // namespace nautilus::ip
