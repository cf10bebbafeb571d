#include "core/selection.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

namespace nautilus {
namespace {

constexpr double k_inf = std::numeric_limits<double>::infinity();

// One pick from a freshly rebuilt table.
std::size_t pick_parent(std::span<const double> fitness, const SelectionConfig& cfg,
                          Rng& rng)
{
    SelectionTable table;
    table.rebuild(fitness, cfg);
    return table.select(rng);
}

std::vector<std::size_t> ranked(std::span<const double> fitness)
{
    std::vector<std::size_t> order;
    rank_order_into(order, fitness);
    return order;
}

std::vector<int> tally(std::span<const double> fitness, const SelectionConfig& cfg,
                       int draws, std::uint64_t seed)
{
    Rng rng{seed};
    SelectionTable table;
    table.rebuild(fitness, cfg);
    std::vector<int> counts(fitness.size(), 0);
    for (int i = 0; i < draws; ++i) ++counts[table.select(rng)];
    return counts;
}

TEST(RankOrder, SortsBestFirstStably)
{
    const std::vector<double> fitness{1.0, 5.0, 3.0, 5.0};
    const auto order = ranked(fitness);
    EXPECT_EQ(order, (std::vector<std::size_t>{1, 3, 2, 0}));
}

TEST(SelectParent, EmptyPopulationThrows)
{
    Rng rng{1};
    const std::vector<double> empty;
    EXPECT_THROW(pick_parent(empty, SelectionConfig{}, rng), std::invalid_argument);
}

TEST(SelectParent, BadRankPressureThrows)
{
    Rng rng{1};
    const std::vector<double> fitness{1.0, 2.0};
    SelectionConfig cfg;
    cfg.rank_pressure = 0.5;
    EXPECT_THROW(pick_parent(fitness, cfg, rng), std::invalid_argument);
    cfg.rank_pressure = 2.5;
    EXPECT_THROW(pick_parent(fitness, cfg, rng), std::invalid_argument);
}

TEST(SelectParent, SingleMemberAlwaysSelected)
{
    Rng rng{2};
    const std::vector<double> fitness{7.0};
    for (auto kind : {SelectionKind::rank, SelectionKind::tournament,
                      SelectionKind::roulette}) {
        SelectionConfig cfg;
        cfg.kind = kind;
        EXPECT_EQ(pick_parent(fitness, cfg, rng), 0u);
    }
}

TEST(SelectParent, RankPrefersBetterIndividuals)
{
    const std::vector<double> fitness{1.0, 10.0, 5.0};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::rank;
    cfg.rank_pressure = 1.8;
    const auto counts = tally(fitness, cfg, 30000, 3);
    EXPECT_GT(counts[1], counts[2]);
    EXPECT_GT(counts[2], counts[0]);
    EXPECT_GT(counts[0], 0);  // worst still selectable
}

TEST(SelectParent, RankPressureOneIsUniform)
{
    const std::vector<double> fitness{1.0, 10.0, 5.0, 2.0};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::rank;
    cfg.rank_pressure = 1.0;
    const auto counts = tally(fitness, cfg, 40000, 4);
    for (int c : counts) EXPECT_NEAR(c, 10000, 600);
}

TEST(SelectParent, TournamentPrefersBetterIndividuals)
{
    const std::vector<double> fitness{1.0, 10.0, 5.0};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::tournament;
    cfg.tournament_size = 3;
    const auto counts = tally(fitness, cfg, 30000, 5);
    EXPECT_GT(counts[1], counts[2]);
    EXPECT_GT(counts[2], counts[0]);
}

TEST(SelectParent, LargerTournamentsAreGreedier)
{
    const std::vector<double> fitness{1.0, 2.0, 3.0, 4.0, 10.0};
    SelectionConfig small;
    small.kind = SelectionKind::tournament;
    small.tournament_size = 2;
    SelectionConfig big = small;
    big.tournament_size = 5;
    const auto c_small = tally(fitness, small, 20000, 6);
    const auto c_big = tally(fitness, big, 20000, 6);
    EXPECT_GT(c_big[4], c_small[4]);
}

TEST(SelectParent, RoulettePrefersBetterIndividuals)
{
    const std::vector<double> fitness{0.0, 100.0};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::roulette;
    const auto counts = tally(fitness, cfg, 20000, 7);
    EXPECT_GT(counts[1], counts[0]);
    EXPECT_GT(counts[0], 1000);  // weak pressure keeps the worst in play
}

TEST(SelectParent, RouletteHandlesNegativeFitness)
{
    const std::vector<double> fitness{-500.0, -100.0, -300.0};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::roulette;
    const auto counts = tally(fitness, cfg, 30000, 8);
    EXPECT_GT(counts[1], counts[2]);
    EXPECT_GT(counts[2], counts[0]);
}

TEST(SelectParent, RouletteNeverPicksInfeasibleWhenFeasibleExists)
{
    const std::vector<double> fitness{-k_inf, 1.0, -k_inf, 2.0};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::roulette;
    const auto counts = tally(fitness, cfg, 5000, 9);
    EXPECT_EQ(counts[0], 0);
    EXPECT_EQ(counts[2], 0);
}

TEST(SelectParent, RouletteAllInfeasibleFallsBackToUniform)
{
    const std::vector<double> fitness{-k_inf, -k_inf, -k_inf};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::roulette;
    const auto counts = tally(fitness, cfg, 9000, 10);
    for (int c : counts) EXPECT_GT(c, 2000);
}

TEST(SelectParent, EqualFitnessIsRoughlyUniform)
{
    // Tournament and roulette treat ties symmetrically.  (Linear ranking
    // breaks ties by index, which is conventional but not uniform.)
    const std::vector<double> fitness{5.0, 5.0, 5.0, 5.0};
    for (auto kind : {SelectionKind::tournament, SelectionKind::roulette}) {
        SelectionConfig cfg;
        cfg.kind = kind;
        const auto counts = tally(fitness, cfg, 40000, 11);
        for (int c : counts) EXPECT_NEAR(c, 10000, 800) << selection_name(kind);
    }
}

TEST(SelectParent, EqualFitnessRankStillSelectsEveryone)
{
    const std::vector<double> fitness{5.0, 5.0, 5.0, 5.0};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::rank;
    const auto counts = tally(fitness, cfg, 40000, 12);
    for (int c : counts) EXPECT_GT(c, 500);
}

// --------------------------------------------------------------------------
// Chi-square goodness-of-fit: the observed pick frequencies must match the
// *intended* selection weights, not merely their ordering.  Seeds are fixed,
// so these are deterministic; the thresholds are the p = 0.001 critical
// values for the stated degrees of freedom.

double chi_square(std::span<const int> observed, std::span<const double> expected)
{
    double stat = 0.0;
    for (std::size_t i = 0; i < observed.size(); ++i) {
        if (expected[i] == 0.0) continue;  // asserted exactly by the caller
        const double diff = static_cast<double>(observed[i]) - expected[i];
        stat += diff * diff / expected[i];
    }
    return stat;
}

TEST(SelectParent, RankFrequenciesMatchLinearRankingWeights)
{
    const std::vector<double> fitness{3.0, 9.0, 1.0, 7.0, 5.0};
    const double pressure = 1.8;
    SelectionConfig cfg;
    cfg.kind = SelectionKind::rank;
    cfg.rank_pressure = pressure;
    const int draws = 60000;
    const auto counts = tally(fitness, cfg, draws, 21);

    // Member at rank r (0 = best) gets weight pressure + (2 - 2*pressure)*r/(n-1).
    const auto order = ranked(fitness);
    const std::size_t n = fitness.size();
    std::vector<double> expected(n, 0.0);
    double total = 0.0;
    std::vector<double> rank_weight(n);
    for (std::size_t r = 0; r < n; ++r) {
        rank_weight[r] =
            pressure + ((2.0 - pressure) - pressure) * static_cast<double>(r) /
                           static_cast<double>(n - 1);
        total += rank_weight[r];
    }
    for (std::size_t r = 0; r < n; ++r)
        expected[order[r]] = draws * rank_weight[r] / total;

    EXPECT_LT(chi_square(counts, expected), 18.47) << "df=4, p=0.001";
}

TEST(SelectParent, TournamentFrequenciesMatchOrderStatistics)
{
    // Distinct fitness values, so the winner is the unique best of k uniform
    // draws with replacement: P(rank r wins) = ((n-r)^k - (n-r-1)^k) / n^k.
    const std::vector<double> fitness{3.0, 9.0, 1.0, 7.0, 5.0, 11.0};
    const std::size_t k = 3;
    SelectionConfig cfg;
    cfg.kind = SelectionKind::tournament;
    cfg.tournament_size = k;
    const int draws = 60000;
    const auto counts = tally(fitness, cfg, draws, 22);

    const auto order = ranked(fitness);
    const std::size_t n = fitness.size();
    std::vector<double> expected(n, 0.0);
    for (std::size_t r = 0; r < n; ++r) {
        const double survivors = static_cast<double>(n - r);
        const double p = (std::pow(survivors, static_cast<double>(k)) -
                          std::pow(survivors - 1.0, static_cast<double>(k))) /
                         std::pow(static_cast<double>(n), static_cast<double>(k));
        expected[order[r]] = draws * p;
    }

    EXPECT_LT(chi_square(counts, expected), 20.52) << "df=5, p=0.001";
}

TEST(SelectParent, RouletteFrequenciesMatchFloorShiftedWeights)
{
    // weight_i = (f_i - lo) + 0.45 * (hi - lo) for finite members, 0 for
    // infeasible ones (which must never be picked).
    const std::vector<double> fitness{2.0, 10.0, -k_inf, 6.0, 4.0};
    SelectionConfig cfg;
    cfg.kind = SelectionKind::roulette;
    const int draws = 60000;
    const auto counts = tally(fitness, cfg, draws, 23);

    double lo = k_inf, hi = -k_inf;
    for (double f : fitness) {
        if (!std::isfinite(f)) continue;
        lo = std::min(lo, f);
        hi = std::max(hi, f);
    }
    const double floor_weight = (hi - lo) * 0.45;
    std::vector<double> expected(fitness.size(), 0.0);
    double total = 0.0;
    for (double f : fitness)
        if (std::isfinite(f)) total += (f - lo) + floor_weight;
    for (std::size_t i = 0; i < fitness.size(); ++i)
        if (std::isfinite(fitness[i]))
            expected[i] = draws * ((fitness[i] - lo) + floor_weight) / total;

    EXPECT_EQ(counts[2], 0);  // infeasible member is never selectable
    EXPECT_LT(chi_square(counts, expected), 16.27) << "df=3, p=0.001";
}

TEST(SelectionNames, Stable)
{
    EXPECT_STREQ(selection_name(SelectionKind::rank), "rank");
    EXPECT_STREQ(selection_name(SelectionKind::tournament), "tournament");
    EXPECT_STREQ(selection_name(SelectionKind::roulette), "roulette");
}

}  // namespace
}  // namespace nautilus
