#include "core/nsga2.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <map>

#include "core/rng.hpp"
#include "pareto_reference.hpp"

namespace nautilus {
namespace {

const std::vector<Direction> min_min{Direction::minimize, Direction::minimize};
const std::vector<Direction> min_max{Direction::minimize, Direction::maximize};

ObjectivePoint pt(double a, double b, std::size_t tag = 0)
{
    return ObjectivePoint{tag, {a, b}};
}

PoolRanking ranked(std::span<const ObjectivePoint> points, std::span<const Direction> dirs)
{
    PoolRanking ranking{dirs};
    for (const ObjectivePoint& p : points) ranking.add(p.values);
    ranking.non_dominated_sort();
    return ranking;
}

// The flat ranking's fronts and crowding distances in the shape the tests
// below (and the reference) use.
std::vector<std::vector<std::size_t>> non_dominated_sort(
    std::span<const ObjectivePoint> points, std::span<const Direction> dirs)
{
    const PoolRanking ranking = ranked(points, dirs);
    std::vector<std::vector<std::size_t>> fronts;
    for (std::size_t f = 0; f < ranking.front_count(); ++f)
        fronts.emplace_back(ranking.front(f).begin(), ranking.front(f).end());
    return fronts;
}

std::vector<double> crowding_distance(std::span<const ObjectivePoint> points,
                                      std::span<const std::size_t> front,
                                      std::span<const Direction> dirs)
{
    PoolRanking ranking = ranked(points, dirs);
    std::vector<double> distance(front.size());
    ranking.crowding_distance(front, distance);
    return distance;
}

// ---- non_dominated_sort ------------------------------------------------------

TEST(NonDominatedSort, LayersByDomination)
{
    // minimize both.  Layer 0: (1,1).  Layer 1: (2,2).  Layer 2: (3,3).
    const std::vector<ObjectivePoint> points{pt(2, 2, 0), pt(1, 1, 1), pt(3, 3, 2)};
    const auto fronts = non_dominated_sort(points, min_min);
    ASSERT_EQ(fronts.size(), 3u);
    EXPECT_EQ(fronts[0], (std::vector<std::size_t>{1}));
    EXPECT_EQ(fronts[1], (std::vector<std::size_t>{0}));
    EXPECT_EQ(fronts[2], (std::vector<std::size_t>{2}));
}

TEST(NonDominatedSort, TradeoffsShareTheFirstFront)
{
    const std::vector<ObjectivePoint> points{pt(1, 5), pt(2, 4), pt(3, 3), pt(4, 2)};
    const auto fronts = non_dominated_sort(points, min_min);
    ASSERT_EQ(fronts.size(), 1u);
    EXPECT_EQ(fronts[0].size(), 4u);
}

TEST(NonDominatedSort, EveryPointAppearsExactlyOnce)
{
    std::vector<ObjectivePoint> points;
    for (int i = 0; i < 20; ++i)
        points.push_back(pt((i * 7) % 10, (i * 3) % 8, static_cast<std::size_t>(i)));
    const auto fronts = non_dominated_sort(points, min_max);
    std::vector<int> seen(points.size(), 0);
    for (const auto& front : fronts)
        for (std::size_t idx : front) ++seen[idx];
    for (int count : seen) EXPECT_EQ(count, 1);
}

TEST(NonDominatedSort, EmptyInput)
{
    EXPECT_TRUE(non_dominated_sort({}, min_min).empty());
}

// ---- crowding_distance --------------------------------------------------------

TEST(CrowdingDistance, BoundaryPointsAreInfinite)
{
    const std::vector<ObjectivePoint> points{pt(1, 5), pt(2, 4), pt(3, 3), pt(4, 2)};
    const std::vector<std::size_t> front{0, 1, 2, 3};
    const auto dist = crowding_distance(points, front, min_min);
    EXPECT_TRUE(std::isinf(dist[0]));
    EXPECT_TRUE(std::isinf(dist[3]));
    EXPECT_FALSE(std::isinf(dist[1]));
    EXPECT_FALSE(std::isinf(dist[2]));
}

TEST(CrowdingDistance, IsolatedPointsScoreHigher)
{
    // Interior points: one crowded (close neighbors), one isolated.
    const std::vector<ObjectivePoint> points{pt(0, 10), pt(1, 9), pt(2, 8), pt(8, 2),
                                             pt(10, 0)};
    const std::vector<std::size_t> front{0, 1, 2, 3, 4};
    const auto dist = crowding_distance(points, front, min_min);
    EXPECT_GT(dist[3], dist[1]);  // index 3 sits in a sparse stretch
}

TEST(CrowdingDistance, TinyFrontsAllInfinite)
{
    const std::vector<ObjectivePoint> points{pt(1, 1), pt(2, 2)};
    const std::vector<std::size_t> front{0, 1};
    for (double d : crowding_distance(points, front, min_min)) EXPECT_TRUE(std::isinf(d));
}

// ---- PoolRanking vs the reference ranking -------------------------------------

// Random pools against tests/pareto_reference: the same fronts in the same
// breadth-first order, and crowding distances equal bit for bit.  Values come
// from a small grid with both zeros and both infinities, so ties, duplicates
// and inf - inf gaps are common.  One PoolRanking serves every pool with the
// same directions, as one serves every generation of a run, so stale rows,
// counts and fronts of a larger earlier pool must not leak into a later one.
TEST(Nsga2Ranking, MatchesReferenceOnRandomPools)
{
    constexpr double inf = std::numeric_limits<double>::infinity();
    const double grid[] = {-1.0, 0.0, 0.5, 1.0, 2.5, inf, -inf, -0.0};
    constexpr int kPools = 12000;
    Rng rng{25};
    std::map<std::vector<Direction>, PoolRanking> rankings;
    std::size_t multi_front_pools = 0;
    for (int trial = 0; trial < kPools; ++trial) {
        const std::size_t objectives = 1 + rng.index(3);
        std::vector<Direction> dirs;
        for (std::size_t k = 0; k < objectives; ++k)
            dirs.push_back(rng.index(2) == 0 ? Direction::minimize : Direction::maximize);
        std::vector<ObjectivePoint> points(rng.index(65));
        for (std::size_t i = 0; i < points.size(); ++i) {
            points[i].tag = i;
            for (std::size_t k = 0; k < objectives; ++k)
                points[i].values.push_back(grid[rng.index(std::size(grid))]);
        }

        const auto expected = reference::non_dominated_sort(points, dirs);
        PoolRanking& ranking = rankings.try_emplace(dirs, dirs).first->second;
        ranking.clear();
        for (const ObjectivePoint& p : points) ranking.add(p.values);
        ranking.non_dominated_sort();
        ASSERT_EQ(ranking.front_count(), expected.size()) << "pool " << trial;
        if (expected.size() > 1) ++multi_front_pools;
        for (std::size_t f = 0; f < expected.size(); ++f) {
            const auto front = ranking.front(f);
            ASSERT_EQ(std::vector<std::size_t>(front.begin(), front.end()), expected[f])
                << "pool " << trial << ", front " << f;
            const auto want = reference::crowding_distance(points, expected[f], dirs);
            std::vector<double> got(front.size());
            ranking.crowding_distance(front, got);
            ASSERT_EQ(std::memcmp(got.data(), want.data(), want.size() * sizeof(double)), 0)
                << "pool " << trial << ", front " << f;
        }
    }
    EXPECT_GT(multi_front_pools, std::size_t{kPools / 2});
}

// ---- Nsga2Engine ---------------------------------------------------------------

ParameterSpace mo_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 15));
    space.add("b", ParamDomain::int_range(0, 15));
    return space;
}

// Convex tradeoff: cost = a + b, gain = a * b (conflict along a + b budget).
std::optional<std::vector<double>> tradeoff_eval(const Genome& g)
{
    const double a = g.gene(0);
    const double b = g.gene(1);
    return std::vector<double>{a + b, a * b};
}

TEST(Nsga2Engine, ConstructionValidation)
{
    const auto space = mo_space();
    EXPECT_THROW(
        Nsga2Engine(space, MultiObjectiveConfig{}, {}, tradeoff_eval,
                    HintSet::none(space)),
        std::invalid_argument);
    EXPECT_THROW(Nsga2Engine(space, MultiObjectiveConfig{}, {Direction::minimize},
                             MultiEvalFn{}, HintSet::none(space)),
                 std::invalid_argument);
    MultiObjectiveConfig bad;
    bad.population_size = 2;
    EXPECT_THROW(Nsga2Engine(space, bad,
                             {Direction::minimize, Direction::maximize}, tradeoff_eval,
                             HintSet::none(space)),
                 std::invalid_argument);
}

TEST(Nsga2Engine, FrontIsMutuallyNonDominated)
{
    const auto space = mo_space();
    MultiObjectiveConfig cfg;
    cfg.generations = 20;
    const Nsga2Engine engine{space, cfg, {Direction::minimize, Direction::maximize},
                             tradeoff_eval, HintSet::none(space)};
    const auto result = engine.run(3);
    ASSERT_GT(result.front.size(), 1u);
    const std::vector<Direction> dirs{Direction::minimize, Direction::maximize};
    for (const auto& a : result.front) {
        for (const auto& b : result.front) {
            const ObjectivePoint pa{0, a.values};
            const ObjectivePoint pb{0, b.values};
            EXPECT_FALSE(dominates(pa, pb, dirs) && dominates(pb, pa, dirs));
        }
    }
}

TEST(Nsga2Engine, FindsTheKnownExtremes)
{
    const auto space = mo_space();
    MultiObjectiveConfig cfg;
    cfg.generations = 30;
    const Nsga2Engine engine{space, cfg, {Direction::minimize, Direction::maximize},
                             tradeoff_eval, HintSet::none(space)};
    const auto result = engine.run(5);
    bool has_low_cost = false;
    bool has_high_gain = false;
    for (const auto& p : result.front) {
        has_low_cost |= p.values[0] <= 2.0;      // near the zero-cost corner
        has_high_gain |= p.values[1] >= 200.0;   // near the 15*15 = 225 corner
    }
    EXPECT_TRUE(has_low_cost);
    EXPECT_TRUE(has_high_gain);
}

TEST(Nsga2Engine, DeterministicPerSeed)
{
    const auto space = mo_space();
    MultiObjectiveConfig cfg;
    cfg.generations = 10;
    const Nsga2Engine engine{space, cfg, {Direction::minimize, Direction::maximize},
                             tradeoff_eval, HintSet::none(space)};
    const auto a = engine.run(8);
    const auto b = engine.run(8);
    ASSERT_EQ(a.front.size(), b.front.size());
    EXPECT_EQ(a.distinct_evals, b.distinct_evals);
}

TEST(Nsga2Engine, CountsDistinctEvaluationsOnly)
{
    const auto space = mo_space();  // 256 points total
    MultiObjectiveConfig cfg;
    cfg.generations = 40;
    const Nsga2Engine engine{space, cfg, {Direction::minimize, Direction::maximize},
                             tradeoff_eval, HintSet::none(space)};
    const auto result = engine.run(2);
    EXPECT_LE(result.distinct_evals, 256u);
}

TEST(Nsga2Engine, HandlesInfeasibleRegions)
{
    const auto space = mo_space();
    const MultiEvalFn eval =
        [](const Genome& g) -> std::optional<std::vector<double>> {
        if ((g.gene(0) + g.gene(1)) % 3 == 0) return std::nullopt;
        return std::vector<double>{static_cast<double>(g.gene(0)),
                                   static_cast<double>(g.gene(1))};
    };
    MultiObjectiveConfig cfg;
    cfg.generations = 10;
    const Nsga2Engine engine{space, cfg, {Direction::minimize, Direction::maximize},
                             eval, HintSet::none(space)};
    const auto result = engine.run(4);
    for (const auto& p : result.front)
        EXPECT_NE(static_cast<int>(p.values[0] + p.values[1]) % 3, 0);
}

TEST(Nsga2Engine, FullyInfeasibleSpaceReturnsEmptyFront)
{
    const auto space = mo_space();
    const MultiEvalFn eval =
        [](const Genome&) -> std::optional<std::vector<double>> { return std::nullopt; };
    MultiObjectiveConfig cfg;
    cfg.generations = 3;
    const Nsga2Engine engine{space, cfg, {Direction::minimize, Direction::maximize},
                             eval, HintSet::none(space)};
    EXPECT_TRUE(engine.run(1).front.empty());
}

TEST(Nsga2Engine, ArityMismatchDetected)
{
    const auto space = mo_space();
    const MultiEvalFn eval =
        [](const Genome&) -> std::optional<std::vector<double>> {
        return std::vector<double>{1.0};  // one value for two objectives
    };
    MultiObjectiveConfig cfg;
    cfg.generations = 2;
    const Nsga2Engine engine{space, cfg, {Direction::minimize, Direction::maximize},
                             eval, HintSet::none(space)};
    EXPECT_THROW(engine.run(1), std::runtime_error);
}

TEST(Nsga2Engine, HintsImproveFrontQuality)
{
    // Objectives pull parameter `a` in conflict; hints that mark both
    // parameters important should cover the front at least as well.
    const auto space = mo_space();
    HintSet hints = HintSet::none(space);
    hints.param(0).importance = 60.0;
    hints.param(1).importance = 60.0;
    hints.set_confidence(0.5);

    MultiObjectiveConfig cfg;
    cfg.generations = 15;
    const std::vector<Direction> dirs{Direction::minimize, Direction::maximize};
    const Nsga2Engine plain{space, cfg, dirs, tradeoff_eval, HintSet::none(space)};
    const Nsga2Engine guided{space, cfg, dirs, tradeoff_eval, hints};

    auto hv = [&](const MultiObjectiveResult& r) {
        std::vector<ObjectivePoint> front;
        for (const auto& p : r.front) front.push_back({0, p.values});
        return hypervolume_2d(front, dirs, ObjectivePoint{0, {31.0, 0.0}});
    };
    EXPECT_GE(hv(guided.run(6)) * 1.05, hv(plain.run(6)));
}

}  // namespace
}  // namespace nautilus
