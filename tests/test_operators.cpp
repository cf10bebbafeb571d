#include "core/operators.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <utility>

#include "core/breed.hpp"

namespace nautilus {
namespace {

ParameterSpace op_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 9));   // 10 values
    space.add("b", ParamDomain::pow2(0, 4));        // 5 values
    space.add("c", ParamDomain::boolean());         // 2 values
    space.add("d", ParamDomain::categorical({"x", "y", "z"}));  // unordered
    return space;
}

MutationContext make_ctx(const ParameterSpace& space, const HintSet& hints,
                         double rate = 0.1, std::size_t gen = 0)
{
    MutationContext ctx;
    ctx.space = &space;
    ctx.hints = &hints;
    ctx.mutation_rate = rate;
    ctx.generation = gen;
    return ctx;
}

// Two children from copies of two parents, via the in-place crossover.
std::pair<Genome, Genome> cross(const Genome& a, const Genome& b, CrossoverKind kind, Rng& rng)
{
    Genome ca = a;
    Genome cb = b;
    crossover(ca.genes_mut(), cb.genes_mut(), kind, rng);
    return {std::move(ca), std::move(cb)};
}

double sum(const std::vector<double>& v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

// ---- gene_mutation_probabilities -------------------------------------------

TEST(GeneMutationProbabilities, BaselineIsFlat)
{
    const auto space = op_space();
    const HintSet hints = HintSet::none(space);
    const auto probs = gene_mutation_probabilities(make_ctx(space, hints, 0.1));
    ASSERT_EQ(probs.size(), 4u);
    for (double p : probs) EXPECT_DOUBLE_EQ(p, 0.1);
}

TEST(GeneMutationProbabilities, ZeroConfidenceIgnoresImportance)
{
    const auto space = op_space();
    HintSet hints = HintSet::none(space);
    hints.param(0).importance = 100.0;
    hints.set_confidence(0.0);
    const auto probs = gene_mutation_probabilities(make_ctx(space, hints));
    for (double p : probs) EXPECT_DOUBLE_EQ(p, 0.1);
}

TEST(GeneMutationProbabilities, ImportanceSkewsTowardImportantGenes)
{
    const auto space = op_space();
    HintSet hints = HintSet::none(space);
    hints.param(0).importance = 100.0;
    hints.set_confidence(0.8);
    const auto probs = gene_mutation_probabilities(make_ctx(space, hints));
    EXPECT_GT(probs[0], probs[1]);
    EXPECT_GT(probs[0], 0.1);
    EXPECT_LT(probs[1], 0.1);
}

TEST(GeneMutationProbabilities, FloorKeepsUnimportantGenesAlive)
{
    const auto space = op_space();
    HintSet hints = HintSet::none(space);
    hints.param(0).importance = 100.0;
    hints.set_confidence(1.0);
    const auto probs = gene_mutation_probabilities(make_ctx(space, hints));
    for (std::size_t i = 1; i < probs.size(); ++i) EXPECT_GT(probs[i], 0.0);
}

TEST(GeneMutationProbabilities, CapAt95Percent)
{
    const auto space = op_space();
    HintSet hints = HintSet::none(space);
    hints.param(0).importance = 100.0;
    hints.set_confidence(1.0);
    const auto probs = gene_mutation_probabilities(make_ctx(space, hints, 1.0));
    for (double p : probs) EXPECT_LE(p, 0.95);
}

TEST(GeneMutationProbabilities, DecayFlattensOverGenerations)
{
    const auto space = op_space();
    HintSet hints = HintSet::none(space);
    hints.param(0).importance = 100.0;
    hints.param(0).importance_decay = 0.9;
    hints.set_confidence(0.8);
    const auto early = gene_mutation_probabilities(make_ctx(space, hints, 0.1, 0));
    const auto late = gene_mutation_probabilities(make_ctx(space, hints, 0.1, 200));
    EXPECT_GT(early[0] - early[1], late[0] - late[1]);
    EXPECT_NEAR(late[0], 0.1, 1e-3);
    EXPECT_NEAR(late[1], 0.1, 1e-3);
}

TEST(GeneMutationProbabilities, MeanApproximatelyPreservedWithoutFloor)
{
    // Moderate skew (floor not binding): expected mutations per genome stay
    // at rate * n.
    const auto space = op_space();
    HintSet hints = HintSet::none(space);
    hints.param(0).importance = 3.0;
    hints.param(1).importance = 2.0;
    hints.set_confidence(0.7);
    const auto probs = gene_mutation_probabilities(make_ctx(space, hints, 0.1));
    EXPECT_NEAR(sum(probs), 0.4, 1e-9);
}

TEST(GeneMutationProbabilities, ValidatesContext)
{
    const auto space = op_space();
    const HintSet hints = HintSet::none(space);
    MutationContext ctx;  // null pointers
    EXPECT_THROW(gene_mutation_probabilities(ctx), std::invalid_argument);
    EXPECT_THROW(gene_mutation_probabilities(make_ctx(space, hints, 1.5)),
                 std::invalid_argument);
}

// ---- value_distribution -----------------------------------------------------

TEST(ValueDistribution, BaselineUniformExcludingCurrent)
{
    const auto d = ParamDomain::int_range(0, 4);
    const auto w = value_distribution(d, ParamHints{}, 0.0, 2);
    ASSERT_EQ(w.size(), 5u);
    EXPECT_DOUBLE_EQ(w[2], 0.0);
    for (std::size_t i = 0; i < 5; ++i)
        if (i != 2) { EXPECT_DOUBLE_EQ(w[i], 0.25); }
}

TEST(ValueDistribution, SingleValueDomainIsAllZero)
{
    const auto d = ParamDomain::int_range(3, 3);
    const auto w = value_distribution(d, ParamHints{}, 0.5, 0);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_DOUBLE_EQ(w[0], 0.0);
}

TEST(ValueDistribution, SumsToOne)
{
    const auto d = ParamDomain::int_range(0, 9);
    ParamHints h;
    h.bias = 0.7;
    for (double conf : {0.0, 0.3, 0.8, 1.0}) {
        const auto w = value_distribution(d, h, conf, 4);
        EXPECT_NEAR(sum(w), 1.0, 1e-9) << "conf=" << conf;
    }
}

TEST(ValueDistribution, PositiveBiasPrefersHigherValues)
{
    const auto d = ParamDomain::int_range(0, 9);
    ParamHints h;
    h.bias = 0.8;
    const auto w = value_distribution(d, h, 0.9, 4);
    double up = 0.0;
    double down = 0.0;
    for (std::size_t i = 0; i < 10; ++i) (i > 4 ? up : down) += w[i];
    EXPECT_GT(up, down * 2.0);
}

TEST(ValueDistribution, NegativeBiasPrefersLowerValues)
{
    const auto d = ParamDomain::int_range(0, 9);
    ParamHints h;
    h.bias = -0.8;
    const auto w = value_distribution(d, h, 0.9, 4);
    double up = 0.0;
    double down = 0.0;
    for (std::size_t i = 0; i < 10; ++i) (i > 4 ? up : down) += w[i];
    EXPECT_GT(down, up * 2.0);
}

TEST(ValueDistribution, BiasAtDomainEdgeStillSumsToOne)
{
    const auto d = ParamDomain::int_range(0, 9);
    ParamHints h;
    h.bias = 0.9;  // pushes up, but current is already at the top
    const auto w = value_distribution(d, h, 0.9, 9);
    EXPECT_NEAR(sum(w), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(w[9], 0.0);
}

TEST(ValueDistribution, TargetConcentratesNearTarget)
{
    const auto d = ParamDomain::int_range(0, 9);
    ParamHints h;
    h.target = 7.0;
    const auto w = value_distribution(d, h, 0.9, 0);
    // 7 should be the most likely destination.
    for (std::size_t i = 0; i < 10; ++i)
        if (i != 7 && i != 0) { EXPECT_GE(w[7], w[i]); }
}

TEST(ValueDistribution, ZeroConfidenceEqualsBaselineEvenWithHints)
{
    const auto d = ParamDomain::int_range(0, 9);
    ParamHints h;
    h.bias = 0.9;
    const auto guided = value_distribution(d, h, 0.0, 3);
    const auto baseline = value_distribution(d, ParamHints{}, 0.0, 3);
    for (std::size_t i = 0; i < 10; ++i) EXPECT_DOUBLE_EQ(guided[i], baseline[i]);
}

TEST(ValueDistribution, UnorderedDomainIgnoresBias)
{
    const auto d = ParamDomain::categorical({"x", "y", "z"});
    ParamHints h;
    h.bias = 0.9;  // would be rejected by validate; distribution ignores it
    const auto w = value_distribution(d, h, 0.9, 0);
    EXPECT_DOUBLE_EQ(w[1], w[2]);
}

TEST(ValueDistribution, ConfidenceInterpolatesUniformAndDirected)
{
    const auto d = ParamDomain::int_range(0, 9);
    ParamHints h;
    h.bias = 1.0;
    const auto w_lo = value_distribution(d, h, 0.2, 4);
    const auto w_hi = value_distribution(d, h, 0.9, 4);
    // Down-moves shrink as confidence grows.
    EXPECT_GT(w_lo[0], w_hi[0]);
    EXPECT_LT(w_lo[9], w_hi[9] + 0.5);  // sanity: both valid distributions
    // Every value keeps nonzero probability below confidence 1 (footnote 1).
    for (std::size_t i = 0; i < 10; ++i)
        if (i != 4) { EXPECT_GT(w_hi[i], 0.0); }
}

TEST(ValueDistribution, CurrentOutOfRangeThrows)
{
    const auto d = ParamDomain::int_range(0, 4);
    EXPECT_THROW(value_distribution(d, ParamHints{}, 0.0, 5), std::invalid_argument);
}

TEST(ValueDistribution, StepScaleControlsReach)
{
    const auto d = ParamDomain::int_range(0, 19);
    ParamHints near;
    near.bias = 0.9;
    near.step_scale = 0.05;
    ParamHints far = near;
    far.step_scale = 1.0;
    const auto w_near = value_distribution(d, near, 1.0, 0);
    const auto w_far = value_distribution(d, far, 1.0, 0);
    // Small steps: next value dominates; large steps spread mass out.
    EXPECT_GT(w_near[1], w_far[1]);
    EXPECT_LT(w_near[19], w_far[19]);
}

// ---- mutate -----------------------------------------------------------------

TEST(Mutate, RateZeroChangesNothing)
{
    const auto space = op_space();
    const HintSet hints = HintSet::none(space);
    Rng rng{1};
    BreedContext ctx{space, hints, 0.0};
    Genome g = Genome::random(space, rng);
    const Genome before = g;
    EXPECT_EQ(ctx.mutate(g, rng), 0u);
    EXPECT_EQ(g, before);
}

TEST(Mutate, RateOneChangesEveryMultiValueGene)
{
    const auto space = op_space();
    const HintSet hints = HintSet::none(space);
    Rng rng{2};
    BreedContext ctx{space, hints, 1.0};
    Genome g = Genome::random(space, rng);
    const Genome before = g;
    const std::size_t changed = ctx.mutate(g, rng);
    EXPECT_EQ(changed, 4u);
    for (std::size_t i = 0; i < 4; ++i) EXPECT_NE(g.gene(i), before.gene(i));
}

TEST(Mutate, StaysWithinDomains)
{
    const auto space = op_space();
    const HintSet hints = HintSet::none(space);
    Rng rng{3};
    BreedContext ctx{space, hints, 0.5};
    for (int trial = 0; trial < 200; ++trial) {
        Genome g = Genome::random(space, rng);
        ctx.mutate(g, rng);
        ASSERT_TRUE(g.compatible_with(space));
    }
}

TEST(Mutate, ObservedRateMatchesConfigured)
{
    const auto space = op_space();
    const HintSet hints = HintSet::none(space);
    Rng rng{4};
    BreedContext ctx{space, hints, 0.1};
    std::size_t changed = 0;
    constexpr int trials = 5000;
    for (int t = 0; t < trials; ++t) {
        Genome g = Genome::random(space, rng);
        changed += ctx.mutate(g, rng);
    }
    // 4 genes x 0.1 = 0.4 expected changes per genome.
    EXPECT_NEAR(changed / static_cast<double>(trials), 0.4, 0.03);
}

TEST(Mutate, RejectsIncompatibleGenome)
{
    const auto space = op_space();
    const HintSet hints = HintSet::none(space);
    Rng rng{5};
    BreedContext ctx{space, hints, 0.1};
    Genome g{{0, 0}};
    EXPECT_THROW(ctx.mutate(g, rng), std::invalid_argument);
}

// ---- crossover --------------------------------------------------------------

TEST(Crossover, ChildrenGenesComeFromParentsColumnwise)
{
    Rng rng{6};
    const Genome a{{0, 0, 0, 0, 0, 0}};
    const Genome b{{1, 1, 1, 1, 1, 1}};
    for (auto kind : {CrossoverKind::single_point, CrossoverKind::two_point,
                      CrossoverKind::uniform}) {
        for (int t = 0; t < 50; ++t) {
            const auto [ca, cb] = cross(a, b, kind, rng);
            for (std::size_t i = 0; i < a.size(); ++i) {
                // Each column keeps exactly one 0 and one 1.
                EXPECT_EQ(ca.gene(i) + cb.gene(i), 1u) << crossover_name(kind);
            }
        }
    }
}

TEST(Crossover, SinglePointProducesContiguousSwap)
{
    Rng rng{7};
    const Genome a{{0, 0, 0, 0, 0, 0}};
    const Genome b{{1, 1, 1, 1, 1, 1}};
    for (int t = 0; t < 50; ++t) {
        const auto [ca, cb] = cross(a, b, CrossoverKind::single_point, rng);
        // ca must be 0...0 1...1 with exactly one transition.
        int transitions = 0;
        for (std::size_t i = 1; i < ca.size(); ++i)
            if (ca.gene(i) != ca.gene(i - 1)) ++transitions;
        EXPECT_EQ(transitions, 1);
        EXPECT_EQ(ca.gene(0), 0u);  // cut point >= 1 keeps the head
    }
}

TEST(Crossover, SingleGeneParentsAreNoOp)
{
    Rng rng{8};
    const Genome a{{3}};
    const Genome b{{7}};
    const auto [ca, cb] = cross(a, b, CrossoverKind::single_point, rng);
    EXPECT_EQ(ca, a);
    EXPECT_EQ(cb, b);
}

TEST(Crossover, RejectsMismatchedParents)
{
    Rng rng{9};
    const Genome a{{1, 2}};
    const Genome b{{1, 2, 3}};
    EXPECT_THROW(cross(a, b, CrossoverKind::uniform, rng), std::invalid_argument);
    const Genome empty;
    EXPECT_THROW(cross(empty, empty, CrossoverKind::uniform, rng),
                 std::invalid_argument);
}

TEST(Crossover, UniformMixesBothParents)
{
    Rng rng{10};
    const Genome a{{0, 0, 0, 0, 0, 0, 0, 0}};
    const Genome b{{1, 1, 1, 1, 1, 1, 1, 1}};
    int mixed = 0;
    for (int t = 0; t < 100; ++t) {
        const auto [ca, cb] = cross(a, b, CrossoverKind::uniform, rng);
        bool has0 = false;
        bool has1 = false;
        for (std::size_t i = 0; i < ca.size(); ++i) {
            has0 |= ca.gene(i) == 0;
            has1 |= ca.gene(i) == 1;
        }
        if (has0 && has1) ++mixed;
    }
    EXPECT_GT(mixed, 90);
}

TEST(Crossover, EveryGeneIndexExchangedWithNonzeroFrequency)
{
    // Regression for the two-point bug: the second cut used to be capped at
    // n-1, and since swap_range is half-open the last gene could never be
    // exchanged.  With the fix every classic cut pair is reachable, so every
    // swappable index must be hit with roughly its expected frequency.
    Rng rng{11};
    constexpr std::size_t n = 6;
    constexpr int trials = 4000;
    const Genome a{{0, 0, 0, 0, 0, 0}};
    const Genome b{{1, 1, 1, 1, 1, 1}};
    for (auto kind : {CrossoverKind::single_point, CrossoverKind::two_point,
                      CrossoverKind::uniform}) {
        std::vector<int> swapped(n, 0);
        for (int t = 0; t < trials; ++t) {
            const auto [ca, cb] = cross(a, b, kind, rng);
            for (std::size_t i = 0; i < n; ++i)
                if (ca.gene(i) != a.gene(i)) ++swapped[i];
        }
        // The point crossovers keep index 0 with its parent by construction
        // (cuts start at 1); uniform can exchange any index.
        const std::size_t first = kind == CrossoverKind::uniform ? 0 : 1;
        for (std::size_t i = first; i < n; ++i)
            EXPECT_GT(swapped[i], trials / 50)
                << crossover_name(kind) << " never/rarely exchanges gene " << i;
    }
}

TEST(Crossover, TwoPointLastGeneMatchesExpectedRate)
{
    // With p uniform on [1, n-1] and q uniform on [1, n], the last gene
    // swaps iff max(p, q) == n, i.e. q == n: probability 1/n.
    Rng rng{12};
    constexpr std::size_t n = 5;
    constexpr int trials = 20000;
    const Genome a{{0, 0, 0, 0, 0}};
    const Genome b{{1, 1, 1, 1, 1}};
    int last_swapped = 0;
    for (int t = 0; t < trials; ++t) {
        const auto [ca, cb] = cross(a, b, CrossoverKind::two_point, rng);
        if (ca.gene(n - 1) != 0) ++last_swapped;
    }
    const double rate = last_swapped / static_cast<double>(trials);
    EXPECT_NEAR(rate, 1.0 / n, 0.02);
}

TEST(Crossover, NamesAreStable)
{
    EXPECT_STREQ(crossover_name(CrossoverKind::single_point), "single_point");
    EXPECT_STREQ(crossover_name(CrossoverKind::two_point), "two_point");
    EXPECT_STREQ(crossover_name(CrossoverKind::uniform), "uniform");
}

// ---- property sweep: the guided distribution is a valid distribution --------

class ValueDistributionSweep
    : public ::testing::TestWithParam<std::tuple<double, double, std::uint32_t>> {};

TEST_P(ValueDistributionSweep, ValidProbabilityDistribution)
{
    const auto [bias, confidence, current] = GetParam();
    const auto d = ParamDomain::int_range(0, 7);
    ParamHints h;
    h.bias = bias;
    const auto w = value_distribution(d, h, confidence, current);
    EXPECT_NEAR(sum(w), 1.0, 1e-9);
    EXPECT_DOUBLE_EQ(w[current], 0.0);
    for (double p : w) EXPECT_GE(p, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    BiasConfidenceCurrent, ValueDistributionSweep,
    ::testing::Combine(::testing::Values(-1.0, -0.5, 0.0, 0.5, 1.0),
                       ::testing::Values(0.1, 0.5, 0.9, 1.0),
                       ::testing::Values(0u, 3u, 7u)));

// --------------------------------------------------------------------------
// repair(): cardinality arithmetic must happen in std::size_t.  (Empty
// domains are not constructible through the public ParamDomain factories --
// every one validates -- so the cardinality == 0 rejection inside repair()
// is purely defensive and has no reachable test vector.)

TEST(Repair, ClampsOutOfDomainGenesToLastValue)
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 7));
    space.add("b", ParamDomain::boolean());
    Genome g{std::vector<std::uint32_t>{12, 9}};
    EXPECT_EQ(repair(g, space), 2u);
    EXPECT_EQ(g.genes(), (std::vector<std::uint32_t>{7, 1}));
    EXPECT_TRUE(g.compatible_with(space));
}

TEST(Repair, HugeCardinalityDomainLeavesValidGenesUntouched)
{
    // cardinality == 2^32: the old uint32 cast truncated it to 0, so every
    // gene compared >= "cardinality" and was clamped to 0u - 1 == UINT32_MAX,
    // corrupting perfectly valid genomes.
    ParameterSpace space;
    space.add("wide", ParamDomain::int_range(0, 4294967295LL));
    Genome g{std::vector<std::uint32_t>{123}};
    EXPECT_EQ(repair(g, space), 0u);
    EXPECT_EQ(g.genes()[0], 123u);
    EXPECT_TRUE(g.compatible_with(space));
}

}  // namespace
}  // namespace nautilus
