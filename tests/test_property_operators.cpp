#include "core/operators.hpp"

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/breed.hpp"
#include "core/genome.hpp"
#include "core/parameter.hpp"
#include "core/rng.hpp"

// Property-based tests for the genetic operators: each test drives an
// operator through >= 1000 randomized cases and asserts invariants that must
// hold for *every* case, not just hand-picked examples.

namespace nautilus {
namespace {

constexpr int k_cases = 1000;

// A deliberately mixed space: different cardinalities, a pow2 domain, an
// ordered categorical, an unordered categorical and a boolean.
ParameterSpace mixed_space()
{
    ParameterSpace space;
    space.add("depth", ParamDomain::int_range(0, 11));
    space.add("width", ParamDomain::pow2(2, 7));
    space.add("impl", ParamDomain::categorical({"lut", "dsp", "hybrid"}, true));
    space.add("vendor", ParamDomain::categorical({"a", "b", "c", "d"}, false));
    space.add("pipeline", ParamDomain::boolean());
    return space;
}

Genome random_genome(const ParameterSpace& space, Rng& rng)
{
    return Genome::random(space, rng);
}

// Two children from copies of two parents, via the in-place crossover.
std::pair<Genome, Genome> cross(const Genome& a, const Genome& b, CrossoverKind kind, Rng& rng)
{
    Genome ca = a;
    Genome cb = b;
    crossover(ca.genes_mut(), cb.genes_mut(), kind, rng);
    return {std::move(ca), std::move(cb)};
}

void expect_in_domain(const Genome& g, const ParameterSpace& space)
{
    ASSERT_EQ(g.size(), space.size());
    for (std::size_t i = 0; i < g.size(); ++i)
        ASSERT_LT(g.gene(i), space[i].domain.cardinality())
            << "gene " << i << " out of domain";
}

TEST(PropertyCrossover, ChildrenOnlyEverContainParentGenes)
{
    const auto space = mixed_space();
    Rng rng{0x5eed1};
    for (const CrossoverKind kind :
         {CrossoverKind::single_point, CrossoverKind::two_point, CrossoverKind::uniform}) {
        for (int c = 0; c < k_cases; ++c) {
            const Genome a = random_genome(space, rng);
            const Genome b = random_genome(space, rng);
            const auto [c1, c2] = cross(a, b, kind, rng);
            ASSERT_EQ(c1.size(), a.size());
            ASSERT_EQ(c2.size(), a.size());
            for (std::size_t i = 0; i < a.size(); ++i) {
                // Gene-wise, each child takes its value from one parent and
                // the two children take complementary values.
                const bool c1_from_a = c1.gene(i) == a.gene(i);
                const bool c1_from_b = c1.gene(i) == b.gene(i);
                ASSERT_TRUE(c1_from_a || c1_from_b);
                if (c1_from_a && !c1_from_b) ASSERT_EQ(c2.gene(i), b.gene(i));
                if (c1_from_b && !c1_from_a) ASSERT_EQ(c2.gene(i), a.gene(i));
            }
            expect_in_domain(c1, space);
            expect_in_domain(c2, space);
        }
    }
}

// With parent A all-zeros and parent B all-ones, the first index where a
// child switches parents reveals the cut, so we can assert reachability of
// every cut position.
TEST(PropertySinglePointCrossover, EveryCutPositionIsReachable)
{
    ParameterSpace space;
    constexpr std::size_t n = 6;
    for (std::size_t i = 0; i < n; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 1));
    const Genome a{std::vector<std::uint32_t>(n, 0)};
    const Genome b{std::vector<std::uint32_t>(n, 1)};
    Rng rng{0x5eed2};
    std::set<std::size_t> cuts;
    for (int c = 0; c < k_cases; ++c) {
        const auto [c1, c2] = cross(a, b, CrossoverKind::single_point, rng);
        std::size_t cut = n;
        for (std::size_t i = 0; i < n; ++i)
            if (c1.gene(i) != c1.gene(0)) {
                cut = i;
                break;
            }
        ASSERT_NE(cut, n) << "single-point must exchange a proper prefix";
        // Everything after the cut stays swapped (contiguity).
        for (std::size_t i = cut; i < n; ++i) ASSERT_NE(c1.gene(i), c1.gene(0));
        cuts.insert(cut);
    }
    // All interior cuts [1, n-1] occur across 1000 draws.
    for (std::size_t cut = 1; cut < n; ++cut)
        EXPECT_TRUE(cuts.count(cut)) << "cut " << cut << " never drawn";
}

TEST(PropertyTwoPointCrossover, SwapsAreContiguousAndReachTheLastGene)
{
    ParameterSpace space;
    constexpr std::size_t n = 6;
    for (std::size_t i = 0; i < n; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 1));
    const Genome a{std::vector<std::uint32_t>(n, 0)};
    const Genome b{std::vector<std::uint32_t>(n, 1)};
    Rng rng{0x5eed3};
    std::set<std::pair<std::size_t, std::size_t>> windows;
    bool last_gene_swapped = false;
    for (int c = 0; c < k_cases; ++c) {
        const auto [c1, c2] = cross(a, b, CrossoverKind::two_point, rng);
        // The genes c1 took from b form one contiguous window [p, q).
        std::size_t p = n;
        std::size_t q = 0;
        for (std::size_t i = 0; i < n; ++i)
            if (c1.gene(i) == 1) {
                if (p == n) p = i;
                q = i + 1;
            }
        if (p == n) continue;  // empty swap window (p == q draw)
        for (std::size_t i = p; i < q; ++i)
            ASSERT_EQ(c1.gene(i), 1u) << "swap window must be contiguous";
        windows.insert({p, q});
        if (q == n) last_gene_swapped = true;
    }
    // Regression for the historical off-by-one: the window must be able to
    // include the final gene.
    EXPECT_TRUE(last_gene_swapped) << "two-point crossover never exchanged the last gene";
    // And interior windows of every start position appear too.
    std::set<std::size_t> starts;
    for (const auto& [p, q] : windows) starts.insert(p);
    for (std::size_t p = 1; p + 1 < n; ++p)
        EXPECT_TRUE(starts.count(p)) << "window starting at " << p << " never drawn";
}

TEST(PropertyMutation, MutatedGenomesAlwaysStayInDomain)
{
    const auto space = mixed_space();
    const HintSet none = HintSet::none(space);
    Rng rng{0x5eed4};
    BreedContext ctx{space, none, 0.5};  // high rate: exercise many gene draws
    for (int c = 0; c < k_cases; ++c) {
        Genome g = random_genome(space, rng);
        const Genome before = g;
        const std::size_t changed = ctx.mutate(g, rng);
        expect_in_domain(g, space);
        // `changed` counts exactly the differing genes, and every mutated
        // gene really changed value.
        std::size_t differing = 0;
        for (std::size_t i = 0; i < g.size(); ++i)
            if (g.gene(i) != before.gene(i)) ++differing;
        ASSERT_EQ(changed, differing);
    }
}

TEST(PropertyMutation, HintedMutationRespectsDomainsUnderRandomHints)
{
    const auto space = mixed_space();
    Rng rng{0x5eed5};
    for (int c = 0; c < k_cases; ++c) {
        // Random valid hint set: per-parameter importance, and bias *or*
        // target (never both) on ordered domains only.
        std::vector<ParamHints> params(space.size());
        for (std::size_t i = 0; i < space.size(); ++i) {
            params[i].importance = 1.0 + 99.0 * rng.uniform();
            params[i].importance_decay = 0.8 + 0.2 * rng.uniform();
            if (space[i].domain.ordered()) {
                const double which = rng.uniform();
                if (which < 0.4) params[i].bias = 2.0 * rng.uniform() - 1.0;
                else if (which < 0.8)
                    params[i].target = space[i].domain.numeric_value(
                        rng.index(space[i].domain.cardinality()));
                if (rng.uniform() < 0.5) params[i].step_scale = rng.uniform();
            }
        }
        HintSet hints{params, rng.uniform()};
        ASSERT_NO_THROW(hints.validate(space));

        BreedContext ctx{space, hints, 0.5};
        ctx.begin_generation(static_cast<std::size_t>(c % 40));
        Genome g = random_genome(space, rng);
        ctx.mutate(g, rng);
        expect_in_domain(g, space);
    }
}

TEST(PropertyMutation, ValueDistributionIsAProbabilityExcludingCurrent)
{
    const auto space = mixed_space();
    Rng rng{0x5eed6};
    for (int c = 0; c < k_cases; ++c) {
        const auto& domain = space[rng.index(space.size())].domain;
        ParamHints hints;
        if (domain.ordered()) {
            if (rng.uniform() < 0.5) hints.bias = 2.0 * rng.uniform() - 1.0;
            else hints.target = domain.numeric_value(rng.index(domain.cardinality()));
            if (rng.uniform() < 0.5) hints.step_scale = rng.uniform();
        }
        const double confidence = rng.uniform();
        const auto current = static_cast<std::uint32_t>(rng.index(domain.cardinality()));
        const std::vector<double> dist =
            value_distribution(domain, hints, confidence, current);
        ASSERT_EQ(dist.size(), domain.cardinality());
        ASSERT_EQ(dist[current], 0.0) << "mutation must change the gene";
        double sum = 0.0;
        for (const double p : dist) {
            ASSERT_GE(p, 0.0);
            sum += p;
        }
        if (domain.cardinality() > 1) ASSERT_NEAR(sum, 1.0, 1e-9);
    }
}

TEST(PropertyHints, BiasAndTargetAreMutuallyExclusive)
{
    const auto space = mixed_space();
    std::vector<ParamHints> params(space.size());
    params[0].bias = 0.5;
    params[0].target = 4.0;  // both set on an ordered domain: invalid
    const HintSet both{params, 0.5};
    EXPECT_THROW(both.validate(space), std::invalid_argument);

    // Bias on the *unordered* categorical ("vendor", index 3) is invalid too.
    std::vector<ParamHints> unordered(space.size());
    unordered[3].bias = 0.5;
    EXPECT_THROW((HintSet{unordered, 0.5}.validate(space)), std::invalid_argument);
    std::vector<ParamHints> unordered_target(space.size());
    unordered_target[3].target = 1.0;
    EXPECT_THROW((HintSet{unordered_target, 0.5}.validate(space)), std::invalid_argument);

    // Either one alone on an ordered domain is fine.
    std::vector<ParamHints> ok(space.size());
    ok[0].bias = 0.5;
    ok[2].target = 1.0;
    EXPECT_NO_THROW((HintSet{ok, 0.5}.validate(space)));
}

TEST(PropertyRepair, RepairedGenomesAreAlwaysCompatibleAndIdempotent)
{
    const auto space = mixed_space();
    Rng rng{0x5eed7};
    for (int c = 0; c < k_cases; ++c) {
        // Build a deliberately broken genome: random length in [0, 2n],
        // random gene values up to 4x the largest cardinality.
        const std::size_t len = rng.index(2 * space.size() + 1);
        std::vector<std::uint32_t> genes(len);
        for (auto& g : genes) g = static_cast<std::uint32_t>(rng.index(48));
        Genome broken{genes};

        const std::size_t changed = repair(broken, space);
        expect_in_domain(broken, space);
        EXPECT_TRUE(broken.compatible_with(space));

        // Idempotence: a repaired genome needs no further repair.
        Genome again = broken;
        EXPECT_EQ(repair(again, space), 0u);
        EXPECT_EQ(again.genes(), broken.genes());

        // Repair counts only actual changes: an already-valid genome
        // reports zero.
        if (changed == 0) EXPECT_EQ(Genome{genes}.genes(), broken.genes());
    }
}

}  // namespace
}  // namespace nautilus
