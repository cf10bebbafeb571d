#include "core/breed.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "breed_reference.hpp"

namespace nautilus {
namespace {

ParameterSpace toy_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 7));
    space.add("b", ParamDomain::int_range(0, 7));
    space.add("c", ParamDomain::int_range(0, 7));
    space.add("d", ParamDomain::int_range(0, 7));
    return space;
}

// Varied cardinalities, a single-value domain (mutation must skip it) and an
// unordered categorical (bias/target do not apply).
ParameterSpace mixed_space()
{
    ParameterSpace space;
    space.add("width", ParamDomain::int_range(0, 15));
    space.add("depth", ParamDomain::pow2(0, 6));
    space.add("flag", ParamDomain::boolean());
    space.add("algo", ParamDomain::categorical({"rr", "greedy", "ilp"}));
    space.add("fixed", ParamDomain::int_range(5, 5));
    return space;
}

// Exercises every hint channel: importance + decay, bias, target, step_scale.
HintSet guided_hints(const ParameterSpace& space)
{
    HintSet hints = HintSet::none(space);
    hints.set_confidence(0.7);
    hints.param(0).importance = 40.0;
    hints.param(0).importance_decay = 0.9;
    hints.param(0).bias = 0.8;
    hints.param(1).importance = 10.0;
    hints.param(1).target = 6.0;
    hints.param(1).step_scale = 0.3;
    if (space.size() > 4) hints.param(2).importance = 5.0;
    hints.validate(space);
    return hints;
}

std::vector<Genome> random_population(const ParameterSpace& space, std::size_t n, Rng& rng)
{
    std::vector<Genome> population;
    population.reserve(n);
    for (std::size_t i = 0; i < n; ++i) population.push_back(Genome::random(space, rng));
    return population;
}

std::vector<double> random_fitness(std::size_t n, Rng& rng, bool with_infeasible)
{
    std::vector<double> fitness(n);
    for (auto& f : fitness) {
        f = rng.uniform() * 100.0;
        if (with_infeasible && rng.bernoulli(0.25))
            f = -std::numeric_limits<double>::infinity();
    }
    return fitness;
}

void expect_same_stats(const MutationStats& a, const MutationStats& b)
{
    EXPECT_EQ(a.genomes, b.genomes);
    EXPECT_EQ(a.genes_mutated, b.genes_mutated);
    EXPECT_EQ(a.bias_draws, b.bias_draws);
    EXPECT_EQ(a.target_draws, b.target_draws);
    EXPECT_EQ(a.uniform_draws, b.uniform_draws);
}

// ---------------------------------------------------------------------------
// SelectionTable vs reference::select_parent: identical pick sequence and RNG
// state.

TEST(SelectionTable, MatchesSelectParentDrawForDraw)
{
    const SelectionConfig configs[] = {
        {SelectionKind::rank, 1.8, 2},
        {SelectionKind::rank, 1.0, 2},
        {SelectionKind::tournament, 1.8, 2},
        {SelectionKind::tournament, 1.8, 5},
        {SelectionKind::roulette, 1.8, 2},
    };
    Rng setup{2024};
    for (const auto& config : configs) {
        for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{10}}) {
            for (const bool infeasible : {false, true}) {
                const auto fitness = random_fitness(n, setup, infeasible);
                SelectionTable table;
                table.rebuild(fitness, config);
                Rng scalar_rng{77}, table_rng{77};
                for (int pick = 0; pick < 500; ++pick) {
                    const auto want = reference::select_parent(fitness, config, scalar_rng);
                    const auto got = table.select(table_rng);
                    ASSERT_EQ(want, got)
                        << "kind=" << static_cast<int>(config.kind) << " n=" << n
                        << " pick=" << pick;
                }
                // Same draw count, not just same picks.
                EXPECT_EQ(scalar_rng.state(), table_rng.state());
            }
        }
    }
}

TEST(SelectionTable, AllInfeasibleRouletteFallsBackToUniform)
{
    const std::vector<double> fitness(6, -std::numeric_limits<double>::infinity());
    SelectionTable table;
    table.rebuild(fitness, {SelectionKind::roulette, 1.8, 2});
    Rng scalar_rng{5}, table_rng{5};
    for (int pick = 0; pick < 200; ++pick) {
        EXPECT_EQ(
            reference::select_parent(fitness, {SelectionKind::roulette, 1.8, 2}, scalar_rng),
            table.select(table_rng));
    }
    EXPECT_EQ(scalar_rng.state(), table_rng.state());
}

TEST(SelectionTable, RankWithOneMemberConsumesNoRng)
{
    const std::vector<double> fitness{3.0};
    SelectionTable table;
    table.rebuild(fitness, {SelectionKind::rank, 1.8, 2});
    Rng rng{9};
    const auto before = rng.state();
    EXPECT_EQ(table.select(rng), 0u);
    EXPECT_EQ(rng.state(), before);
}

TEST(SelectionTable, ValidatesLikeSelectParent)
{
    SelectionTable table;
    EXPECT_THROW(table.rebuild({}, {SelectionKind::rank, 1.8, 2}), std::invalid_argument);
    const std::vector<double> fitness{1.0, 2.0};
    EXPECT_THROW(table.rebuild(fitness, {SelectionKind::rank, 2.5, 2}), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// In-place crossover on gene spans vs reference::crossover on Genome copies.

TEST(CrossoverViews, MatchesCrossoverOnGenomes)
{
    const auto space = mixed_space();
    Rng setup{31};
    for (const auto kind :
         {CrossoverKind::single_point, CrossoverKind::two_point, CrossoverKind::uniform}) {
        for (int round = 0; round < 100; ++round) {
            const Genome pa = Genome::random(space, setup);
            const Genome pb = Genome::random(space, setup);
            std::vector<std::uint32_t> va = pa.genes(), vb = pb.genes();

            Rng scalar_rng{static_cast<std::uint64_t>(round + 1)};
            Rng view_rng{static_cast<std::uint64_t>(round + 1)};
            const auto [ca, cb] = reference::crossover(pa, pb, kind, scalar_rng);
            crossover(va, vb, kind, view_rng);

            EXPECT_EQ(ca.genes(), va);
            EXPECT_EQ(cb.genes(), vb);
            EXPECT_EQ(scalar_rng.state(), view_rng.state());
        }
    }
}

// ---------------------------------------------------------------------------
// BreedContext::mutate vs reference::mutate: identical genes, counts, stats
// and RNG consumption across generations and hint shapes.

TEST(BreedContextMutate, MatchesFreeMutateAcrossGenerations)
{
    for (const bool use_mixed : {false, true}) {
        const auto space = use_mixed ? mixed_space() : toy_space();
        for (const bool guided : {false, true}) {
            const HintSet hints = guided ? guided_hints(space) : HintSet::none(space);
            BreedContext breed_ctx{space, hints, 0.35};
            for (const std::size_t gen : {std::size_t{0}, std::size_t{1}, std::size_t{7}}) {
                breed_ctx.begin_generation(gen);
                reference::MutationContext scalar_ctx;
                scalar_ctx.space = &space;
                scalar_ctx.hints = &hints;
                scalar_ctx.mutation_rate = 0.35;
                scalar_ctx.generation = gen;
                MutationStats scalar_stats, ctx_stats;
                scalar_ctx.stats = &scalar_stats;

                Rng setup{gen * 1000 + (guided ? 1 : 0) + (use_mixed ? 2 : 0) + 5};
                Rng scalar_rng{404}, ctx_rng{404};
                for (int round = 0; round < 200; ++round) {
                    Genome a = Genome::random(space, setup);
                    Genome b = a;
                    const auto want = reference::mutate(a, scalar_ctx, scalar_rng);
                    const auto got = breed_ctx.mutate(b, ctx_rng, &ctx_stats);
                    ASSERT_EQ(want, got);
                    ASSERT_EQ(a.genes(), b.genes());
                }
                EXPECT_EQ(scalar_rng.state(), ctx_rng.state());
                expect_same_stats(scalar_stats, ctx_stats);
            }
        }
    }
}

TEST(BreedContextMutate, RejectsIncompatibleGenome)
{
    const auto space = toy_space();
    const HintSet hints = HintSet::none(space);
    BreedContext ctx{space, hints, 0.1};
    Rng rng{1};
    Genome wrong{std::vector<std::uint32_t>{0, 0}};
    EXPECT_THROW(ctx.mutate(wrong, rng), std::invalid_argument);
}

TEST(BreedContext, HoistedProbsMatchPerCallComputation)
{
    const auto space = mixed_space();
    const HintSet hints = guided_hints(space);
    BreedContext ctx{space, hints, 0.2};
    for (const std::size_t gen : {std::size_t{0}, std::size_t{3}, std::size_t{11}}) {
        ctx.begin_generation(gen);
        const MutationContext scalar_ctx{&space, &hints, 0.2, gen};
        const auto want = gene_mutation_probabilities(scalar_ctx);
        const auto got = ctx.gene_probs();
        ASSERT_EQ(want.size(), got.size());
        for (std::size_t i = 0; i < want.size(); ++i) EXPECT_EQ(want[i], got[i]);
    }
}

TEST(BreedContext, MemoizedDistributionIsBitIdenticalToFresh)
{
    const auto space = mixed_space();
    const HintSet hints = guided_hints(space);
    BreedContext ctx{space, hints, 0.2};

    // Two passes: the first fills the memo (misses), the second must hit it
    // and still return the bit-identical distribution.
    for (int pass = 0; pass < 2; ++pass) {
        for (std::size_t p = 0; p < space.size(); ++p) {
            const std::size_t card = space[p].domain.cardinality();
            if (card < 2) continue;  // mutation never asks for these
            for (std::uint32_t current = 0; current < card; ++current) {
                const auto want =
                    value_distribution(space[p].domain, hints.param(p), hints.confidence(),
                                       current);
                const auto& got = ctx.distribution(p, current);
                ASSERT_EQ(want, got) << "param=" << p << " current=" << current;
            }
        }
    }
    EXPECT_GT(ctx.dist_memo_hits(), 0u);
    EXPECT_GT(ctx.dist_memo_misses(), 0u);
}

// ---------------------------------------------------------------------------
// BreedContext::breed_pair vs the reference operators in the documented draw
// order: bernoulli(crossover_rate), crossover, mutate a, mutate b.

TEST(BreedPair, MatchesReferencePairStep)
{
    const auto space = mixed_space();
    const HintSet hints = guided_hints(space);
    BreedContext ctx{space, hints, 0.3};
    reference::MutationContext ref_ctx;
    ref_ctx.space = &space;
    ref_ctx.hints = &hints;
    ref_ctx.mutation_rate = 0.3;
    Rng setup{515};
    Rng ref_rng{61}, ctx_rng{61};
    for (const bool mutate_b : {true, false}) {
        for (int round = 0; round < 300; ++round) {
            const Genome pa = Genome::random(space, setup);
            const Genome pb = Genome::random(space, setup);

            std::vector<std::uint8_t> mask;
            Genome want_a = pa, want_b = pb;
            const bool want_crossed = ref_rng.bernoulli(0.6);
            if (want_crossed) {
                auto [xa, xb] =
                    reference::crossover(pa, pb, CrossoverKind::two_point, ref_rng, &mask);
                want_a = std::move(xa);
                want_b = std::move(xb);
            }
            else {
                mask.assign(space.size(), 0);
            }
            std::vector<obs::GeneOrigin> want_oa(space.size()), want_ob(space.size());
            for (std::size_t i = 0; i < space.size(); ++i)
                want_oa[i] = want_ob[i] = mask[i] != 0 ? obs::GeneOrigin::parent_b
                                                       : obs::GeneOrigin::parent_a;
            ref_ctx.origins = want_oa.data();
            reference::mutate(want_a, ref_ctx, ref_rng);
            if (mutate_b) {
                ref_ctx.origins = want_ob.data();
                reference::mutate(want_b, ref_ctx, ref_rng);
            }

            Genome got_a = pa, got_b = pb;
            std::vector<obs::GeneOrigin> got_oa(space.size()), got_ob(space.size());
            const bool got_crossed =
                ctx.breed_pair(got_a.genes_mut(), got_b.genes_mut(), 0.6,
                               CrossoverKind::two_point, ctx_rng, mutate_b, nullptr,
                               got_oa.data(), got_ob.data());

            ASSERT_EQ(want_crossed, got_crossed) << "round " << round;
            ASSERT_EQ(want_a.genes(), got_a.genes()) << "round " << round;
            ASSERT_EQ(want_b.genes(), got_b.genes()) << "round " << round;
            ASSERT_EQ(want_oa, got_oa) << "round " << round;
            if (mutate_b) {
                ASSERT_EQ(want_ob, got_ob) << "round " << round;
            }
        }
    }
    EXPECT_EQ(ref_rng.state(), ctx_rng.state());
}

// ---------------------------------------------------------------------------
// BreedContext::breed vs the reference per-call breed loop.

void expect_same_births(const BirthLog& want, const BirthLog& got)
{
    EXPECT_EQ(want.elites, got.elites);
    ASSERT_EQ(want.children.size(), got.children.size());
    for (std::size_t i = 0; i < want.children.size(); ++i) {
        const ChildProvenance& a = want.children[i];
        const ChildProvenance& b = got.children[i];
        EXPECT_EQ(a.parent_a, b.parent_a) << "child " << i;
        EXPECT_EQ(a.parent_b, b.parent_b) << "child " << i;
        EXPECT_EQ(a.crossed, b.crossed) << "child " << i;
        EXPECT_EQ(a.origins, b.origins) << "child " << i;
    }
}

TEST(BreedPhase, DataOrientedMatchesScalarReference)
{
    const auto space = mixed_space();
    Rng setup{808};
    for (const bool guided : {false, true}) {
        const HintSet hints = guided ? guided_hints(space) : HintSet::none(space);
        for (const auto kind :
             {SelectionKind::rank, SelectionKind::tournament, SelectionKind::roulette}) {
            for (const auto cross : {CrossoverKind::single_point, CrossoverKind::two_point,
                                     CrossoverKind::uniform}) {
                for (const std::size_t pop_size : {std::size_t{9}, std::size_t{10}}) {
                    BreedConfig config;
                    config.selection = {kind, 1.8, 3};
                    config.crossover = cross;
                    config.crossover_rate = 0.85;
                    config.elitism = 2;
                    config.population_size = pop_size;

                    auto scalar_pop = random_population(space, pop_size, setup);
                    auto dataop_pop = scalar_pop;
                    const auto fitness = random_fitness(pop_size, setup, true);

                    BreedContext ctx{space, hints, 0.3};
                    Rng scalar_rng{99}, dataop_rng{99};
                    BirthLog scalar_births, dataop_births;
                    for (std::size_t gen = 0; gen < 5; ++gen) {
                        const auto scalar_stats = reference::breed_population_scalar(
                            scalar_pop, fitness, config, space, hints, 0.3, gen,
                            scalar_rng, true, &scalar_births);
                        ctx.begin_generation(gen);
                        const auto dataop_stats = ctx.breed(dataop_pop, fitness, config,
                                                            dataop_rng, true, &dataop_births);

                        ASSERT_EQ(scalar_pop.size(), dataop_pop.size());
                        for (std::size_t i = 0; i < scalar_pop.size(); ++i)
                            ASSERT_EQ(scalar_pop[i].genes(), dataop_pop[i].genes())
                                << "member " << i << " gen " << gen;
                        EXPECT_EQ(scalar_stats.crossovers, dataop_stats.crossovers);
                        expect_same_stats(scalar_stats.mutation, dataop_stats.mutation);
                        expect_same_births(scalar_births, dataop_births);
                    }
                    EXPECT_EQ(scalar_rng.state(), dataop_rng.state());
                }
            }
        }
    }
}

TEST(BreedPhase, ValidatesInputs)
{
    const auto space = toy_space();
    const HintSet hints = HintSet::none(space);
    BreedContext ctx{space, hints, 0.1};
    Rng rng{1};
    BreedConfig config;
    config.population_size = 4;
    config.elitism = 4;
    auto population = random_population(space, 4, rng);
    const std::vector<double> fitness(4, 1.0);
    EXPECT_THROW(ctx.breed(population, fitness, config, rng, false), std::invalid_argument);
    config.elitism = 1;
    config.population_size = 5;
    EXPECT_THROW(ctx.breed(population, fitness, config, rng, false), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// DiversityCounter vs the O(pop^2) pairwise definition.

double brute_force_diversity(const std::vector<Genome>& population)
{
    if (population.size() < 2) return 0.0;
    const std::size_t genes = population.front().genes().size();
    if (genes == 0) return 0.0;
    double total = 0.0;
    std::size_t pairs = 0;
    for (std::size_t i = 0; i < population.size(); ++i) {
        for (std::size_t j = i + 1; j < population.size(); ++j) {
            std::size_t differing = 0;
            for (std::size_t g = 0; g < genes; ++g)
                if (population[i].genes()[g] != population[j].genes()[g]) ++differing;
            total += static_cast<double>(differing) / static_cast<double>(genes);
            ++pairs;
        }
    }
    return total / static_cast<double>(pairs);
}

TEST(DiversityCounter, MatchesPairwiseDefinition)
{
    const auto space = mixed_space();
    Rng rng{606};
    DiversityCounter counter;
    for (const std::size_t n : {std::size_t{2}, std::size_t{3}, std::size_t{10},
                                std::size_t{33}}) {
        const auto population = random_population(space, n, rng);
        EXPECT_NEAR(counter.measure(population), brute_force_diversity(population), 1e-12)
            << "n=" << n;
    }
}

TEST(DiversityCounter, EdgeCases)
{
    const auto space = toy_space();
    DiversityCounter counter;
    EXPECT_EQ(counter.measure({}), 0.0);

    Rng rng{3};
    const auto one = random_population(space, 1, rng);
    EXPECT_EQ(counter.measure(one), 0.0);

    std::vector<Genome> clones(5, Genome{std::vector<std::uint32_t>{1, 2, 3, 4}});
    EXPECT_EQ(counter.measure(clones), 0.0);

    std::vector<Genome> distinct{Genome{std::vector<std::uint32_t>{0, 0, 0, 0}},
                                 Genome{std::vector<std::uint32_t>{1, 1, 1, 1}},
                                 Genome{std::vector<std::uint32_t>{2, 2, 2, 2}}};
    EXPECT_EQ(counter.measure(distinct), 1.0);
}

TEST(DiversityCounter, IncrementalAddMatchesOneShot)
{
    const auto space = mixed_space();
    Rng rng{71};
    const auto population = random_population(space, 12, rng);

    DiversityCounter one_shot;
    const double want = one_shot.measure(population);

    DiversityCounter incremental;
    incremental.reset(space.size());
    for (const auto& g : population) incremental.add(g);
    EXPECT_EQ(incremental.value(), want);
}

}  // namespace
}  // namespace nautilus
