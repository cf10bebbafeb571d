#include "core/evaluator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <vector>

#include "core/batch_evaluator.hpp"
#include "core/rng.hpp"

namespace nautilus {
namespace {

ParameterSpace two_param_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 9));
    space.add("b", ParamDomain::int_range(0, 9));
    return space;
}

TEST(CachingEvaluator, RejectsNullFunction)
{
    EXPECT_THROW(CachingEvaluator{EvalFn{}}, std::invalid_argument);
}

TEST(CachingEvaluator, ChargesEachDistinctGenomeOnce)
{
    int calls = 0;
    CachingEvaluator ev{[&](const Genome& g) {
        ++calls;
        return Evaluation{true, static_cast<double>(g.gene(0))};
    }};

    const Genome a{{1, 2}};
    const Genome b{{3, 4}};
    ev.evaluate(a);
    ev.evaluate(b);
    ev.evaluate(a);
    ev.evaluate(a);
    ev.evaluate(b);

    EXPECT_EQ(calls, 2);
    EXPECT_EQ(ev.distinct_evaluations(), 2u);
    EXPECT_EQ(ev.total_calls(), 5u);
}

TEST(CachingEvaluator, ReturnsCachedValueExactly)
{
    CachingEvaluator ev{[](const Genome& g) {
        return Evaluation{g.gene(0) != 0, static_cast<double>(g.gene(0)) * 1.5};
    }};
    const Genome g{{4, 0}};
    const Evaluation first = ev.evaluate(g);
    const Evaluation second = ev.evaluate(g);
    EXPECT_EQ(first.feasible, second.feasible);
    EXPECT_DOUBLE_EQ(first.value, second.value);
    EXPECT_DOUBLE_EQ(first.value, 6.0);
}

TEST(CachingEvaluator, CachesInfeasibleResults)
{
    int calls = 0;
    CachingEvaluator ev{[&](const Genome&) {
        ++calls;
        return Evaluation{false, 0.0};
    }};
    const Genome g{{0, 0}};
    EXPECT_FALSE(ev.evaluate(g).feasible);
    EXPECT_FALSE(ev.evaluate(g).feasible);
    EXPECT_EQ(calls, 1);
}

TEST(CachingEvaluator, ManyGenomesAllDistinct)
{
    CachingEvaluator ev{[](const Genome& g) {
        return Evaluation{true, static_cast<double>(g.key() % 100)};
    }};
    const auto space = two_param_space();
    for (std::size_t rank = 0; rank < 100; ++rank)
        ev.evaluate(Genome::from_rank(space, rank));
    EXPECT_EQ(ev.distinct_evaluations(), 100u);
}

// ---- Property tests against a std::map reference ---------------------------

// Deterministic, gene-dependent result with some infeasible points.
Evaluation reference_eval(const Genome& g)
{
    std::uint64_t sum = 0;
    for (std::uint32_t v : g.genes()) sum = sum * 31 + v;
    return {sum % 7 != 0, static_cast<double>(sum) * 0.25 + static_cast<double>(g.size())};
}

// A genome over a small space: 2 or 3 genes, 6 values each (252 points), so
// revisits dominate a long run.
Genome small_genome(Rng& rng)
{
    std::vector<std::uint32_t> genes(2 + rng.index(2));
    for (std::uint32_t& v : genes) v = static_cast<std::uint32_t>(rng.index(6));
    return Genome{std::move(genes)};
}

void expect_same(const Evaluation& a, const Evaluation& b)
{
    EXPECT_EQ(a.feasible, b.feasible);
    EXPECT_EQ(a.value, b.value);
}

TEST(CachingEvaluatorProperty, MatchesMapReferenceThroughGrowthAndRestore)
{
    std::size_t fn_calls = 0;
    const auto counted = [&](const Genome& g) {
        ++fn_calls;
        return reference_eval(g);
    };
    auto ev = std::make_unique<CachingEvaluator>(counted);
    std::map<std::vector<std::uint32_t>, Evaluation> reference;
    BatchEvaluator batch{1};
    Rng rng{20150607};
    constexpr std::size_t k_lookups = 100000;
    bool restored = false;
    std::size_t lookups = 0;
    while (lookups < k_lookups) {
        // Waves up to 4x the initial table, so early waves grow it mid-wave.
        const std::size_t size = std::min<std::size_t>(
            1 + rng.index(4 * CachingEvaluator::k_initial_slots), k_lookups - lookups);
        std::vector<Genome> wave;
        for (std::size_t i = 0; i < size; ++i) wave.push_back(small_genome(rng));
        std::vector<Evaluation> out(size);
        batch.evaluate(*ev, std::span<const Genome>{wave}, std::span<Evaluation>{out});
        for (std::size_t i = 0; i < size; ++i) {
            const auto [it, fresh] = reference.try_emplace(wave[i].genes(), reference_eval(wave[i]));
            expect_same(out[i], it->second);
        }
        lookups += size;
        ASSERT_EQ(ev->distinct_evaluations(), reference.size());
        ASSERT_EQ(ev->total_calls(), lookups);
        ASSERT_EQ(fn_calls, reference.size());

        if (!restored && lookups >= k_lookups / 2) {
            // Round trip through a snapshot into a fresh memo and carry on.
            const CachingEvaluator::Snapshot snap = ev->snapshot();
            ASSERT_EQ(snap.entries.size(), reference.size());
            for (std::size_t i = 1; i < snap.entries.size(); ++i)
                EXPECT_LT(snap.entries[i - 1].first.key(), snap.entries[i].first.key());
            for (const auto& [genome, value] : snap.entries)
                expect_same(value, reference.at(genome.genes()));
            ev = std::make_unique<CachingEvaluator>(counted);
            ev->restore(snap);
            EXPECT_EQ(ev->distinct_evaluations(), reference.size());
            EXPECT_EQ(ev->total_calls(), lookups);
            const CachingEvaluator::Snapshot again = ev->snapshot();
            ASSERT_EQ(again.entries.size(), snap.entries.size());
            for (std::size_t i = 0; i < snap.entries.size(); ++i) {
                EXPECT_EQ(again.entries[i].first, snap.entries[i].first);
                expect_same(again.entries[i].second, snap.entries[i].second);
            }
            restored = true;
        }
    }
    EXPECT_TRUE(restored);
    // Every genome of the space was seen, and each cost one call.
    EXPECT_EQ(reference.size(), 36u + 216u);
    EXPECT_EQ(fn_calls, reference.size());
}

TEST(CachingEvaluatorProperty, CollidingKeysAreToldApartByGenes)
{
    // Callers pass the key; a degenerate one (4 values) makes nearly every
    // probe a key match, so only the gene comparison keeps entries apart.
    std::size_t fn_calls = 0;
    const auto collide = [](const Genome& g) { return g.key() & 3; };
    const auto fill = [&](CachingEvaluator& ev, std::uint64_t seed) {
        std::map<std::vector<std::uint32_t>, Evaluation> reference;
        Rng rng{seed};
        for (int i = 0; i < 3000; ++i) {
            const Genome g = small_genome(rng);
            const auto [it, fresh] = reference.try_emplace(g.genes(), reference_eval(g));
            expect_same(ev.evaluate(g, collide(g)), it->second);
        }
        EXPECT_EQ(ev.distinct_evaluations(), reference.size());
        return reference;
    };
    CachingEvaluator a{[&](const Genome& g) {
        ++fn_calls;
        return reference_eval(g);
    }};
    CachingEvaluator b{reference_eval};
    const auto ref_a = fill(a, 1);
    fill(b, 2);  // same space, another visiting order
    EXPECT_EQ(fn_calls, ref_a.size());

    // Snapshots order by (stored key, genes), so equal keys still serialize
    // in one order, whatever order the genomes arrived in.
    const auto snap_a = a.snapshot();
    const auto snap_b = b.snapshot();
    ASSERT_EQ(snap_a.entries.size(), snap_b.entries.size());
    for (std::size_t i = 0; i < snap_a.entries.size(); ++i)
        EXPECT_EQ(snap_a.entries[i].first, snap_b.entries[i].first);
}

TEST(CachingEvaluatorProperty, FourWorkersOnDuplicateWaveCallOncePerGenome)
{
    // 600 distinct genomes, each four times, shuffled into one wave: the
    // table grows several times while evaluations are in flight.
    constexpr std::uint32_t k_distinct = 600;
    std::vector<std::atomic<int>> calls(k_distinct);
    CachingEvaluator ev{[&](const Genome& g) {
        calls[g.gene(0)].fetch_add(1);
        std::uint64_t spin = g.gene(0);
        for (int i = 0; i < 2000; ++i) spin = hash_combine(spin, i);  // overlap the workers
        return Evaluation{spin != 0, static_cast<double>(g.gene(0))};
    }};
    std::vector<Genome> wave;
    for (int copy = 0; copy < 4; ++copy)
        for (std::uint32_t i = 0; i < k_distinct; ++i) wave.push_back(Genome{{i, i % 3}});
    Rng rng{4};
    rng.shuffle(wave);
    ASSERT_GT(k_distinct, 4 * CachingEvaluator::k_initial_slots);

    BatchEvaluator batch{4};
    std::vector<Evaluation> out(wave.size());
    batch.evaluate(ev, std::span<const Genome>{wave}, std::span<Evaluation>{out});
    for (std::uint32_t i = 0; i < k_distinct; ++i) EXPECT_EQ(calls[i].load(), 1) << i;
    for (std::size_t i = 0; i < wave.size(); ++i)
        EXPECT_EQ(out[i].value, static_cast<double>(wave[i].gene(0)));
    EXPECT_EQ(ev.distinct_evaluations(), k_distinct);
    EXPECT_EQ(ev.total_calls(), wave.size());

    // A second pass is all hits.
    batch.evaluate(ev, std::span<const Genome>{wave}, std::span<Evaluation>{out});
    for (std::uint32_t i = 0; i < k_distinct; ++i) EXPECT_EQ(calls[i].load(), 1) << i;
    EXPECT_EQ(ev.distinct_evaluations(), k_distinct);
    EXPECT_EQ(ev.total_calls(), 2 * wave.size());
}

}  // namespace
}  // namespace nautilus
