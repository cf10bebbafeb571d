#include "core/evaluator.hpp"

#include <gtest/gtest.h>

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

}  // namespace
}  // namespace nautilus
