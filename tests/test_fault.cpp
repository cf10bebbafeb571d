#include "core/fault.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <thread>

#include "core/evaluator.hpp"
#include "core/parameter.hpp"

namespace nautilus {
namespace {

ParameterSpace tiny_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 7));
    space.add("b", ParamDomain::int_range(0, 7));
    return space;
}

Genome make_genome(std::uint32_t a, std::uint32_t b)
{
    return Genome{std::vector<std::uint32_t>{a, b}};
}

Evaluation sum_eval(const Genome& g)
{
    return {true, static_cast<double>(g.gene(0) + g.gene(1))};
}

TEST(RetryPolicy, ValidationCatchesBadSettings)
{
    RetryPolicy p;
    p.max_attempts = 0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = RetryPolicy{};
    p.backoff_ms = -1.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = RetryPolicy{};
    p.backoff_multiplier = 0.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = RetryPolicy{};
    p.jitter = 1.5;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    p = RetryPolicy{};
    p.timeout_seconds = -2.0;
    EXPECT_THROW(p.validate(), std::invalid_argument);
    EXPECT_NO_THROW(RetryPolicy{}.validate());
}

TEST(RetryPolicy, BackoffGrowsExponentiallyAndFirstAttemptIsFree)
{
    RetryPolicy p;
    p.max_attempts = 4;
    p.backoff_ms = 10.0;
    p.backoff_multiplier = 2.0;
    EXPECT_DOUBLE_EQ(p.backoff_before(1, 42), 0.0);
    EXPECT_DOUBLE_EQ(p.backoff_before(2, 42), 10.0);
    EXPECT_DOUBLE_EQ(p.backoff_before(3, 42), 20.0);
    EXPECT_DOUBLE_EQ(p.backoff_before(4, 42), 40.0);
}

TEST(RetryPolicy, JitterIsDeterministicPerKeyAndBounded)
{
    RetryPolicy p;
    p.max_attempts = 3;
    p.backoff_ms = 100.0;
    p.jitter = 0.25;
    const double a1 = p.backoff_before(2, 1);
    const double a2 = p.backoff_before(2, 1);
    EXPECT_DOUBLE_EQ(a1, a2);  // same (key, attempt) -> same jitter
    EXPECT_GE(a1, 75.0);
    EXPECT_LE(a1, 125.0);
    // Different keys draw different jitter (overwhelmingly likely).
    bool any_different = false;
    for (std::uint64_t key = 0; key < 16; ++key)
        if (p.backoff_before(2, key) != a1) any_different = true;
    EXPECT_TRUE(any_different);
}

TEST(FaultTolerantEvaluator, PassesThroughWhenNothingFails)
{
    FaultTolerantEvaluator<Evaluation> guard{sum_eval, FaultPolicy{}, Evaluation{false, 0.0}};
    const Genome g = make_genome(3, 4);
    EvalOutcome out;
    const Evaluation e = guard.evaluate(g, &out);
    EXPECT_TRUE(e.feasible);
    EXPECT_DOUBLE_EQ(e.value, 7.0);
    EXPECT_EQ(out.status, EvalStatus::ok);
    EXPECT_EQ(out.attempts, 1u);
    EXPECT_FALSE(out.penalized);
    EXPECT_EQ(guard.counters().attempts, 1u);
    EXPECT_EQ(guard.counters().retries, 0u);
}

TEST(FaultTolerantEvaluator, RetriesTransientFailuresToSuccess)
{
    std::atomic<int> calls{0};
    const auto flaky = [&](const Genome& g) {
        if (calls.fetch_add(1) < 2) throw std::runtime_error("transient");
        return sum_eval(g);
    };
    FaultPolicy policy;
    policy.retry.max_attempts = 3;
    FaultTolerantEvaluator<Evaluation> guard{flaky, policy, Evaluation{false, 0.0}};
    EvalOutcome out;
    const Evaluation e = guard.evaluate(make_genome(1, 1), &out);
    EXPECT_DOUBLE_EQ(e.value, 2.0);
    EXPECT_EQ(out.status, EvalStatus::ok);
    EXPECT_EQ(out.attempts, 3u);
    const FaultCounters c = guard.counters();
    EXPECT_EQ(c.attempts, 3u);
    EXPECT_EQ(c.retries, 2u);
    EXPECT_EQ(c.failures, 2u);
    EXPECT_EQ(c.quarantined, 0u);
}

TEST(FaultTolerantEvaluator, RethrowsWhenNotTolerant)
{
    const auto broken = [](const Genome&) -> Evaluation {
        throw std::runtime_error("dead tool");
    };
    FaultPolicy policy;
    policy.retry.max_attempts = 2;
    FaultTolerantEvaluator<Evaluation> guard{broken, policy, Evaluation{false, 0.0}};
    EXPECT_THROW(guard.evaluate(make_genome(0, 0)), std::runtime_error);
    const FaultCounters c = guard.counters();
    EXPECT_EQ(c.attempts, 2u);
    EXPECT_EQ(c.retries, 1u);
    EXPECT_EQ(c.failures, 2u);
    EXPECT_EQ(c.quarantined, 0u);
    EXPECT_EQ(c.penalties, 0u);
}

TEST(FaultTolerantEvaluator, QuarantinesAndServesPenaltyWhenTolerant)
{
    const auto broken = [](const Genome&) -> Evaluation {
        throw std::runtime_error("dead tool");
    };
    FaultPolicy policy;
    policy.retry.max_attempts = 3;
    policy.tolerate_failures = true;
    FaultTolerantEvaluator<Evaluation> guard{broken, policy, Evaluation{false, -1.0}};
    const Genome g = make_genome(5, 5);
    EvalOutcome out;
    const Evaluation e = guard.evaluate(g, &out);
    EXPECT_FALSE(e.feasible);
    EXPECT_DOUBLE_EQ(e.value, -1.0);
    EXPECT_TRUE(out.penalized);
    EXPECT_EQ(out.status, EvalStatus::failed);
    EXPECT_EQ(out.attempts, 3u);
    EXPECT_EQ(out.error, "dead tool");
    const FaultCounters c = guard.counters();
    EXPECT_EQ(c.quarantined, 1u);
    EXPECT_EQ(c.penalties, 1u);
    ASSERT_EQ(guard.quarantined_keys().size(), 1u);
    EXPECT_EQ(guard.quarantined_keys()[0], g.key());
}

TEST(FaultTolerantEvaluator, WatchdogConvertsHangsToTimeouts)
{
    const auto hung = [](const Genome&) -> Evaluation {
        std::this_thread::sleep_for(std::chrono::milliseconds{250});
        return {true, 1.0};
    };
    FaultPolicy policy;
    policy.retry.max_attempts = 1;
    policy.retry.timeout_seconds = 0.02;
    policy.tolerate_failures = true;
    FaultTolerantEvaluator<Evaluation> guard{hung, policy, Evaluation{false, 0.0}};
    EvalOutcome out;
    const Evaluation e = guard.evaluate(make_genome(2, 2), &out);
    EXPECT_FALSE(e.feasible);
    EXPECT_EQ(out.status, EvalStatus::timed_out);
    EXPECT_EQ(guard.counters().timeouts, 1u);
    EXPECT_EQ(guard.counters().quarantined, 1u);
}

TEST(FaultTolerantEvaluator, WatchdogLetsFastEvaluationsThrough)
{
    FaultPolicy policy;
    policy.retry.timeout_seconds = 5.0;
    FaultTolerantEvaluator<Evaluation> guard{sum_eval, policy, Evaluation{false, 0.0}};
    const Evaluation e = guard.evaluate(make_genome(6, 1));
    EXPECT_TRUE(e.feasible);
    EXPECT_DOUBLE_EQ(e.value, 7.0);
    EXPECT_EQ(guard.counters().timeouts, 0u);
}

TEST(FaultTolerantEvaluator, RestoreRoundTripsCountersAndQuarantine)
{
    FaultTolerantEvaluator<Evaluation> guard{sum_eval, FaultPolicy{}, Evaluation{false, 0.0}};
    FaultCounters c;
    c.attempts = 10;
    c.retries = 3;
    c.failures = 2;
    c.timeouts = 1;
    c.quarantined = 1;
    c.penalties = 4;
    const std::vector<std::uint64_t> quarantine{123u, 456u};
    guard.restore(quarantine, c);
    EXPECT_EQ(guard.counters(), c);
    EXPECT_EQ(guard.quarantined_keys(), quarantine);
}

TEST(FaultTolerantEvaluator, InvariantAttemptsEqualsCallsPlusRetries)
{
    // Under a cache, every miss is one guarded call; with a 50% transient
    // failure pattern the attempt accounting must close exactly.
    std::atomic<int> calls{0};
    const auto sometimes = [&](const Genome& g) {
        if (calls.fetch_add(1) % 2 == 0) throw std::runtime_error("flaky");
        return sum_eval(g);
    };
    FaultPolicy policy;
    policy.retry.max_attempts = 4;
    policy.tolerate_failures = true;
    FaultTolerantEvaluator<Evaluation> guard{sometimes, policy, Evaluation{false, 0.0}};
    CachingEvaluator cache{[&guard](const Genome& g) { return guard.evaluate(g); }};

    const auto space = tiny_space();
    std::size_t guarded_calls = 0;
    for (std::uint32_t a = 0; a < 8; ++a) {
        for (std::uint32_t b = 0; b < 8; ++b) {
            cache.evaluate(make_genome(a, b));
            cache.evaluate(make_genome(a, b));  // hit: no guarded call
            ++guarded_calls;
        }
    }
    const FaultCounters c = guard.counters();
    EXPECT_EQ(cache.distinct_evaluations(), guarded_calls);
    EXPECT_EQ(c.attempts, guarded_calls + c.retries);
}

}  // namespace
}  // namespace nautilus
