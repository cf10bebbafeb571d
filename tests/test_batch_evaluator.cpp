// Concurrency contract of the parallel evaluation pipeline: thread-safe
// caching with in-flight dedup, deterministic results independent of the
// worker count, and distinct-evaluation accounting identical to serial runs
// (DESIGN.md, "Evaluation pipeline").

#include "core/batch_evaluator.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/ga.hpp"
#include "core/local_search.hpp"
#include "core/nsga2.hpp"
#include "core/random_search.hpp"
#include "obs/trace.hpp"

namespace nautilus {
namespace {

ParameterSpace small_space()
{
    ParameterSpace space;
    space.add("a", ParamDomain::int_range(0, 9));
    space.add("b", ParamDomain::int_range(0, 9));
    return space;
}

Evaluation sum_eval(const Genome& g)
{
    return {true, static_cast<double>(g.gene(0) + g.gene(1))};
}

// One wave over `genomes`, results in genome order.
std::vector<Evaluation> evaluate_all(BatchEvaluator& batch, CachingEvaluator& ev,
                                     const std::vector<Genome>& genomes)
{
    std::vector<Evaluation> out(genomes.size());
    batch.evaluate(ev, std::span<const Genome>{genomes}, std::span<Evaluation>{out});
    return out;
}

// ---- CachingEvaluator thread safety ----------------------------------------

TEST(CachingEvaluatorConcurrency, ConcurrentSameGenomeChargesExactlyOnce)
{
    std::atomic<int> calls{0};
    CachingEvaluator ev{[&](const Genome& g) {
        ++calls;
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        return Evaluation{true, static_cast<double>(g.gene(0))};
    }};

    const Genome g{{5, 5}};
    constexpr int k_threads = 8;
    std::vector<std::thread> threads;
    std::vector<Evaluation> results(k_threads);
    for (int t = 0; t < k_threads; ++t)
        threads.emplace_back([&, t] { results[t] = ev.evaluate(g); });
    for (auto& t : threads) t.join();

    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(ev.distinct_evaluations(), 1u);
    EXPECT_EQ(ev.total_calls(), static_cast<std::size_t>(k_threads));
    for (const auto& r : results) EXPECT_DOUBLE_EQ(r.value, 5.0);
}

TEST(CachingEvaluatorConcurrency, ManyThreadsManyGenomesAccountingExact)
{
    std::atomic<int> calls{0};
    CachingEvaluator ev{[&](const Genome& g) {
        ++calls;
        return Evaluation{true, static_cast<double>(g.gene(0) * 10 + g.gene(1))};
    }};

    const auto space = small_space();
    constexpr int k_threads = 6;
    constexpr std::size_t k_points = 40;  // every thread hits the same 40 points
    std::vector<std::thread> threads;
    for (int t = 0; t < k_threads; ++t) {
        threads.emplace_back([&] {
            for (std::size_t rank = 0; rank < k_points; ++rank)
                ev.evaluate(Genome::from_rank(space, rank));
        });
    }
    for (auto& t : threads) t.join();

    EXPECT_EQ(calls.load(), static_cast<int>(k_points));
    EXPECT_EQ(ev.distinct_evaluations(), k_points);
    EXPECT_EQ(ev.total_calls(), k_points * k_threads);
}

TEST(CachingEvaluatorConcurrency, ThrowingEvalAllowsRetryAndChargesOnce)
{
    std::atomic<int> calls{0};
    CachingEvaluator ev{[&](const Genome&) -> Evaluation {
        if (++calls == 1) throw std::runtime_error("transient synthesis failure");
        return Evaluation{true, 7.0};
    }};
    const Genome g{{1, 2}};
    EXPECT_THROW(ev.evaluate(g), std::runtime_error);
    EXPECT_EQ(ev.distinct_evaluations(), 0u);  // failed job is not charged
    EXPECT_DOUBLE_EQ(ev.evaluate(g).value, 7.0);
    EXPECT_EQ(ev.distinct_evaluations(), 1u);
}

// ---- BatchEvaluator ---------------------------------------------------------

TEST(BatchEvaluator, DuplicatesWithinBatchComputedOnce)
{
    std::atomic<int> calls{0};
    CachingEvaluator ev{[&](const Genome& g) {
        ++calls;
        return Evaluation{true, static_cast<double>(g.gene(0))};
    }};
    BatchEvaluator batch{4};

    const std::vector<Genome> genomes(16, Genome{{3, 4}});
    const auto out = evaluate_all(batch, ev, genomes);
    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(ev.distinct_evaluations(), 1u);
    EXPECT_EQ(ev.total_calls(), 16u);
    for (const auto& e : out) EXPECT_DOUBLE_EQ(e.value, 3.0);
}

TEST(BatchEvaluator, ActuallyRunsConcurrently)
{
    std::atomic<int> inside{0};
    std::atomic<int> peak{0};
    CachingEvaluator ev{[&](const Genome& g) {
        const int now = ++inside;
        int prev = peak.load();
        while (now > prev && !peak.compare_exchange_weak(prev, now)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        --inside;
        return Evaluation{true, static_cast<double>(g.gene(0))};
    }};
    BatchEvaluator batch{4};

    const auto space = small_space();
    std::vector<Genome> genomes;
    for (std::size_t rank = 0; rank < 8; ++rank)
        genomes.push_back(Genome::from_rank(space, rank));
    evaluate_all(batch, ev, genomes);
    EXPECT_GT(peak.load(), 1);  // at least two evaluations overlapped
    EXPECT_GT(batch.eval_seconds(), 0.0);
}

TEST(BatchEvaluator, WaveEventsCountFreshGenomesOnly)
{
    CachingEvaluator ev{sum_eval};
    BatchEvaluator batch{4};
    auto sink = std::make_shared<obs::MemorySink>();
    obs::Instrumentation inst;
    inst.tracer = obs::Tracer{sink};
    batch.set_instrumentation(inst);

    const Genome a{{1, 1}};
    const Genome b{{2, 2}};
    const std::vector<Genome> first{a, b, a, b, a};
    evaluate_all(batch, ev, first);
    const std::vector<Genome> second{a, b};  // fully cached: no new jobs
    evaluate_all(batch, ev, second);

    const auto waves = sink->events_of("eval_wave");
    ASSERT_EQ(waves.size(), 2u);
    EXPECT_EQ(waves[0].number("size"), 5.0);
    EXPECT_EQ(waves[0].number("fresh"), 2.0);
    EXPECT_EQ(waves[0].number("hits"), 3.0);
    EXPECT_EQ(waves[0].number("distinct_total"), 2.0);
    EXPECT_EQ(waves[1].number("fresh"), 0.0);
    EXPECT_EQ(waves[1].number("hits"), 2.0);
    EXPECT_EQ(waves[1].number("distinct_total"), 2.0);
}

TEST(BatchEvaluator, PropagatesEvalExceptions)
{
    CachingEvaluator ev{[](const Genome& g) -> Evaluation {
        if (g.gene(0) == 3) throw std::runtime_error("bad design point");
        return Evaluation{true, 1.0};
    }};
    BatchEvaluator batch{4};
    const auto space = small_space();
    std::vector<Genome> genomes;
    for (std::size_t rank = 0; rank < 60; ++rank)
        genomes.push_back(Genome::from_rank(space, rank));
    std::vector<Evaluation> out(genomes.size());
    EXPECT_THROW(batch.evaluate(ev, genomes, std::span<Evaluation>{out}),
                 std::runtime_error);
}

TEST(BatchEvaluator, SerialPathFinishesBatchBeforeRethrowingLikeThePool)
{
    // Regression: the serial path used to abort on the first throwing item,
    // leaving fewer cached entries than a pooled run of the same batch and
    // breaking worker-count independence under failing evaluations.
    const auto make_eval = [] {
        return CachingEvaluator{[](const Genome& g) -> Evaluation {
            if (g.gene(0) == 3) throw std::runtime_error("bad design point");
            return Evaluation{true, static_cast<double>(g.gene(0))};
        }};
    };
    const auto space = small_space();
    std::vector<Genome> genomes;
    for (std::size_t rank = 0; rank < 60; ++rank)
        genomes.push_back(Genome::from_rank(space, rank));

    CachingEvaluator serial_ev = make_eval();
    BatchEvaluator serial{1};
    EXPECT_THROW(evaluate_all(serial, serial_ev, genomes), std::runtime_error);

    CachingEvaluator pooled_ev = make_eval();
    BatchEvaluator pooled{4};
    EXPECT_THROW(evaluate_all(pooled, pooled_ev, genomes), std::runtime_error);

    // Same cache state either way: every non-throwing item was still
    // evaluated and charged.
    EXPECT_EQ(serial_ev.distinct_evaluations(), pooled_ev.distinct_evaluations());
    EXPECT_GT(serial_ev.distinct_evaluations(), 1u);
    for (const auto& g : genomes) {
        if (g.gene(0) == 3) continue;
        // A cached point re-evaluates without charging a new distinct job.
        const std::size_t before = serial_ev.distinct_evaluations();
        EXPECT_DOUBLE_EQ(serial_ev.evaluate(g).value, static_cast<double>(g.gene(0)));
        EXPECT_EQ(serial_ev.distinct_evaluations(), before);
    }
}

// ---- engine determinism: 1 worker vs N workers ------------------------------

GaConfig parallel_ga_config(std::size_t workers)
{
    GaConfig cfg;
    cfg.population_size = 12;
    cfg.generations = 25;
    cfg.seed = 99;
    cfg.eval_workers = workers;
    return cfg;
}

TEST(ParallelDeterminism, GaIdenticalForOneVsManyWorkers)
{
    const auto space = small_space();
    const HintSet hints = HintSet::none(space);
    const GaEngine serial{space, parallel_ga_config(1), Direction::maximize, sum_eval,
                          hints};
    const GaEngine parallel{space, parallel_ga_config(4), Direction::maximize, sum_eval,
                            hints};
    const RunResult a = serial.run();
    const RunResult b = parallel.run();

    EXPECT_EQ(a.distinct_evals, b.distinct_evals);
    EXPECT_EQ(a.best_genome, b.best_genome);
    EXPECT_DOUBLE_EQ(a.best_eval.value, b.best_eval.value);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.history[i].best, b.history[i].best);
        EXPECT_DOUBLE_EQ(a.history[i].mean, b.history[i].mean);
        EXPECT_EQ(a.history[i].distinct_evals, b.history[i].distinct_evals);
    }
    ASSERT_EQ(a.curve.size(), b.curve.size());
    for (std::size_t i = 0; i < a.curve.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.curve.points()[i].evals, b.curve.points()[i].evals);
        EXPECT_DOUBLE_EQ(a.curve.points()[i].best, b.curve.points()[i].best);
    }
    EXPECT_EQ(b.eval_workers, 4u);
}

TEST(ParallelDeterminism, GaUnchangedFromSerialBaselineSemantics)
{
    // The batch path must not change what a plain serial GA computes: a run
    // with the default worker count (1) equals a run with the pool engaged,
    // even when evaluation cost varies per point.
    const auto space = small_space();
    const EvalFn jittery = [](const Genome& g) {
        std::this_thread::sleep_for(std::chrono::microseconds(50 * (g.gene(0) + 1)));
        return Evaluation{g.gene(1) != 0, static_cast<double>(g.gene(0) * g.gene(1))};
    };
    GaConfig cfg = parallel_ga_config(1);
    cfg.generations = 10;
    const GaEngine serial{space, cfg, Direction::maximize, jittery, HintSet::none(space)};
    cfg.eval_workers = 6;
    const GaEngine parallel{space, cfg, Direction::maximize, jittery,
                            HintSet::none(space)};
    const RunResult a = serial.run();
    const RunResult b = parallel.run();
    EXPECT_EQ(a.distinct_evals, b.distinct_evals);
    EXPECT_DOUBLE_EQ(a.best_eval.value, b.best_eval.value);
    EXPECT_EQ(a.best_genome, b.best_genome);
}

TEST(ParallelDeterminism, RandomSearchIdenticalForOneVsManyWorkers)
{
    const auto space = small_space();
    RandomSearchConfig cfg;
    cfg.max_distinct_evals = 60;
    const RandomSearch serial{space, cfg, Direction::maximize, sum_eval};
    cfg.eval_workers = 4;
    const RandomSearch parallel{space, cfg, Direction::maximize, sum_eval};
    const Curve a = serial.run(17);
    const Curve b = parallel.run(17);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_DOUBLE_EQ(a.points()[i].evals, b.points()[i].evals);
        EXPECT_DOUBLE_EQ(a.points()[i].best, b.points()[i].best);
    }
}

TEST(ParallelDeterminism, Nsga2IdenticalForOneVsManyWorkers)
{
    const auto space = small_space();
    const MultiEvalFn eval = [](const Genome& g) -> std::optional<std::vector<double>> {
        if ((g.gene(0) + g.gene(1)) % 5 == 0) return std::nullopt;  // sparse space
        return std::vector<double>{static_cast<double>(g.gene(0) + g.gene(1)),
                                   static_cast<double>(g.gene(0) * g.gene(1))};
    };
    const std::vector<Direction> dirs{Direction::minimize, Direction::maximize};
    MultiObjectiveConfig cfg;
    cfg.generations = 12;
    const Nsga2Engine serial{space, cfg, dirs, eval, HintSet::none(space)};
    cfg.eval_workers = 4;
    const Nsga2Engine parallel{space, cfg, dirs, eval, HintSet::none(space)};
    const auto a = serial.run(21);
    const auto b = parallel.run(21);
    EXPECT_EQ(a.distinct_evals, b.distinct_evals);
    ASSERT_EQ(a.front.size(), b.front.size());
    for (std::size_t i = 0; i < a.front.size(); ++i) {
        EXPECT_EQ(a.front[i].genome, b.front[i].genome);
        EXPECT_EQ(a.front[i].values, b.front[i].values);
    }
}

TEST(ParallelDeterminism, LocalSearchIdenticalForOneVsManyWorkers)
{
    const auto space = small_space();
    AnnealingConfig sa_cfg;
    sa_cfg.max_distinct_evals = 80;
    const SimulatedAnnealing sa_serial{space, sa_cfg, Direction::maximize, sum_eval,
                                       HintSet::none(space)};
    sa_cfg.eval_workers = 4;
    const SimulatedAnnealing sa_parallel{space, sa_cfg, Direction::maximize, sum_eval,
                                         HintSet::none(space)};
    const Curve sa = sa_serial.run(31);
    const Curve sp = sa_parallel.run(31);
    ASSERT_EQ(sa.size(), sp.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
        EXPECT_DOUBLE_EQ(sa.points()[i].evals, sp.points()[i].evals);
        EXPECT_DOUBLE_EQ(sa.points()[i].best, sp.points()[i].best);
    }

    HillClimbConfig hc_cfg;
    hc_cfg.max_distinct_evals = 80;
    const HillClimber hc_serial{space, hc_cfg, Direction::maximize, sum_eval,
                                HintSet::none(space)};
    hc_cfg.eval_workers = 4;
    const HillClimber hc_parallel{space, hc_cfg, Direction::maximize, sum_eval,
                                  HintSet::none(space)};
    const Curve ha = hc_serial.run(31);
    const Curve hb = hc_parallel.run(31);
    ASSERT_EQ(ha.size(), hb.size());
    for (std::size_t i = 0; i < ha.size(); ++i)
        EXPECT_DOUBLE_EQ(ha.points()[i].best, hb.points()[i].best);
}

TEST(ParallelDeterminism, WorkerCountValidation)
{
    const auto space = small_space();
    GaConfig cfg;
    cfg.eval_workers = 0;
    EXPECT_THROW(
        GaEngine(space, cfg, Direction::maximize, sum_eval, HintSet::none(space)),
        std::invalid_argument);
}

}  // namespace
}  // namespace nautilus
