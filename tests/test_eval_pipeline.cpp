// The evaluation pipeline contract, checked on all five engines: worker
// count, a persistent store (cold or warm) and retried faults never change
// results or the distinct-evaluation accounting; penalized results never
// reach the store; and every run_end reports exactly the counters the
// engine returns, closing the attempts rule
//     attempts + store_hits == distinct + retries.

#include "core/eval_pipeline.hpp"

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/fault_injection.hpp"
#include "core/ga.hpp"
#include "core/local_search.hpp"
#include "core/nsga2.hpp"
#include "core/random_search.hpp"
#include "obs/trace.hpp"

namespace nautilus {
namespace {

constexpr std::uint64_t k_namespace = 42;

ParameterSpace pipeline_space()
{
    ParameterSpace space;
    for (int i = 0; i < 5; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 5));
    return space;
}

// Maximize the gene sum; designs whose first gene is 5 are infeasible.
Evaluation sum_eval(const Genome& g)
{
    double v = 0.0;
    for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
    return {g.gene(0) != 5, v};
}

// One engine run through the pipeline, reduced to what the contract speaks
// about.
struct Outcome {
    std::vector<double> result;  // curve, front or best: the search answer
    EvalCounters counters;       // as returned by the engine
    obs::TraceEvent run_end{"run_end"};
    std::vector<std::uint64_t> quarantined;  // keys from quarantine events
};

std::vector<double> curve_digest(const Curve& curve)
{
    std::vector<double> out;
    for (const CurvePoint& p : curve.points()) {
        out.push_back(p.evals);
        out.push_back(p.best);
    }
    return out;
}

// Counters as the generational engines report them in their results.
template <typename Result>
EvalCounters result_counters(const Result& r)
{
    EvalCounters c;
    c.distinct = r.distinct_evals;
    c.calls = r.total_eval_calls;
    c.store_hits = r.store_hits;
    c.store_misses = r.store_misses;
    c.fault = r.fault;
    c.workers = r.eval_workers;
    return c;
}

class Harness {
public:
    // Every genome handed to the raw evaluation function, by key, so a
    // quarantine event's key can be looked up in the store.
    const Genome& genome(std::uint64_t key) const { return seen_.at(key); }

    Outcome run(const std::string& engine, std::size_t workers,
                const std::shared_ptr<EvalStore>& store, bool chaos)
    {
        const ParameterSpace space = pipeline_space();
        FaultInjectionConfig faults;
        faults.fail_rate = 0.4;  // transient: retries recover some, not all
        FaultInjectingEvaluator injector{sum_eval, faults};
        const EvalFn inner = chaos ? injector.as_eval_fn() : EvalFn{sum_eval};
        const EvalFn eval = [this, &inner](const Genome& g) {
            {
                const std::lock_guard lock{mutex_};
                seen_.emplace(g.key(), g);
            }
            return inner(g);
        };

        auto sink = std::make_shared<obs::MemorySink>();
        const auto configure = [&](EvalPipelineConfig& cfg) {
            cfg.eval_workers = workers;
            cfg.obs.tracer = obs::Tracer{sink};
            cfg.store = store;
            cfg.store_namespace = k_namespace;
            if (chaos) {
                cfg.fault.retry.max_attempts = 2;
                cfg.fault.tolerate_failures = true;
            }
        };

        Outcome out;
        if (engine == "ga") {
            GaConfig cfg;
            cfg.population_size = 8;
            cfg.generations = 8;
            configure(cfg);
            const RunResult r =
                GaEngine{space, cfg, Direction::maximize, eval, HintSet::none(space)}.run(3);
            out.result = curve_digest(r.curve);
            for (const Genome& g : r.final_population)
                out.result.push_back(static_cast<double>(g.key() % 1000003));
            out.counters = result_counters(r);
        }
        else if (engine == "nsga2") {
            MultiObjectiveConfig cfg;
            cfg.population_size = 8;
            cfg.generations = 5;
            configure(cfg);
            const MultiEvalFn multi = [&eval](const Genome& g) -> ObjectiveValues {
                const Evaluation e = eval(g);
                if (!e.feasible) return std::nullopt;
                return std::vector<double>{e.value, static_cast<double>(g.gene(1))};
            };
            const MultiObjectiveResult r =
                Nsga2Engine{space, cfg, {Direction::maximize, Direction::minimize}, multi,
                            HintSet::none(space)}
                    .run(3);
            for (const FrontPoint& p : r.front)
                out.result.insert(out.result.end(), p.values.begin(), p.values.end());
            out.counters = result_counters(r);
        }
        else if (engine == "random") {
            RandomSearchConfig cfg;
            cfg.max_distinct_evals = 60;
            configure(cfg);
            out.result = curve_digest(
                RandomSearch{space, cfg, Direction::maximize, eval}.run(3, &out.counters));
        }
        else if (engine == "sa") {
            AnnealingConfig cfg;
            cfg.max_distinct_evals = 60;
            configure(cfg);
            out.result = curve_digest(SimulatedAnnealing{space, cfg, Direction::maximize,
                                                         eval, HintSet::none(space)}
                                          .run(3, &out.counters));
        }
        else {
            HillClimbConfig cfg;
            cfg.max_distinct_evals = 60;
            cfg.patience = 6;
            configure(cfg);
            out.result = curve_digest(
                HillClimber{space, cfg, Direction::maximize, eval, HintSet::none(space)}.run(
                    3, &out.counters));
        }

        const auto ends = sink->events_of("run_end");
        EXPECT_EQ(ends.size(), 1u);
        if (!ends.empty()) out.run_end = ends.front();
        for (const obs::TraceEvent& ev : sink->events_of("quarantine"))
            out.quarantined.push_back(ev.unsigned_int("key").value_or(0));
        return out;
    }

private:
    std::mutex mutex_;
    std::unordered_map<std::uint64_t, Genome> seen_;
};

// run_end carries exactly the returned counters and closes the attempts
// rule; store fields appear iff a store is attached.
void expect_run_end_matches(const Outcome& o, bool store)
{
    const obs::TraceEvent& ev = o.run_end;
    const EvalCounters& c = o.counters;
    EXPECT_EQ(ev.unsigned_int("distinct_evals"), c.distinct);
    EXPECT_EQ(ev.unsigned_int("total_calls"), c.calls);
    EXPECT_EQ(ev.unsigned_int("attempts"), c.fault.attempts);
    EXPECT_EQ(ev.unsigned_int("retries"), c.fault.retries);
    EXPECT_EQ(ev.unsigned_int("eval_failures"), c.fault.failures);
    EXPECT_EQ(ev.unsigned_int("eval_timeouts"), c.fault.timeouts);
    EXPECT_EQ(ev.unsigned_int("quarantined"), c.fault.quarantined);
    EXPECT_EQ(ev.unsigned_int("penalties"), c.fault.penalties);
    if (store) {
        EXPECT_EQ(ev.unsigned_int("store_hits"), c.store_hits);
        EXPECT_EQ(ev.unsigned_int("store_misses"), c.store_misses);
        EXPECT_EQ(c.store_hits + c.store_misses, c.distinct);
    }
    else {
        EXPECT_FALSE(ev.unsigned_int("store_hits").has_value());
        EXPECT_EQ(c.store_hits + c.store_misses, 0u);
    }
    EXPECT_EQ(c.fault.attempts + c.store_hits, c.distinct + c.fault.retries);
}

void expect_same_search(const Outcome& a, const Outcome& b)
{
    EXPECT_EQ(a.result, b.result);
    EXPECT_EQ(a.counters.distinct, b.counters.distinct);
    EXPECT_EQ(a.counters.calls, b.counters.calls);
    EXPECT_EQ(a.counters.fault.penalties, b.counters.fault.penalties);
}

// One (engine, fault mode) case, printed as its case name so that no
// pointer address (random from run to run) reaches the test's listed name.
struct EngineMode {
    const char* engine;
    bool chaos;

    friend void PrintTo(const EngineMode& p, std::ostream* os)
    {
        *os << p.engine << (p.chaos ? "_chaos" : "_clean");
    }
};

std::vector<EngineMode> engine_modes()
{
    std::vector<EngineMode> modes;
    for (const char* engine : {"ga", "nsga2", "random", "sa", "hc"})
        for (const bool chaos : {false, true}) modes.push_back({engine, chaos});
    return modes;
}

class EvalPipelineContract : public ::testing::TestWithParam<EngineMode> {
};

TEST_P(EvalPipelineContract, HoldsAcrossWorkersStoreAndFaults)
{
    const auto [engine, chaos] = GetParam();
    enum Mode { none, cold, warm };
    Outcome runs[2][3];
    const std::size_t worker_counts[2] = {1, 4};
    for (int w = 0; w < 2; ++w) {
        SCOPED_TRACE("workers " + std::to_string(worker_counts[w]));
        EvalStoreConfig store_cfg;
        store_cfg.path = ::testing::TempDir() + "nautilus_pipeline_" + engine +
                         (chaos ? "_chaos_w" : "_w") + std::to_string(worker_counts[w]);
        store_cfg.sync = false;
        std::filesystem::remove_all(store_cfg.path);
        const auto store = std::make_shared<EvalStore>(store_cfg);

        Harness h;
        Outcome* r = runs[w];
        r[none] = h.run(engine, worker_counts[w], nullptr, chaos);
        r[cold] = h.run(engine, worker_counts[w], store, chaos);
        r[warm] = h.run(engine, worker_counts[w], store, chaos);
        expect_run_end_matches(r[none], false);
        expect_run_end_matches(r[cold], true);
        expect_run_end_matches(r[warm], true);
        EXPECT_GT(r[none].counters.distinct, 0u);

        // The store changes where values come from, never what they are.
        expect_same_search(r[cold], r[none]);
        expect_same_search(r[warm], r[cold]);
        EXPECT_EQ(r[cold].counters.store_hits, 0u);
        // Everything but the penalized designs is answered warm (all of it
        // without chaos).
        EXPECT_EQ(r[warm].counters.store_hits,
                  r[warm].counters.distinct - r[warm].counters.fault.penalties);
        EXPECT_LT(r[warm].counters.fault.attempts, r[cold].counters.fault.attempts);

        // Penalties are per-run policy and never become stored results.
        if (chaos) {
            EXPECT_GT(r[cold].counters.fault.retries, 0u);
            EXPECT_FALSE(r[cold].quarantined.empty());
        }
        for (const std::uint64_t key : r[cold].quarantined)
            EXPECT_FALSE(store->lookup(k_namespace, h.genome(key), key).has_value());
        EXPECT_EQ(store->records(),
                  r[cold].counters.store_misses - r[cold].counters.fault.penalties);
    }
    for (const Mode m : {none, cold, warm}) {
        SCOPED_TRACE("mode " + std::to_string(m));
        expect_same_search(runs[1][m], runs[0][m]);
        EXPECT_EQ(runs[1][m].counters.store_hits, runs[0][m].counters.store_hits);
        EXPECT_EQ(runs[1][m].counters.fault, runs[0][m].counters.fault);
    }
}

INSTANTIATE_TEST_SUITE_P(EnginesAndChaos, EvalPipelineContract,
                         ::testing::ValuesIn(engine_modes()),
                         [](const auto& info) { return ::testing::PrintToString(info.param); });

TEST(StoreCodec, ObjectiveVectorsRoundTripAndRejectWrongArity)
{
    using Codec = StoreCodec<ObjectiveValues>;
    const ObjectiveValues two{std::vector<double>{1.5, -2.0}};
    using Decoded = std::optional<ObjectiveValues>;
    EXPECT_EQ(Codec::decode(Codec::encode(two), 2), Decoded{two});
    EXPECT_EQ(Codec::decode(Codec::encode(std::nullopt), 2), Decoded{ObjectiveValues{}});
    EXPECT_FALSE(Codec::decode(Codec::encode(two), 3).has_value());
    EXPECT_FALSE(Codec::decode(StoredResult{false, {1.0}}, 2).has_value());
}

}  // namespace
}  // namespace nautilus
