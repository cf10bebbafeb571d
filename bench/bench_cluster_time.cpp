// Extension: converting evaluation counts into simulated EDA wall-clock.
//
// The paper counts cost in synthesis jobs because each job is "minutes to
// hours" of CAD runtime (section 4.2) and "the population size effectively
// caps the available parallelism during the evaluation phase" (section 2).
// This bench replays baseline and guided runs of the Fig. 4 query through a
// simulated synthesis cluster at several worker counts, reporting the
// wall-clock each method needs to reach the same quality, and measures the
// real evaluation thread pool against a synthetic slow synthesis job.

#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>

#include "core/fault_injection.hpp"
#include "core/ga.hpp"
#include "core/hint_estimator.hpp"
#include "core/nautilus.hpp"
#include "noc/router_generator.hpp"
#include "sim_cluster.hpp"

using namespace nautilus;
using ip::Metric;

namespace {

// Run one GA and capture, per generation, the durations of the distinct
// synthesis jobs it issued.
struct ReplayedRun {
    std::vector<std::vector<double>> batches;  // minutes per job per generation
    Curve curve;                               // best-so-far vs distinct evals

    ReplayedRun() : curve(Direction::maximize) {}
};

ReplayedRun capture_run(const ip::IpGenerator& gen, const HintSet& hints,
                        std::uint64_t seed)
{
    // Log each distinct evaluation's synthesis duration.
    auto log = std::make_shared<bench::JobLog>();
    const EvalFn base_eval = gen.metric_eval(Metric::freq_mhz);
    const EvalFn logging_eval = [&gen, base_eval, log](const Genome& g) {
        const auto mv = gen.evaluate(g);
        const double luts = mv.feasible ? mv.get(Metric::area_luts) : 500.0;
        log->record(bench::synthesis_minutes(luts, g.key()));
        return base_eval(g);
    };

    GaConfig cfg;
    cfg.seed = seed;
    const GaEngine engine{gen.space(), cfg, Direction::maximize, logging_eval, hints};
    const RunResult r = engine.run(seed);

    ReplayedRun out;
    out.curve = r.curve;
    out.batches = log->batches(r.history);
    return out;
}

}  // namespace

int main()
{
    std::puts("== Extension: simulated EDA wall-clock (NoC, maximize frequency) ==");
    const noc::RouterGenerator gen;

    const HintEstimator estimator;
    const HintSet estimated =
        estimator.estimate(gen.space(), gen.metric_eval(Metric::freq_mhz));
    HintSet strong = estimated;
    strong.set_confidence(guidance_confidence(GuidanceLevel::strong, 0.0));

    const ReplayedRun baseline = capture_run(gen, HintSet::none(gen.space()), 2015);
    const ReplayedRun guided = capture_run(gen, strong, 2015);

    const double target = 180.0;  // MHz quality target
    std::printf("quality target: %.0f MHz\n", target);
    std::printf("baseline issued %.0f jobs, guided %.0f jobs over 80 generations\n\n",
                baseline.curve.final_evals(), guided.curve.final_evals());

    std::printf("  %-10s %-26s %-26s %-12s\n", "workers", "baseline hours to target",
                "nautilus hours to target", "speedup");
    for (std::size_t workers : {1u, 2u, 5u, 10u, 20u}) {
        auto hours_to_target = [&](const ReplayedRun& run) -> double {
            bench::SynthesisCluster cluster{workers};
            const auto clock = bench::replay_schedule(cluster, run.batches);
            // Find the generation whose cumulative distinct evals first meets
            // the target, then read the simulated clock there.
            const auto evals_needed = run.curve.evals_to_reach(target);
            if (!evals_needed) return -1.0;
            std::size_t consumed = 0;
            for (std::size_t g = 0; g < run.batches.size(); ++g) {
                consumed += run.batches[g].size();
                if (static_cast<double>(consumed) >= *evals_needed)
                    return clock[g] / 60.0;
            }
            return clock.back() / 60.0;
        };
        const double base_h = hours_to_target(baseline);
        const double guided_h = hours_to_target(guided);
        if (base_h < 0.0 || guided_h < 0.0) {
            std::printf("  %-10zu (target not reached in this seeded run)\n", workers);
            continue;
        }
        std::printf("  %-10zu %-26.1f %-26.1f %.2fx\n", workers, base_h, guided_h,
                    base_h / guided_h);
    }

    // Cluster-utilization view: population size caps parallelism.
    std::puts("\ncluster utilization replaying the guided run:");
    for (std::size_t workers : {5u, 10u, 20u}) {
        bench::SynthesisCluster cluster{workers};
        bench::replay_schedule(cluster, guided.batches);
        std::printf("  %2zu workers: %5.1f days wall-clock, utilization %4.1f%%\n", workers,
                    cluster.elapsed_minutes() / 60.0 / 24.0,
                    100.0 * cluster.utilization());
    }
    std::puts("\n(the paper's offline characterization of the same space: 200+ cores for"
              "\n~2 weeks; a guided query touches a few hundred designs instead)");

    // The real thread pool: the guided query's first 20 generations with
    // every distinct evaluation sleeping 3 ms, as a stand-in CAD job.
    std::puts("\nevaluation thread pool, guided query, 3 ms per synthesis job (20 generations):");
    double serial_seconds = 0.0;
    for (std::size_t workers : {1u, 4u}) {
        const EvalFn fast = gen.metric_eval(Metric::freq_mhz);
        const EvalFn slow = [fast](const Genome& g) {
            std::this_thread::sleep_for(std::chrono::milliseconds(3));
            return fast(g);
        };
        GaConfig cfg;
        cfg.seed = 2015;
        cfg.generations = 20;
        cfg.eval_workers = workers;
        const RunResult r = GaEngine{gen.space(), cfg, Direction::maximize, slow, strong}.run();
        if (workers == 1) serial_seconds = r.eval_seconds;
        std::printf("  %zu worker%s: %zu distinct evals, eval wall-clock %.3f s, speedup %.2fx\n",
                    workers, workers == 1 ? " " : "s", r.distinct_evals, r.eval_seconds,
                    serial_seconds / r.eval_seconds);
    }

    // Fault-tolerance view: real CAD tools crash.  Replay the guided query
    // against a 10%-failure evaluator with a 3-attempt retry ladder and
    // report the cluster-time inflation the retries cost (each retry is a
    // re-issued synthesis job).
    std::puts("\nguided query under a 10%-failure synthesis backend (3 attempts/job):");
    {
        FaultInjectionConfig fic;
        fic.fail_rate = 0.10;
        fic.seed = 2015;
        FaultInjectingEvaluator chaos{gen.metric_eval(Metric::freq_mhz), fic};
        GaConfig cfg;
        cfg.seed = 2015;
        cfg.fault.retry.max_attempts = 3;
        cfg.fault.tolerate_failures = true;
        const GaEngine engine{gen.space(), cfg, Direction::maximize, chaos.as_eval_fn(),
                              strong};
        const RunResult r = engine.run();
        const double inflation =
            static_cast<double>(r.fault.attempts) / static_cast<double>(r.distinct_evals);
        std::printf("  %zu distinct designs, %llu attempts (%llu retries, "
                    "%llu quarantined): %.1f%% extra cluster time\n",
                    r.distinct_evals, static_cast<unsigned long long>(r.fault.attempts),
                    static_cast<unsigned long long>(r.fault.retries),
                    static_cast<unsigned long long>(r.fault.quarantined),
                    100.0 * (inflation - 1.0));
        std::printf("  best frequency still found: %.1f MHz (fault-free run: %.1f MHz)\n",
                    r.best_eval.value, guided.curve.final_best());
    }
    return 0;
}
