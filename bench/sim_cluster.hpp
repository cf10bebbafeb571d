#pragma once
// Simulated synthesis cluster: turns "number of designs evaluated" into
// wall-clock EDA time.
//
// The paper's cost argument is temporal: each design point costs "minutes to
// hours" of CAD runtime, the characterization cluster ran "200+ cores ...
// for about 2 weeks", and "the population size effectively caps the
// available parallelism during the evaluation phase" (section 2).  This
// module models exactly that: a W-worker cluster executing batches of
// synthesis jobs (one batch = the new designs of one GA generation) with a
// list scheduler, accumulating simulated makespan.
//
// A bench helper, not part of the library: bench_cluster_time replays whole
// runs through it and bench_ablation_hint_classes times its parallel probe
// with it.  Both collect each generation's fresh jobs with a JobLog.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <span>
#include <vector>

#include "core/ga.hpp"

namespace nautilus::bench {

// XST-like runtime estimate for synthesizing one design, in minutes:
// a fixed flow overhead plus effort that grows with design size, with
// deterministic per-design variation.
double synthesis_minutes(double equivalent_luts, std::uint64_t config_key);

class SynthesisCluster {
public:
    explicit SynthesisCluster(std::size_t workers);

    std::size_t workers() const { return workers_; }

    // Execute one batch of jobs that all become ready simultaneously (the
    // GA's evaluation phase).  Longest-processing-time list scheduling;
    // returns the batch makespan in minutes and advances the clock.
    double run_batch(std::span<const double> job_minutes);

    // Simulated wall-clock spent so far (sum of batch makespans).
    double elapsed_minutes() const { return elapsed_; }
    // Total core-minutes of useful work executed.
    double busy_minutes() const { return busy_; }
    // Utilization in [0, 1]: busy / (elapsed * workers).
    double utilization() const;

    void reset();

private:
    std::size_t workers_;
    double elapsed_ = 0.0;
    double busy_ = 0.0;
};

// Replay of a search run as cluster batches: `batch_jobs[g]` holds the
// durations of the distinct evaluations issued in generation g.  Returns the
// simulated wall-clock (minutes) after each batch, cumulative.
std::vector<double> replay_schedule(SynthesisCluster& cluster,
                                    std::span<const std::vector<double>> batch_jobs);

// Durations of the synthesis jobs one GA run issues: its EvalFn records one
// per call, i.e. per distinct evaluation.  Safe to record from several
// evaluation workers; within a generation the order then varies, which the
// cluster's LPT scheduling does not see.
class JobLog {
public:
    void record(double minutes);

    // The log split into per-generation batches at the cumulative
    // distinct-evaluation counts of the run's history.
    std::vector<std::vector<double>> batches(std::span<const GenerationStats> history) const;

private:
    mutable std::mutex mutex_;
    std::vector<double> minutes_;
};

}  // namespace nautilus::bench
