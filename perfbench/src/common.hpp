#pragma once
// Shared pieces of the benchmark runner: options, order statistics, the
// seeded input generator, the metric report, and the trace-event summaries
// the per-layer table is built from.

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/evaluator.hpp"
#include "core/nsga2.hpp"
#include "obs/trace.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string scratch = ".bench_build/runs";  // per-run scratch directories
};

// Usable CPUs of this process (the affinity mask, not the host's core count).
std::size_t usable_cpus();

// Nearest-rank percentile, p in (0, 100]; 0 for an empty sample.
double percentile(std::vector<double> sample, double p);
inline double median(std::vector<double> sample) { return percentile(std::move(sample), 50.0); }

// SplitMix64.  The workload inputs come from this generator, not from the
// library's Rng, so a seed names the same inputs whatever the library does.
class SeedRng {
public:
    explicit SeedRng(std::uint64_t seed) : state_(seed) {}
    std::uint64_t next();
    std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }

    template <typename T>
    void shuffle(std::vector<T>& items)
    {
        using std::swap;  // also finds vector<bool>'s proxy swap
        for (std::size_t i = items.size(); i > 1; --i) swap(items[i - 1], items[below(i)]);
    }

private:
    std::uint64_t state_;
};

// Metrics in print order plus the query accounting.  A failed query is one
// that threw, got a non-2xx response, or failed an output or
// reconciliation check.
class Report {
public:
    void add(std::string name, double value, std::string unit, std::string note = {});
    void fail(const std::string& why);  // one failed query

    std::size_t attempted = 0;
    std::size_t failed = 0;

    // Human-readable table, then the one-line JSON result as the last line.
    void print(std::FILE* out) const;

private:
    struct Row {
        std::string name;
        double value;
        std::string unit;
        std::string note;
    };
    std::vector<Row> rows_;
};

// Peak resident set of this process, in MB.
double peak_rss_mb();

// The measured window of one workload, for the end-to-end metrics.
// Throughputs are medians over rounds, which all do the same work, so a
// burst of load from outside the process moves them little.
struct Window {
    struct Round {
        std::size_t queries = 0;
        std::size_t genomes = 0;  // evaluations requested, cache hits included
        double seconds = 0.0;     // wall time of the round's queries
    };
    std::vector<double> setup_s;    // one entry per set-up
    std::vector<double> latency_s;  // one entry per query, in round order
    std::vector<Round> rounds;
    std::size_t distinct = 0;       // distinct evaluations (the paper's cost)
};

void add_end_to_end(Report& report, const Window& window);

// Totals read from the events of one engine run.
struct RunTrace {
    std::string engine;         // run_end "engine"
    std::size_t events = 0;
    double run_s = 0.0;         // the "<engine>.run" span
    double breed_s = 0.0;       // "ga.breed" spans
    std::size_t breeds = 0;
    double wave_s = 0.0;        // eval_wave wall time
    double wave_slots_s = 0.0;  // eval_wave wall time x workers
    double busy_s = 0.0;        // eval_wave per-item busy time
    std::size_t wave_fresh = 0;
    std::size_t wave_waits = 0;
    std::size_t checkpoints = 0;
    std::size_t distinct = 0;   // run_end
    std::size_t calls = 0;      // run_end

    void absorb(const nautilus::obs::TraceEvent& event);
};

// Summarizes every event it receives; stands in for a trace file.
class SummarySink final : public nautilus::obs::TraceSink {
public:
    void write(const nautilus::obs::TraceEvent& event) override;
    RunTrace summary() const;

private:
    mutable std::mutex mutex_;
    RunTrace trace_;
};

// Summary of a JSONL trace file; throws std::runtime_error when it cannot
// be read or holds a malformed line.
RunTrace summarize_trace_file(const std::string& path);

// Counts calls into the IP model and the time they take.
class ModelProbe {
public:
    nautilus::EvalFn wrap(nautilus::EvalFn inner);
    nautilus::MultiEvalFn wrap(nautilus::MultiEvalFn inner);
    std::uint64_t calls() const { return calls_.load(); }
    double seconds() const { return static_cast<double>(ns_.load()) * 1e-9; }
    void reset()
    {
        calls_ = 0;
        ns_ = 0;
    }

private:
    void record(Clock::time_point start);
    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> ns_{0};
};

// The job server's layers, from the serve_mixed load.
struct ServiceLayers {
    // Persistent store, per round (one store lifetime).
    double store_hits = 0.0;
    double store_misses = 0.0;
    double store_writes = 0.0;
    double store_flushes = 0.0;

    // Counted in the per-job traces, and priced by running each spec
    // through serve::run_job with and without the layer.
    double checkpoint_writes_per_job = 0.0;
    double checkpoint_s_per_job = 0.0;
    double trace_events_per_job = 0.0;
    double trace_s_per_job = 0.0;

    // Per job and per request.
    std::vector<double> queue_wait_s;
    std::vector<double> run_s;
    std::vector<double> post_s;
    std::vector<double> get_s;
    std::size_t non2xx = 0;
};

// Everything behind the per-layer table.  Layers a workload does not
// exercise, or cannot observe, stay 0.
struct Layers {
    // Engine events, summed over the traced queries (jobs on serve_mixed).
    std::size_t runs = 0;
    std::size_t ga_runs = 0;
    std::size_t nsga2_runs = 0;
    double ga_other_s = 0.0;
    double nsga2_other_s = 0.0;
    double breed_s = 0.0;
    std::size_t breeds = 0;
    double wave_s = 0.0;
    double wave_slots_s = 0.0;
    double busy_s = 0.0;
    std::size_t waits = 0;
    std::size_t calls = 0;
    std::size_t distinct = 0;
    std::size_t events = 0;
    std::size_t checkpoints = 0;

    // IP model, through ModelProbe, against the traced queries' worker time.
    std::uint64_t model_calls = 0;
    double model_s = 0.0;
    double query_slots_s = 0.0;

    ServiceLayers service;

    // Wall time of the untraced and the traced rounds of the same run.
    std::vector<double> untraced_round_s;
    std::vector<double> traced_round_s;

    void add(const RunTrace& run);
};

void add_per_layer(Report& report, const Layers& layers);

// Runs `round(traced)` in whole rounds until `opt.seconds` have passed: at
// least one round, and with tracing at least one untraced and one traced
// round, alternating so drift hits both alike.
template <typename RoundFn>
void run_rounds(const Options& opt, RoundFn&& round)
{
    const auto start = Clock::now();
    const std::size_t min_rounds = opt.trace ? 2 : 1;
    for (std::size_t i = 0;
         i < min_rounds || seconds_between(start, Clock::now()) < opt.seconds; ++i)
        round(opt.trace && i % 2 == 1);
}

// Workloads.  Each fills the report with end-to-end metrics, or with the
// per-layer table when opt.trace is set.
void run_query_router(const Options& opt, Report& report);
void run_pareto_network(const Options& opt, Report& report);
void run_serve_mixed(const Options& opt, Report& report);

// One untraced and one traced round of the serve_mixed load, checked like a
// serve_mixed run (its jobs count as attempted queries of the report).
// query_router's traced run reports the service layers from it, because
// serve_mixed itself is not steady enough for an end-to-end workload on a
// shared host (perfbench/README.md).
ServiceLayers measure_service_layers(const Options& opt, Report& report);

}  // namespace perfbench
