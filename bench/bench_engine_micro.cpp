// Micro-benchmarks (google-benchmark): cost of the engine's inner loops.
//
// In the paper's setting one fitness evaluation is minutes-to-hours of EDA
// runtime, so the GA's own cost is negligible.  These benchmarks document
// that property for our virtual flow: operator and model costs per design
// point, to be compared against real synthesis times.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/breed.hpp"
#include "core/ga.hpp"
#include "core/nsga2.hpp"
#include "core/pareto.hpp"
#include "obs/export.hpp"
#include "obs/log.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "core/nautilus.hpp"
#include "fft/fft_generator.hpp"
#include "fft/fft_kernel.hpp"
#include "noc/network_generator.hpp"
#include "noc/router_generator.hpp"

using namespace nautilus;

namespace {

ParameterSpace bench_space()
{
    ParameterSpace space;
    for (int i = 0; i < 9; ++i)
        space.add("p" + std::to_string(i), ParamDomain::int_range(0, 7));
    return space;
}

void bm_genome_random(benchmark::State& state)
{
    const auto space = bench_space();
    Rng rng{1};
    for (auto _ : state) benchmark::DoNotOptimize(Genome::random(space, rng));
}
BENCHMARK(bm_genome_random);

void bm_mutation_baseline(benchmark::State& state)
{
    const auto space = bench_space();
    const HintSet hints = HintSet::none(space);
    BreedContext ctx{space, hints, 0.1};
    Rng rng{2};
    Genome g = Genome::random(space, rng);
    for (auto _ : state) benchmark::DoNotOptimize(ctx.mutate(g, rng));
}
BENCHMARK(bm_mutation_baseline);

void bm_mutation_guided(benchmark::State& state)
{
    const auto space = bench_space();
    HintSet hints = HintSet::none(space);
    for (std::size_t i = 0; i < space.size(); ++i) {
        hints.param(i).importance = 10.0 + static_cast<double>(i) * 10.0;
        hints.param(i).bias = 0.5;
    }
    hints.set_confidence(0.8);
    BreedContext ctx{space, hints, 0.1};
    Rng rng{3};
    Genome g = Genome::random(space, rng);
    for (auto _ : state) benchmark::DoNotOptimize(ctx.mutate(g, rng));
}
BENCHMARK(bm_mutation_guided);

void bm_crossover(benchmark::State& state)
{
    const auto space = bench_space();
    Rng rng{4};
    Genome a = Genome::random(space, rng);
    Genome b = Genome::random(space, rng);
    for (auto _ : state) {
        crossover(a.genes_mut(), b.genes_mut(), CrossoverKind::single_point, rng);
        benchmark::DoNotOptimize(a.genes().data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(bm_crossover);

// One breed phase (select + crossover + mutate, population 10) through
// BreedContext, on a guided 9-gene space.
struct BreedBenchSetup {
    ParameterSpace space;
    HintSet hints;
    BreedConfig config;
    std::vector<Genome> population;
    std::vector<double> fitness;

    BreedBenchSetup()
    {
        for (int i = 0; i < 9; ++i)
            space.add("p" + std::to_string(i), ParamDomain::int_range(0, 7));
        hints = HintSet::none(space);
        for (std::size_t i = 0; i < space.size(); ++i) {
            hints.param(i).importance = 10.0 + static_cast<double>(i) * 10.0;
            hints.param(i).bias = 0.5;
        }
        hints.set_confidence(0.8);
        config.population_size = 10;
        Rng rng{7};
        for (std::size_t i = 0; i < config.population_size; ++i) {
            population.push_back(Genome::random(space, rng));
            fitness.push_back(rng.uniform() * 100.0);
        }
    }
};

void bm_breed_dataop(benchmark::State& state)
{
    BreedBenchSetup setup;
    BreedContext ctx{setup.space, setup.hints, 0.1};
    Rng rng{8};
    std::size_t gen = 0;
    for (auto _ : state) {
        ctx.begin_generation(gen++ % 80);
        benchmark::DoNotOptimize(
            ctx.breed(setup.population, setup.fitness, setup.config, rng, false));
    }
}
BENCHMARK(bm_breed_dataop);

void bm_diversity_incremental(benchmark::State& state)
{
    BreedBenchSetup setup;
    DiversityCounter counter;
    for (auto _ : state) benchmark::DoNotOptimize(counter.measure(setup.population));
}
BENCHMARK(bm_diversity_incremental);

void bm_router_evaluate(benchmark::State& state)
{
    const noc::RouterGenerator gen;
    Rng rng{5};
    const Genome g = Genome::random(gen.space(), rng);
    for (auto _ : state) benchmark::DoNotOptimize(gen.evaluate(g));
}
BENCHMARK(bm_router_evaluate);

void bm_fft_evaluate_no_snr(benchmark::State& state)
{
    const fft::FftGenerator gen{synth::FpgaTech::virtex6_lx760t(), false};
    const Genome g = Genome::zeros(gen.space());
    for (auto _ : state) benchmark::DoNotOptimize(gen.evaluate(g));
}
BENCHMARK(bm_fft_evaluate_no_snr);

void bm_fixed_fft_256(benchmark::State& state)
{
    fft::FixedFftConfig cfg;
    cfg.n = 256;
    cfg.data_width = 16;
    cfg.twiddle_width = 16;
    cfg.scaling = fft::ScalingMode::per_stage;
    Rng rng{6};
    std::vector<std::complex<double>> input(256);
    for (auto& v : input) v = {rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)};
    for (auto _ : state) benchmark::DoNotOptimize(fft::fft_fixed(cfg, input));
}
BENCHMARK(bm_fixed_fft_256);

void bm_full_ga_run(benchmark::State& state)
{
    const auto space = bench_space();
    const EvalFn eval = [](const Genome& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };
    GaConfig cfg;
    cfg.generations = 80;
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    std::uint64_t seed = 1;
    for (auto _ : state) benchmark::DoNotOptimize(engine.run(seed++));
}
BENCHMARK(bm_full_ga_run);

// Serializes events like a real sink but discards them, so the benchmark
// measures event construction + serialization without filesystem noise.
class CountingSink final : public obs::TraceSink {
public:
    void write(const obs::TraceEvent& event) override
    {
        benchmark::DoNotOptimize(obs::to_jsonl(event));
        count_.fetch_add(1, std::memory_order_relaxed);
    }
    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> count_{0};
};

// Same workload as bm_full_ga_run with tracing enabled.  The overhead budget
// (DESIGN.md section 7) requires bm_full_ga_run itself to stay within 2% of
// its pre-observability baseline; this variant documents the traced cost.
void bm_full_ga_run_traced(benchmark::State& state)
{
    const auto space = bench_space();
    const EvalFn eval = [](const Genome& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };
    GaConfig cfg;
    cfg.generations = 80;
    cfg.obs = obs::Instrumentation::with_sink(std::make_shared<CountingSink>());
    cfg.obs.metrics = std::make_shared<obs::MetricsRegistry>();
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    std::uint64_t seed = 1;
    for (auto _ : state) benchmark::DoNotOptimize(engine.run(seed++));
}
BENCHMARK(bm_full_ga_run_traced);

// Same workload again with only the progress tracker attached -- the cost a
// server job or a `--progress` user pays even when tracing and metrics are off.
void bm_full_ga_run_progress(benchmark::State& state)
{
    const auto space = bench_space();
    const EvalFn eval = [](const Genome& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };
    GaConfig cfg;
    cfg.generations = 80;
    cfg.obs.progress = std::make_shared<obs::ProgressTracker>();
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    std::uint64_t seed = 1;
    for (auto _ : state) benchmark::DoNotOptimize(engine.run(seed++));
}
BENCHMARK(bm_full_ga_run_progress);

// Same workload with only a live lineage tracker attached (no tracer): the
// cost of birth bookkeeping alone, which the acceptance budget caps at 5% of
// the plain run.
void bm_full_ga_run_lineage(benchmark::State& state)
{
    const auto space = bench_space();
    const EvalFn eval = [](const Genome& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };
    GaConfig cfg;
    cfg.generations = 80;
    cfg.obs.lineage = std::make_shared<obs::LineageTracker>();
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    std::uint64_t seed = 1;
    for (auto _ : state) benchmark::DoNotOptimize(engine.run(seed++));
}
BENCHMARK(bm_full_ga_run_lineage);

// Same workload served entirely from a pre-warmed persistent store: every
// memo miss is a store hit, so the delta against bm_full_ga_run is the pure
// lookup cost of the store tier (`sync` off — durability is not what this
// measures).  Fixed seed: each iteration replays the identical warm run.
void bm_full_ga_run_store_warm(benchmark::State& state)
{
    const auto space = bench_space();
    const EvalFn eval = [](const Genome& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };
    const std::string dir =
        (std::filesystem::temp_directory_path() / "nautilus_bench_store").string();
    std::filesystem::remove_all(dir);
    EvalStoreConfig store_cfg;
    store_cfg.path = dir;
    store_cfg.sync = false;
    GaConfig cfg;
    cfg.generations = 80;
    cfg.store = std::make_shared<EvalStore>(store_cfg);
    cfg.store_namespace = EvalStore::namespace_key("bench/sum");
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    benchmark::DoNotOptimize(engine.run(1));  // warm-up pass fills the store
    for (auto _ : state) benchmark::DoNotOptimize(engine.run(1));
    std::filesystem::remove_all(dir);
}
BENCHMARK(bm_full_ga_run_store_warm);

// Forwards every trace event into the service logger's ring -- the worst
// case for the telemetry plane, where the whole engine event stream (not
// just access/job records) pays the seqlock publish on top of
// serialization.  The acceptance budget caps this at 5% over the plain run,
// same bar as lineage's.
class LogSink final : public obs::TraceSink {
public:
    explicit LogSink(std::shared_ptr<obs::Logger> logger) : logger_(std::move(logger)) {}
    void write(const obs::TraceEvent& event) override
    {
        logger_->log(obs::LogLevel::info, event);
    }

private:
    std::shared_ptr<obs::Logger> logger_;
};

// ---- BENCH_obs.json ---------------------------------------------------------
//
// `--obs-json PATH` measures the observability plane directly (outside the
// google-benchmark harness, whose JSON reporter buries the numbers we gate
// on) and writes the compact artifact documented in EXPERIMENTS.md.

double seconds_since(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
        .count();
}

// Median-of-3 wall time for `reps` GA runs under the given instrumentation.
double time_ga_runs(const obs::Instrumentation& inst, int reps)
{
    const auto space = bench_space();
    const EvalFn eval = [](const Genome& g) {
        double v = 0.0;
        for (std::size_t i = 0; i < g.size(); ++i) v += g.gene(i);
        return Evaluation{true, v};
    };
    GaConfig cfg;
    cfg.generations = 80;
    cfg.obs = inst;
    const GaEngine engine{space, cfg, Direction::maximize, eval, HintSet::none(space)};
    double samples[3];
    for (double& sample : samples) {
        const auto t0 = std::chrono::steady_clock::now();
        std::uint64_t seed = 1;
        for (int r = 0; r < reps; ++r) benchmark::DoNotOptimize(engine.run(seed++));
        sample = seconds_since(t0);
    }
    if (samples[0] > samples[1]) std::swap(samples[0], samples[1]);
    if (samples[1] > samples[2]) std::swap(samples[1], samples[2]);
    if (samples[0] > samples[1]) std::swap(samples[0], samples[1]);
    return samples[1];
}

int write_obs_bench(const std::string& path)
{
    constexpr int kReps = 20;

    // 1) GA wall time: plain, tracing+metrics, progress-only.
    const double plain = time_ga_runs({}, kReps);
    auto sink = std::make_shared<CountingSink>();
    obs::Instrumentation traced = obs::Instrumentation::with_sink(sink);
    traced.metrics = std::make_shared<obs::MetricsRegistry>();
    const double traced_time = time_ga_runs(traced, kReps);
    obs::Instrumentation progressed;
    progressed.progress = std::make_shared<obs::ProgressTracker>();
    const double progress_time = time_ga_runs(progressed, kReps);
    obs::Instrumentation lineaged;
    lineaged.lineage = std::make_shared<obs::LineageTracker>();
    const double lineage_time = time_ga_runs(lineaged, kReps);
    auto ring_logger = std::make_shared<obs::Logger>(obs::LogConfig{});  // ring only
    const obs::Instrumentation logged =
        obs::Instrumentation::with_sink(std::make_shared<LogSink>(ring_logger));
    const double logged_time = time_ga_runs(logged, kReps);

    // 2) Trace serialization throughput: events/s through a discarding sink.
    const std::uint64_t events = sink->count();
    obs::TraceEvent wave{"eval_wave"};
    wave.add("size", std::size_t{20})
        .add("fresh", std::size_t{17})
        .add("seconds", obs::FieldValue{0.001});
    constexpr std::uint64_t kSerializeIters = 200000;
    const auto ser0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kSerializeIters; ++i)
        benchmark::DoNotOptimize(obs::to_jsonl(wave));
    const double events_per_second =
        static_cast<double>(kSerializeIters) / seconds_since(ser0);

    // 2b) Logger throughput: access-shaped records through the file-less
    //     logger (level stamp + serialization + seqlock ring publish).
    obs::Logger rate_logger{obs::LogConfig{}};
    obs::TraceEvent access{"access"};
    access.add("request_id", obs::FieldValue{std::uint64_t{42}})
        .add("method", obs::FieldValue{std::string{"GET"}})
        .add("path", obs::FieldValue{std::string{"/metrics"}})
        .add("status", 200)
        .add("bytes", std::size_t{4096})
        .add("micros", obs::FieldValue{std::uint64_t{180}});
    constexpr std::uint64_t kLogIters = 200000;
    const auto log0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kLogIters; ++i)
        rate_logger.log(obs::LogLevel::info, access);
    const double log_seconds = seconds_since(log0);
    const double log_records_per_second =
        static_cast<double>(kLogIters) / log_seconds;
    const double log_record_latency_us =
        log_seconds / static_cast<double>(kLogIters) * 1e6;

    // 3) Scrape latency: Prometheus exposition and /status JSON over a
    //    registry shaped like a real traced run's.
    obs::ProgressSnapshot snap = progressed.progress->snapshot();
    constexpr int kScrapeIters = 2000;
    const auto exp0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kScrapeIters; ++i) {
        std::string text = obs::to_prometheus(traced.metrics->snapshot());
        obs::append_progress_exposition(text, snap);
        benchmark::DoNotOptimize(text);
    }
    const double exposition_us = seconds_since(exp0) / kScrapeIters * 1e6;
    const auto st0 = std::chrono::steady_clock::now();
    for (int i = 0; i < kScrapeIters; ++i)
        benchmark::DoNotOptimize(obs::to_json(snap));
    const double status_us = seconds_since(st0) / kScrapeIters * 1e6;

    std::ofstream out{path};
    if (!out) {
        std::fprintf(stderr, "bench_engine_micro: cannot write %s\n", path.c_str());
        return 1;
    }
    char buf[1536];
    std::snprintf(buf, sizeof buf,
                  "{\n"
                  "  \"schema\": \"nautilus-bench-obs/1\",\n"
                  "  \"ga_runs\": %d,\n"
                  "  \"ga_plain_seconds\": %.6f,\n"
                  "  \"ga_traced_seconds\": %.6f,\n"
                  "  \"ga_progress_seconds\": %.6f,\n"
                  "  \"ga_lineage_seconds\": %.6f,\n"
                  "  \"ga_logged_seconds\": %.6f,\n"
                  "  \"traced_overhead_pct\": %.2f,\n"
                  "  \"progress_overhead_pct\": %.2f,\n"
                  "  \"lineage_overhead_pct\": %.2f,\n"
                  "  \"log_overhead_pct\": %.2f,\n"
                  "  \"trace_events_per_run\": %.1f,\n"
                  "  \"trace_serialize_events_per_second\": %.0f,\n"
                  "  \"log_records_per_second\": %.0f,\n"
                  "  \"log_record_latency_us\": %.3f,\n"
                  "  \"prometheus_exposition_us\": %.2f,\n"
                  "  \"status_json_us\": %.2f\n"
                  "}\n",
                  kReps, plain, traced_time, progress_time, lineage_time, logged_time,
                  (traced_time / plain - 1.0) * 100.0,
                  (progress_time / plain - 1.0) * 100.0,
                  (lineage_time / plain - 1.0) * 100.0,
                  (logged_time / plain - 1.0) * 100.0,
                  static_cast<double>(events) / (3.0 * kReps),
                  events_per_second, log_records_per_second, log_record_latency_us,
                  exposition_us, status_us);
    out << buf;
    std::printf("%s", buf);
    std::printf("bench_engine_micro: wrote %s\n", path.c_str());
    return 0;
}

// ---- BENCH_engine.json ------------------------------------------------------
//
// `--engine-json PATH` measures the breeding hot path on the paper-scale NoC
// GA configuration (router space, population 10, strong guidance, roulette
// selection -- the GaConfig defaults), plus the memo and router-model costs
// under one wave slot and the NSGA-II ranking costs, and writes the flat
// artifact documented in EXPERIMENTS.md (`nautilus-bench-engine/4`).  `--engine-baseline FILE`
// compares against a committed artifact; `--max-breed-drop PCT` turns that
// comparison into a gate on breed throughput.

// Median-of-3 wall time of `f()` run `reps` times.
template <typename F>
double median_seconds(F&& f, int reps)
{
    double samples[3];
    for (double& sample : samples) {
        const auto t0 = std::chrono::steady_clock::now();
        for (int r = 0; r < reps; ++r) f();
        sample = seconds_since(t0);
    }
    if (samples[0] > samples[1]) std::swap(samples[0], samples[1]);
    if (samples[1] > samples[2]) std::swap(samples[1], samples[2]);
    if (samples[0] > samples[1]) std::swap(samples[0], samples[1]);
    return samples[1];
}

// Naive numeric field lookup, good enough for the flat one-level artifacts
// this tool itself writes.
bool json_number_field(const std::string& text, const std::string& key, double* out)
{
    const auto pos = text.find("\"" + key + "\"");
    if (pos == std::string::npos) return false;
    const auto colon = text.find(':', pos);
    if (colon == std::string::npos) return false;
    try {
        *out = std::stod(text.substr(colon + 1));
    } catch (const std::exception&) {
        return false;
    }
    return true;
}

int write_engine_bench(const std::string& path, const std::string& baseline_path,
                       double max_breed_drop_pct)
{
    // Paper-scale Nautilus configuration: the NoC router space (section 4.1)
    // with packaged author hints at strong guidance.
    const noc::RouterGenerator gen;
    const ParameterSpace& space = gen.space();
    const HintSet hints = apply_guidance(gen.author_hints(ip::Metric::freq_mhz),
                                         Direction::maximize, GuidanceLevel::strong);
    BreedConfig breed_cfg;  // selection/crossover/elitism: GaConfig defaults
    breed_cfg.selection = SelectionConfig{SelectionKind::roulette, 1.8, 2};
    constexpr double kMutationRate = 0.1;
    constexpr std::size_t kGenerations = 80;

    Rng setup{42};
    std::vector<Genome> population;
    std::vector<double> fitness;
    for (std::size_t i = 0; i < breed_cfg.population_size; ++i) {
        population.push_back(Genome::random(space, setup));
        const auto metrics = gen.evaluate(population.back());
        fitness.push_back(metrics.feasible ? metrics.get(ip::Metric::freq_mhz)
                                           : -std::numeric_limits<double>::infinity());
    }
    const std::size_t children_per_gen =
        breed_cfg.population_size - breed_cfg.elitism;

    // 1) Breed-phase throughput.
    constexpr int kBreedReps = 400;  // x kGenerations breed phases each
    auto breed_pop = population;
    Rng breed_rng{9};
    BreedContext breed_ctx{space, hints, kMutationRate};
    const double breed_seconds = median_seconds(
        [&] {
            for (std::size_t g = 0; g < kGenerations; ++g) {
                breed_ctx.begin_generation(g);
                breed_ctx.breed(breed_pop, fitness, breed_cfg, breed_rng, false);
            }
        },
        kBreedReps);
    const double total_children =
        static_cast<double>(kBreedReps) * kGenerations * children_per_gen;
    const double children_per_s = total_children / breed_seconds;
    const double memo_probes = static_cast<double>(breed_ctx.dist_memo_hits() +
                                                   breed_ctx.dist_memo_misses());
    const double memo_hit_rate =
        memo_probes == 0.0
            ? 0.0
            : static_cast<double>(breed_ctx.dist_memo_hits()) / memo_probes;

    // 2) Per-generation population diversity, O(pop^2) pairwise definition
    //    vs. the incremental counter.
    constexpr int kDiversityReps = 20000;
    const double pairwise_seconds = median_seconds(
        [&] {
            const std::size_t genes = space.size();
            double total = 0.0;
            std::size_t pairs = 0;
            for (std::size_t i = 0; i < population.size(); ++i)
                for (std::size_t j = i + 1; j < population.size(); ++j) {
                    std::size_t differing = 0;
                    for (std::size_t g = 0; g < genes; ++g)
                        if (population[i].genes()[g] != population[j].genes()[g])
                            ++differing;
                    total += static_cast<double>(differing) / static_cast<double>(genes);
                    ++pairs;
                }
            benchmark::DoNotOptimize(total / static_cast<double>(pairs));
        },
        kDiversityReps);
    DiversityCounter counter;
    const double incremental_seconds = median_seconds(
        [&] { benchmark::DoNotOptimize(counter.measure(population)); }, kDiversityReps);

    // 3) End-to-end guided GA wall time (cheap analytic evaluator, so the
    //    breed phase is visible).
    const EvalFn eval = [&gen](const Genome& g) {
        const auto metrics = gen.evaluate(g);
        return Evaluation{metrics.feasible,
                          metrics.feasible ? metrics.get(ip::Metric::freq_mhz) : 0.0};
    };
    constexpr int kGaReps = 10;
    GaConfig ga_cfg;
    ga_cfg.generations = kGenerations;
    const GaEngine ga{space, ga_cfg, Direction::maximize, eval, hints};
    std::uint64_t seed = 1;
    const double ga_seconds =
        median_seconds([&] { benchmark::DoNotOptimize(ga.run(seed++)); }, kGaReps);

    // 4) The layers under a wave slot, on distinct router genomes (about one
    //    query_router query's worth).  Memo lookups get the key precomputed,
    //    as BatchEvaluator passes it.  Misses fill a fresh memo per rep with a
    //    trivial EvalFn, so table growth is included and the model is not;
    //    hits probe the filled memo.
    constexpr std::size_t kLayerGenomes = 512;
    std::vector<Genome> layer_genomes;
    std::vector<std::uint64_t> layer_keys;
    Rng layer_rng{11};
    while (layer_genomes.size() < kLayerGenomes) {
        Genome g = Genome::random(space, layer_rng);
        if (std::find(layer_keys.begin(), layer_keys.end(), g.key()) != layer_keys.end())
            continue;
        layer_keys.push_back(g.key());
        layer_genomes.push_back(std::move(g));
    }
    const EvalFn trivial = [](const Genome& g) {
        return Evaluation{true, static_cast<double>(g.gene(0))};
    };
    const auto lookup_all = [&](CachingEvaluator& memo) {
        for (std::size_t i = 0; i < kLayerGenomes; ++i)
            benchmark::DoNotOptimize(memo.evaluate(layer_genomes[i], layer_keys[i]));
    };
    constexpr int kMemoReps = 400;
    const double memo_miss_seconds = median_seconds(
        [&] {
            CachingEvaluator memo{trivial};
            lookup_all(memo);
        },
        kMemoReps);
    CachingEvaluator warm{trivial};
    lookup_all(warm);
    const double memo_hit_seconds = median_seconds([&] { lookup_all(warm); }, kMemoReps);
    constexpr int kModelReps = 20;
    const double model_seconds = median_seconds(
        [&] {
            for (const Genome& g : layer_genomes) benchmark::DoNotOptimize(gen.evaluate(g));
        },
        kModelReps);
    const double per_lookup = 1.0 / (static_cast<double>(kMemoReps) * kLayerGenomes);

    // 5) NSGA-II ranking on the perfbench pareto_network objectives
    //    (network bisection_gbps max x power_mw min) over random feasible
    //    designs: one generation's ranking of a 32-member pool (sort plus
    //    crowding of every front), and the final front over a 1300-point
    //    archive, about what an 80-generation population-16 run keeps.
    const noc::NetworkGenerator net;
    const std::vector<Direction> net_dirs{Direction::maximize, Direction::minimize};
    constexpr std::size_t kRankPool = 32;
    constexpr std::size_t kArchive = 1300;
    std::vector<ObjectivePoint> net_points;
    Rng net_rng{13};
    while (net_points.size() < kArchive) {
        const auto metrics = net.evaluate(Genome::random(net.space(), net_rng));
        if (!metrics.feasible) continue;
        net_points.push_back({net_points.size(),
                              {metrics.get(ip::Metric::bisection_gbps),
                               metrics.get(ip::Metric::power_mw)}});
    }
    PoolRanking ranking{net_dirs};
    std::vector<double> crowd;
    constexpr int kRankReps = 20000;
    const double rank_seconds = median_seconds(
        [&] {
            ranking.clear();
            for (std::size_t i = 0; i < kRankPool; ++i) ranking.add(net_points[i].values);
            ranking.non_dominated_sort();
            for (std::size_t f = 0; f < ranking.front_count(); ++f) {
                crowd.resize(ranking.front(f).size());
                ranking.crowding_distance(ranking.front(f), crowd);
            }
            benchmark::DoNotOptimize(crowd.data());
        },
        kRankReps);
    constexpr int kFrontReps = 10;
    const double final_front_seconds = median_seconds(
        [&] { benchmark::DoNotOptimize(pareto_front(net_points, net_dirs)); }, kFrontReps);

    std::ofstream out{path};
    if (!out) {
        std::fprintf(stderr, "bench_engine_micro: cannot write %s\n", path.c_str());
        return 1;
    }
    char buf[1024];
    std::snprintf(buf, sizeof buf,
                  "{\n"
                  "  \"schema\": \"nautilus-bench-engine/4\",\n"
                  "  \"population\": %zu,\n"
                  "  \"genes\": %zu,\n"
                  "  \"generations_per_rep\": %zu,\n"
                  "  \"breed_dataop_children_per_second\": %.0f,\n"
                  "  \"dist_memo_hit_rate\": %.4f,\n"
                  "  \"diversity_pairwise_us\": %.3f,\n"
                  "  \"diversity_incremental_us\": %.3f,\n"
                  "  \"ga_run_dataop_seconds\": %.6f,\n"
                  "  \"memo_hit_ns\": %.1f,\n"
                  "  \"memo_miss_ns\": %.1f,\n"
                  "  \"router_eval_us\": %.3f,\n"
                  "  \"nsga2_rank_us\": %.3f,\n"
                  "  \"nsga2_final_front_us\": %.1f\n"
                  "}\n",
                  breed_cfg.population_size, space.size(), kGenerations, children_per_s,
                  memo_hit_rate, pairwise_seconds / kDiversityReps * 1e6,
                  incremental_seconds / kDiversityReps * 1e6, ga_seconds,
                  memo_hit_seconds * per_lookup * 1e9, memo_miss_seconds * per_lookup * 1e9,
                  model_seconds / (static_cast<double>(kModelReps) * kLayerGenomes) * 1e6,
                  rank_seconds / kRankReps * 1e6, final_front_seconds / kFrontReps * 1e6);
    out << buf;
    std::printf("%s", buf);
    std::printf("bench_engine_micro: wrote %s\n", path.c_str());

    if (!baseline_path.empty()) {
        std::ifstream in{baseline_path};
        if (!in) {
            std::fprintf(stderr, "bench_engine_micro: cannot read baseline %s\n",
                         baseline_path.c_str());
            return 1;
        }
        std::ostringstream text;
        text << in.rdbuf();
        double baseline_children_per_s = 0.0;
        if (!json_number_field(text.str(), "breed_dataop_children_per_second",
                               &baseline_children_per_s) ||
            baseline_children_per_s <= 0.0) {
            std::fprintf(stderr,
                         "bench_engine_micro: baseline %s lacks "
                         "breed_dataop_children_per_second\n",
                         baseline_path.c_str());
            return 1;
        }
        const double drop_pct = (1.0 - children_per_s / baseline_children_per_s) * 100.0;
        std::printf("bench_engine_micro: breed throughput vs baseline: "
                    "%+.1f%% (%.0f -> %.0f children/s)\n",
                    -drop_pct, baseline_children_per_s, children_per_s);
        if (max_breed_drop_pct >= 0.0 && drop_pct > max_breed_drop_pct) {
            std::fprintf(stderr,
                         "bench_engine_micro: FAIL breed throughput dropped %.1f%% "
                         "(budget %.1f%%)\n",
                         drop_pct, max_breed_drop_pct);
            return 1;
        }
    }
    return 0;
}

// Value of the artifact flag at argv[i]; a missing value exits 2 rather than
// leaving the flag for google-benchmark to misread.
const char* flag_value(int argc, char** argv, int& i)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", argv[i]);
        std::exit(2);
    }
    return argv[++i];
}

// The whole token must parse as a finite number, as in nautilus_cli.
double parse_number(const char* flag, const char* text)
{
    try {
        const std::string s{text};
        std::size_t pos = 0;
        const double v = std::stod(s, &pos);
        if (pos == s.size() && std::isfinite(v)) return v;
    }
    catch (const std::exception&) {
    }
    std::fprintf(stderr, "invalid value '%s' for %s (expected a finite number)\n", text,
                 flag);
    std::exit(2);
}

}  // namespace

int main(int argc, char** argv)
{
    // Strip our artifact flags before google-benchmark sees (and rejects) them.
    std::string obs_json, engine_json, engine_baseline;
    double max_breed_drop = -1.0;
    int out_argc = 1;
    for (int i = 1; i < argc; ++i) {
        const char* arg = argv[i];
        if (std::strcmp(arg, "--obs-json") == 0)
            obs_json = flag_value(argc, argv, i);
        else if (std::strcmp(arg, "--engine-json") == 0)
            engine_json = flag_value(argc, argv, i);
        else if (std::strcmp(arg, "--engine-baseline") == 0)
            engine_baseline = flag_value(argc, argv, i);
        else if (std::strcmp(arg, "--max-breed-drop") == 0)
            max_breed_drop = parse_number(arg, flag_value(argc, argv, i));
        else
            argv[out_argc++] = argv[i];
    }
    argc = out_argc;
    if (!engine_json.empty())
        return write_engine_bench(engine_json, engine_baseline, max_breed_drop);
    if (!obs_json.empty()) return write_obs_bench(obs_json);

    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
