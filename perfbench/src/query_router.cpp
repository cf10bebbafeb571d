// query_router: one caller issuing back-to-back paper-style GA queries
// (population 10, 80 generations, 1 worker, no store, trace or checkpoint)
// over RouterGenerator::metric_eval.  The model costs about a microsecond a
// call, so breed, memo and engine bookkeeping carry the run.

#include <array>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/ga.hpp"
#include "core/nautilus.hpp"
#include "noc/router_generator.hpp"

namespace perfbench {

namespace {

using nautilus::Direction;
using nautilus::EvalFn;
using nautilus::GaConfig;
using nautilus::GaEngine;
using nautilus::GuidanceLevel;
using nautilus::HintSet;
using nautilus::RunResult;
using nautilus::ip::Metric;

constexpr std::array<Metric, 3> kMetrics{Metric::freq_mhz, Metric::area_luts,
                                         Metric::area_delay_product};
constexpr std::array<GuidanceLevel, 3> kGuidance{GuidanceLevel::none, GuidanceLevel::weak,
                                                 GuidanceLevel::strong};
// Every (metric, guidance) cell gets the same number of queries, so seeds
// change the GA seeds and the order, not the mix.
constexpr std::size_t kSeedsPerCell = 32;
constexpr std::size_t kRecheckEvery = 16;  // re-run every 16th query after the window

struct Query {
    std::size_t metric = 0;
    std::size_t guidance = 0;
    std::uint64_t seed = 0;
};


// Everything built before the first timed query.
struct Setup {
    std::unique_ptr<nautilus::noc::RouterGenerator> generator;
    std::array<EvalFn, kMetrics.size()> evals;
    std::array<Direction, kMetrics.size()> directions{};
    std::vector<HintSet> hints;  // [metric * kGuidance.size() + guidance]
    std::vector<Query> queries;
};

Setup make_setup(std::uint64_t workload_seed)
{
    Setup s;
    s.generator = std::make_unique<nautilus::noc::RouterGenerator>();
    const auto& space = s.generator->space();
    for (std::size_t m = 0; m < kMetrics.size(); ++m) {
        s.evals[m] = s.generator->metric_eval(kMetrics[m]);
        s.directions[m] = nautilus::ip::metric_default_direction(kMetrics[m]);
        for (const GuidanceLevel level : kGuidance)
            s.hints.push_back(level == GuidanceLevel::none
                                  ? HintSet::none(space)
                                  : nautilus::apply_guidance(s.generator->author_hints(kMetrics[m]),
                                                             s.directions[m], level));
    }
    SeedRng rng{workload_seed};
    for (std::size_t m = 0; m < kMetrics.size(); ++m)
        for (std::size_t g = 0; g < kGuidance.size(); ++g)
            for (std::size_t k = 0; k < kSeedsPerCell; ++k)
                s.queries.push_back({m, g, rng.next() % 1000000007ull});
    rng.shuffle(s.queries);
    return s;
}

RunResult run_query(const Setup& s, const Query& q, const EvalFn& eval,
                    nautilus::obs::Instrumentation inst = {})
{
    GaConfig config;
    config.population_size = 10;
    config.generations = 80;
    config.seed = q.seed;
    config.eval_workers = 1;
    config.obs = std::move(inst);
    const GaEngine engine{s.generator->space(), config, s.directions[q.metric], eval,
                          s.hints[q.metric * kGuidance.size() + q.guidance]};
    return engine.run();
}

// One query per (metric, guidance) cell with a fixed seed, so set-up time
// does not depend on the workload seed.
void warm_up(const Setup& s)
{
    for (std::size_t m = 0; m < kMetrics.size(); ++m)
        for (std::size_t g = 0; g < kGuidance.size(); ++g) run_query(s, {m, g, 1}, s.evals[m]);
}

// What a query returned, for bit-for-bit comparison.
struct Digest {
    bool feasible = false;
    std::uint64_t best_bits = 0;
    std::vector<std::uint32_t> genome;
    std::size_t distinct = 0;
    std::size_t calls = 0;

    bool operator==(const Digest&) const = default;
};

Digest digest_of(const RunResult& r)
{
    Digest d;
    d.feasible = r.best_eval.feasible;
    std::memcpy(&d.best_bits, &r.best_eval.value, sizeof d.best_bits);
    d.genome = r.best_genome.genes();
    d.distinct = r.distinct_evals;
    d.calls = r.total_eval_calls;
    return d;
}

}  // namespace

void run_query_router(const Options& opt, Report& report)
{
    Window window;
    Layers layers;
    ModelProbe probe;
    Setup s;
    std::vector<Digest> seen;  // every query run, in order
    std::size_t rounds = 0;

    run_rounds(opt, [&](bool traced) {

        // Set up again before every round, so set-up time is sampled across
        // the whole run like the queries are.
        const auto setup_start = Clock::now();
        s = make_setup(opt.seed);
        warm_up(s);
        window.setup_s.push_back(seconds_between(setup_start, Clock::now()));

        Window::Round round;
        for (const Query& q : s.queries) {
            std::shared_ptr<SummarySink> sink;
            nautilus::obs::Instrumentation inst;
            EvalFn eval = s.evals[q.metric];
            if (traced) {
                sink = std::make_shared<SummarySink>();
                inst = nautilus::obs::Instrumentation::with_sink(sink);
                eval = probe.wrap(std::move(eval));
                probe.reset();
            }
            const auto start = Clock::now();
            const RunResult r = run_query(s, q, eval, std::move(inst));
            const double latency = seconds_between(start, Clock::now());
            round.seconds += latency;
            round.genomes += r.total_eval_calls;
            seen.push_back(digest_of(r));
            if (!opt.trace) {
                window.latency_s.push_back(latency);
                window.distinct += r.distinct_evals;
            }
            if (!traced) continue;
            const RunTrace t = sink->summary();
            layers.add(t);
            layers.model_calls += probe.calls();
            layers.model_s += probe.seconds();
            layers.query_slots_s += latency;
            // Reconciliation: summed eval_wave fresh == distinct evals, and
            // model calls == fault-guard attempts.
            if (t.wave_fresh != r.distinct_evals)
                report.fail("eval_wave fresh " + std::to_string(t.wave_fresh) + " != distinct " +
                            std::to_string(r.distinct_evals));
            else if (probe.calls() != r.fault.attempts)
                report.fail("model calls " + std::to_string(probe.calls()) + " != attempts " +
                            std::to_string(r.fault.attempts));
        }
        round.queries = s.queries.size();
        (traced ? layers.traced_round_s : layers.untraced_round_s).push_back(round.seconds);
        if (!opt.trace) window.rounds.push_back(round);
        ++rounds;
    });

    // Output checks, outside the timed window.  Every round must repeat the
    // first bit for bit.
    const std::size_t n = s.queries.size();
    report.attempted += seen.size();
    for (std::size_t i = n; i < seen.size(); ++i)
        if (!(seen[i] == seen[i % n]))
            report.fail("query " + std::to_string(i % n) + " differs from its first run");
    for (std::size_t i = 0; i < n; ++i) {
        const Query& q = s.queries[i];
        if (i % kRecheckEvery == 0 && !(digest_of(run_query(s, q, s.evals[q.metric])) == seen[i]))
            report.fail("query " + std::to_string(i) + " differs on re-run");
        // The reported best must be what the model says about the best genome.
        const Digest& d = seen[i];
        nautilus::Evaluation e = s.evals[q.metric](nautilus::Genome{d.genome});
        std::uint64_t bits = 0;
        std::memcpy(&bits, &e.value, sizeof bits);
        if (!d.feasible || !e.feasible || bits != d.best_bits)
            report.fail("query " + std::to_string(i) + " best does not match the model");
    }

    std::fprintf(stdout, "query_router: %zu rounds of %zu queries\n", rounds, n);
    if (opt.trace) {
        layers.service = measure_service_layers(opt, report);
        add_per_layer(report, layers);
    }
    else {
        add_end_to_end(report, window);
    }
}

}  // namespace perfbench
