// pareto_network: one caller issuing back-to-back NSGA-II queries on the
// network IP (bisection_gbps vs power_mw, population 16, 80 generations)
// at eval_workers = min(4, usable CPUs).  The network model is the costliest
// evaluator; waves of 16 fan out over the BatchEvaluator pool, so pool
// hand-off, the memo lock, in-flight dedup and non-dominated sorting carry
// the run.

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/nautilus.hpp"
#include "core/nsga2.hpp"
#include "noc/network_generator.hpp"

namespace perfbench {

namespace {

using nautilus::Direction;
using nautilus::GuidanceLevel;
using nautilus::HintSet;
using nautilus::MultiEvalFn;
using nautilus::MultiObjectiveConfig;
using nautilus::MultiObjectiveResult;
using nautilus::Nsga2Engine;
using nautilus::ip::Metric;

constexpr std::array<GuidanceLevel, 3> kGuidance{GuidanceLevel::none, GuidanceLevel::weak,
                                                 GuidanceLevel::strong};
constexpr std::size_t kSeedsPerGuidance = 16;

struct Query {
    std::size_t guidance = 0;
    std::uint64_t seed = 0;
};


struct Setup {
    std::unique_ptr<nautilus::noc::NetworkGenerator> generator;
    MultiEvalFn eval;
    std::vector<HintSet> hints;  // per guidance level
    std::vector<Query> queries;
};

Setup make_setup(std::uint64_t workload_seed)
{
    Setup s;
    s.generator = std::make_unique<nautilus::noc::NetworkGenerator>();
    const auto* generator = s.generator.get();
    s.eval = [generator](const nautilus::Genome& g) -> std::optional<std::vector<double>> {
        const auto mv = generator->evaluate(g);
        if (!mv.feasible) return std::nullopt;
        const auto a = mv.try_get(Metric::bisection_gbps);
        const auto b = mv.try_get(Metric::power_mw);
        if (!a || !b) return std::nullopt;
        return std::vector<double>{*a, *b};
    };
    for (const GuidanceLevel level : kGuidance)
        s.hints.push_back(level == GuidanceLevel::none
                              ? HintSet::none(generator->space())
                              : nautilus::apply_guidance(
                                    generator->author_hints(Metric::bisection_gbps),
                                    Direction::maximize, level));
    SeedRng rng{workload_seed};
    for (std::size_t g = 0; g < kGuidance.size(); ++g)
        for (std::size_t k = 0; k < kSeedsPerGuidance; ++k)
            s.queries.push_back({g, rng.next() % 1000000007ull});
    rng.shuffle(s.queries);
    return s;
}

MultiObjectiveResult run_query(const Setup& s, const Query& q, std::size_t workers,
                               const MultiEvalFn& eval, nautilus::obs::Instrumentation inst = {})
{
    MultiObjectiveConfig config;
    config.population_size = 16;
    config.generations = 80;
    config.seed = q.seed;
    config.eval_workers = workers;
    config.obs = std::move(inst);
    const Nsga2Engine engine{s.generator->space(), config,
                             {Direction::maximize, Direction::minimize}, eval,
                             s.hints[q.guidance]};
    return engine.run();
}

// A front, bit for bit, plus the cost counters.
struct Digest {
    std::vector<std::vector<std::uint32_t>> genomes;
    std::vector<std::uint64_t> value_bits;
    std::size_t distinct = 0;
    std::size_t calls = 0;

    bool operator==(const Digest&) const = default;
};

Digest digest_of(const MultiObjectiveResult& r)
{
    Digest d;
    for (const nautilus::FrontPoint& p : r.front) {
        d.genomes.push_back(p.genome.genes());
        for (const double v : p.values) {
            std::uint64_t bits = 0;
            std::memcpy(&bits, &v, sizeof bits);
            d.value_bits.push_back(bits);
        }
    }
    d.distinct = r.distinct_evals;
    d.calls = r.total_eval_calls;
    return d;
}

}  // namespace

void run_pareto_network(const Options& opt, Report& report)
{
    const std::size_t workers = std::min<std::size_t>(4, usable_cpus());
    Window window;
    Layers layers;
    ModelProbe probe;
    Setup s;
    std::vector<Digest> seen;  // every query run, in order
    std::size_t rounds = 0;

    run_rounds(opt, [&](bool traced) {
        // Set up again before every round, so set-up time is sampled across
        // the whole run like the queries are.  The warm-up runs one query per
        // guidance level with a fixed seed, so it does not depend on the
        // workload seed.
        const auto setup_start = Clock::now();
        s = make_setup(opt.seed);
        for (std::size_t g = 0; g < kGuidance.size(); ++g) run_query(s, {g, 1}, workers, s.eval);
        window.setup_s.push_back(seconds_between(setup_start, Clock::now()));

        Window::Round round;
        for (const Query& q : s.queries) {
            std::shared_ptr<SummarySink> sink;
            nautilus::obs::Instrumentation inst;
            MultiEvalFn eval = s.eval;
            if (traced) {
                sink = std::make_shared<SummarySink>();
                inst = nautilus::obs::Instrumentation::with_sink(sink);
                eval = probe.wrap(std::move(eval));
                probe.reset();
            }
            const auto start = Clock::now();
            const MultiObjectiveResult r = run_query(s, q, workers, eval, std::move(inst));
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
            layers.query_slots_s += latency * static_cast<double>(workers);
            if (t.wave_fresh != r.distinct_evals)
                report.fail("eval_wave fresh " + std::to_string(t.wave_fresh) + " != distinct " +
                            std::to_string(r.distinct_evals));
        }
        round.queries = s.queries.size();
        (traced ? layers.traced_round_s : layers.untraced_round_s).push_back(round.seconds);
        if (!opt.trace) window.rounds.push_back(round);
        ++rounds;
    });

    // Output checks, outside the timed window: every front must equal the
    // same query at 1 worker, and its values must be what the model says.
    report.attempted = seen.size();
    const std::size_t n = s.queries.size();
    for (std::size_t i = 0; i < n; ++i) {
        const Digest serial = digest_of(run_query(s, s.queries[i], 1, s.eval));
        for (std::size_t k = i; k < seen.size(); k += n)
            if (!(seen[k] == serial))
                report.fail("query " + std::to_string(i) + " front differs from 1 worker");
        for (std::size_t p = 0; p < serial.genomes.size(); ++p) {
            const auto values = s.eval(nautilus::Genome{serial.genomes[p]});
            std::array<std::uint64_t, 2> bits{};
            if (values) std::memcpy(bits.data(), values->data(), sizeof bits);
            if (!values || bits[0] != serial.value_bits[2 * p] ||
                bits[1] != serial.value_bits[2 * p + 1])
                report.fail("query " + std::to_string(i) + " front point does not match the model");
        }
        if (serial.genomes.empty()) report.fail("query " + std::to_string(i) + " has an empty front");
    }

    if (opt.trace) add_per_layer(report, layers);
    else add_end_to_end(report, window);
    std::fprintf(stdout, "pareto_network: %zu rounds of %zu queries at %zu workers\n", rounds, n,
                 workers);
}

}  // namespace perfbench
