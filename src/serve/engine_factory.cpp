#include "serve/engine_factory.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <stdexcept>

#include "core/eval_pipeline.hpp"
#include "core/ga.hpp"
#include "core/local_search.hpp"
#include "core/nautilus.hpp"
#include "core/nsga2.hpp"
#include "core/random_search.hpp"
#include "fft/fft_generator.hpp"
#include "ip/metrics.hpp"
#include "noc/network_generator.hpp"
#include "noc/router_generator.hpp"
#include "obs/obs.hpp"
#include "obs/trace.hpp"

namespace nautilus::serve {

namespace {

using ip::Metric;

// Resolve a metric name and confirm the generator actually models it --
// a spec naming a metric this IP never sets would otherwise run a full
// budget of evaluations and report "no feasible design", which is a
// misleading answer to a configuration error.
Metric metric_or_throw(const ip::IpGenerator& generator, const std::string& name)
{
    const auto m = ip::metric_from_name(name);
    if (!m) throw std::invalid_argument("unknown metric '" + name + "'");
    const auto provided = generator.metrics();
    for (const Metric p : provided)
        if (p == *m) return *m;
    std::string names;
    for (const Metric p : provided) {
        if (!names.empty()) names += ", ";
        names += ip::metric_name(p);
    }
    throw std::invalid_argument("ip '" + generator.name() + "' does not provide metric '" +
                                name + "' (available: " + names + ")");
}

Direction direction_of(const JobSpec& spec)
{
    return spec.direction == "min" ? Direction::minimize : Direction::maximize;
}

HintSet hints_for(const ip::IpGenerator& generator, const JobSpec& spec, Metric metric,
                  Direction direction)
{
    if (spec.guidance == "weak" || spec.guidance == "strong") {
        const GuidanceLevel level =
            spec.guidance == "weak" ? GuidanceLevel::weak : GuidanceLevel::strong;
        return apply_guidance(generator.author_hints(metric), direction, level);
    }
    return HintSet::none(generator.space());
}

obs::Instrumentation instrumentation_for(const JobRunInputs& inputs)
{
    obs::Instrumentation inst;
    if (!inputs.trace_path.empty())
        inst.tracer = obs::Tracer{std::make_shared<obs::JsonlFileSink>(inputs.trace_path)};
    inst.progress = inputs.progress;
    // Server jobs tag run_start with their identity so one grep on a
    // request id joins the trace against the access and server logs.
    if (inputs.job_id != 0) {
        inst.run_tags.emplace_back("job_id", obs::FieldValue{inputs.job_id});
        if (inputs.request_id != 0)
            inst.run_tags.emplace_back("request_id", obs::FieldValue{inputs.request_id});
    }
    return inst;
}

bool checkpoint_exists(const std::string& path)
{
    return !path.empty() && std::ifstream{path}.good();
}

// The store namespace is derived from ip + metric(s) exactly like the
// single-run CLI, so server jobs and standalone runs share records.
std::uint64_t store_namespace(const JobSpec& spec)
{
    std::string context = spec.ip + "/" + spec.metric;
    if (spec.engine == "nsga2") context += "+" + spec.metric2;
    return EvalStore::namespace_key(context);
}

JobOutcome run_ga(const ip::IpGenerator& generator, const JobSpec& spec,
                  const JobRunInputs& inputs, std::size_t workers,
                  const obs::Instrumentation& inst)
{
    const Metric metric = metric_or_throw(generator, spec.metric);
    const Direction direction = direction_of(spec);

    GaConfig ga;
    ga.generations = spec.generations;
    if (spec.population != 0) ga.population_size = spec.population;
    ga.seed = spec.seed;
    ga.eval_workers = workers;
    ga.obs = inst;
    ga.cancel = inputs.cancel;
    ga.checkpoint_path = inputs.checkpoint_path;
    ga.halt_at_generation = inputs.halt_at_generation;
    if (inputs.store) {
        ga.store = inputs.store;
        ga.store_namespace = store_namespace(spec);
    }

    const GaEngine engine{generator.space(), ga, direction,
                          generator.metric_eval(metric),
                          hints_for(generator, spec, metric, direction)};
    const RunResult r = checkpoint_exists(inputs.checkpoint_path)
                            ? engine.resume(inputs.checkpoint_path)
                            : engine.run();

    JobOutcome out;
    out.halted = r.halted;
    out.feasible = r.best_eval.feasible;
    if (out.feasible) {
        out.best = r.best_eval.value;
        out.best_genome = r.best_genome.to_string(generator.space());
    }
    out.distinct_evals = r.distinct_evals;
    out.total_eval_calls = r.total_eval_calls;
    out.store_hits = r.store_hits;
    out.store_misses = r.store_misses;
    out.start_generation = r.start_generation;
    out.retries = r.fault.retries;
    return out;
}

JobOutcome run_nsga2(const ip::IpGenerator& generator, const JobSpec& spec,
                     const JobRunInputs& inputs, std::size_t workers,
                     const obs::Instrumentation& inst)
{
    const Metric first = metric_or_throw(generator, spec.metric);
    const Metric second = metric_or_throw(generator, spec.metric2);
    const Direction direction = direction_of(spec);
    const std::vector<Direction> dirs{direction, ip::metric_default_direction(second)};

    const MultiEvalFn eval = [&generator, first,
                              second](const Genome& g) -> std::optional<std::vector<double>> {
        const auto mv = generator.evaluate(g);
        if (!mv.feasible) return std::nullopt;
        const auto a = mv.try_get(first);
        const auto b = mv.try_get(second);
        if (!a || !b) return std::nullopt;
        return std::vector<double>{*a, *b};
    };

    MultiObjectiveConfig mo;
    mo.generations = spec.generations;
    if (spec.population != 0) mo.population_size = spec.population;
    mo.seed = spec.seed;
    mo.eval_workers = workers;
    mo.obs = inst;
    mo.cancel = inputs.cancel;
    mo.checkpoint_path = inputs.checkpoint_path;
    mo.halt_at_generation = inputs.halt_at_generation;
    if (inputs.store) {
        mo.store = inputs.store;
        mo.store_namespace = store_namespace(spec);
    }

    const Nsga2Engine engine{generator.space(), mo, dirs, eval,
                             hints_for(generator, spec, first, direction)};
    const MultiObjectiveResult r = checkpoint_exists(inputs.checkpoint_path)
                                       ? engine.resume(inputs.checkpoint_path)
                                       : engine.run();

    JobOutcome out;
    out.halted = r.halted;
    out.feasible = !r.front.empty();
    out.front.reserve(r.front.size());
    for (const FrontPoint& p : r.front)
        out.front.push_back({p.genome.to_string(generator.space()), p.values});
    out.distinct_evals = r.distinct_evals;
    out.total_eval_calls = r.total_eval_calls;
    out.store_hits = r.store_hits;
    out.store_misses = r.store_misses;
    out.start_generation = r.start_generation;
    out.retries = r.fault.retries;
    return out;
}

JobOutcome run_budgeted(const ip::IpGenerator& generator, const JobSpec& spec,
                        const JobRunInputs& inputs, std::size_t workers,
                        const obs::Instrumentation& inst)
{
    const Metric metric = metric_or_throw(generator, spec.metric);
    const Direction direction = direction_of(spec);
    const EvalFn eval = generator.metric_eval(metric);
    const auto configure = [&](auto cfg) {
        cfg.max_distinct_evals = spec.evals;
        cfg.seed = spec.seed;
        cfg.eval_workers = workers;
        cfg.obs = inst;
        if (inputs.store) {
            cfg.store = inputs.store;
            cfg.store_namespace = store_namespace(spec);
        }
        return cfg;
    };

    EvalCounters c;
    const Curve curve = [&]() -> Curve {
        const ParameterSpace& space = generator.space();
        if (spec.engine == "random")
            return RandomSearch{space, configure(RandomSearchConfig{}), direction, eval}.run(
                spec.seed, &c);
        const HintSet hints = hints_for(generator, spec, metric, direction);
        if (spec.engine == "sa")
            return SimulatedAnnealing{space, configure(AnnealingConfig{}), direction, eval,
                                      hints}
                .run(spec.seed, &c);
        return HillClimber{space, configure(HillClimbConfig{}), direction, eval, hints}.run(
            spec.seed, &c);
    }();

    JobOutcome out;
    out.feasible = !curve.empty();
    if (out.feasible) out.best = curve.final_best();
    out.distinct_evals = c.distinct;
    out.total_eval_calls = c.calls;
    out.store_hits = c.store_hits;
    out.store_misses = c.store_misses;
    out.retries = c.fault.retries;
    return out;
}

}  // namespace

std::unique_ptr<ip::IpGenerator> make_generator(const std::string& ip)
{
    if (ip == "router") return std::make_unique<noc::RouterGenerator>();
    if (ip == "fft")
        return std::make_unique<fft::FftGenerator>(synth::FpgaTech::virtex6_lx760t(),
                                                   /*measure_snr=*/false);
    if (ip == "network") return std::make_unique<noc::NetworkGenerator>();
    throw std::invalid_argument("unknown ip '" + ip + "' (expected router, fft, network)");
}

JobOutcome run_job(const JobSpec& spec, const JobRunInputs& inputs)
{
    const std::unique_ptr<ip::IpGenerator> generator = make_generator(spec.ip);
    const std::size_t workers = inputs.workers != 0 ? inputs.workers : spec.workers;
    const obs::Instrumentation inst = instrumentation_for(inputs);

    const auto started = std::chrono::steady_clock::now();
    JobOutcome out;
    if (spec.engine == "ga")
        out = run_ga(*generator, spec, inputs, workers, inst);
    else if (spec.engine == "nsga2")
        out = run_nsga2(*generator, spec, inputs, workers, inst);
    else
        out = run_budgeted(*generator, spec, inputs, workers, inst);
    const double run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

    // Server jobs close their trace with a resource-accounting summary.
    // The eval counters mirror the run's own `run_end` exactly (checked by
    // `trace_inspect --check`); queue wait comes from the scheduler.  Pure
    // observation: zero RNG, so determinism gates are untouched.
    if (inputs.job_id != 0 && inst.tracer.enabled()) {
        obs::TraceEvent ev{"job_summary"};
        ev.add("job_id", obs::FieldValue{inputs.job_id});
        if (inputs.request_id != 0)
            ev.add("request_id", obs::FieldValue{inputs.request_id});
        ev.add("engine", obs::FieldValue{spec.engine})
            .add("workers", workers)
            .add("queue_wait_seconds", obs::FieldValue{inputs.queue_wait_seconds})
            .add("run_seconds", obs::FieldValue{run_seconds})
            .add("halted", obs::FieldValue{out.halted})
            .add("distinct_evals", out.distinct_evals)
            .add("fresh_evals", out.distinct_evals - std::min(out.store_hits,
                                                              out.distinct_evals))
            .add("store_hits", out.store_hits)
            .add("retries", out.retries);
        inst.tracer.emit(std::move(ev));
    }
    return out;
}

}  // namespace nautilus::serve
