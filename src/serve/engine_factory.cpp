#include "serve/engine_factory.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <type_traits>

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
    obs::Instrumentation inst = inputs.obs;
    if (!inputs.trace_path.empty())
        inst.tracer = obs::Tracer{std::make_shared<obs::JsonlFileSink>(inputs.trace_path)};
    // Server jobs tag run_start with their identity so one grep on a
    // request id joins the trace against the access and server logs.
    if (inputs.job_id != 0) {
        inst.run_tags.emplace_back("job_id", obs::FieldValue{inputs.job_id});
        if (inputs.request_id != 0)
            inst.run_tags.emplace_back("request_id", obs::FieldValue{inputs.request_id});
    }
    return inst;
}

bool injects_faults(const FaultInjectionConfig& c)
{
    return c.fail_rate > 0.0 || c.hang_rate > 0.0 || c.flaky_value_rate > 0.0 ||
           c.fail_on_nth_call != 0;
}

// The store namespace is derived from ip + metric(s), so server jobs,
// `--job` runs and flag-mode runs of one query share records.
std::uint64_t store_namespace(const JobSpec& spec)
{
    std::string context = spec.ip + "/" + spec.metric;
    if (spec.engine == "nsga2") context += "+" + spec.metric2;
    return EvalStore::namespace_key(context);
}

// One run's fixed inputs, and the settings they give every engine config.
struct RunContext {
    const ip::IpGenerator& generator;
    const JobSpec& spec;
    const JobRunInputs& inputs;
    std::size_t workers;
    obs::Instrumentation inst;

    template <typename Config>
    Config configure(Config cfg) const
    {
        cfg.seed = spec.seed;
        cfg.eval_workers = workers;
        cfg.obs = inst;
        cfg.fault = inputs.fault;
        if (inputs.store) {
            cfg.store = inputs.store;
            cfg.store_namespace = store_namespace(spec);
        }
        if constexpr (std::is_base_of_v<CheckpointConfig, Config>) {
            cfg.generations = spec.generations;
            if (spec.population != 0) cfg.population_size = spec.population;
            cfg.cancel = inputs.cancel;
            cfg.checkpoint_path = inputs.checkpoint_path;
            cfg.checkpoint_every = inputs.checkpoint_every;
            cfg.halt_at_generation = inputs.halt_at_generation;
        }
        else {
            cfg.max_distinct_evals = spec.evals;
        }
        return cfg;
    }

    // Resumes from an existing checkpoint, else starts fresh.
    template <typename Engine>
    auto run_or_resume(const Engine& engine) const
    {
        const std::string& path = inputs.checkpoint_path;
        return !path.empty() && std::ifstream{path}.good() ? engine.resume(path) : engine.run();
    }

    // The metric's evaluation function, behind the seeded fault injector
    // when `inputs.chaos` asks for one; `chaos` keeps it alive for the run.
    EvalFn eval(Metric metric, std::optional<FaultInjectingEvaluator>& chaos) const
    {
        EvalFn fn = generator.metric_eval(metric);
        if (!injects_faults(inputs.chaos)) return fn;
        chaos.emplace(std::move(fn), inputs.chaos);
        return chaos->as_eval_fn();
    }
};

// The accounting a GA or NSGA-II result shares.
template <typename Result>
JobOutcome generational_outcome(const Result& r)
{
    JobOutcome out;
    out.halted = r.halted;
    out.distinct_evals = r.distinct_evals;
    out.total_eval_calls = r.total_eval_calls;
    out.store_hits = r.store_hits;
    out.store_misses = r.store_misses;
    out.start_generation = r.start_generation;
    out.fault = r.fault;
    return out;
}

JobOutcome run_ga(const RunContext& ctx)
{
    const Metric metric = metric_or_throw(ctx.generator, ctx.spec.metric);
    const Direction direction = direction_of(ctx.spec);
    std::optional<FaultInjectingEvaluator> chaos;
    const GaEngine engine{ctx.generator.space(), ctx.configure(GaConfig{}), direction,
                          ctx.eval(metric, chaos),
                          hints_for(ctx.generator, ctx.spec, metric, direction)};
    const RunResult r = ctx.run_or_resume(engine);

    JobOutcome out = generational_outcome(r);
    out.feasible = r.best_eval.feasible;
    if (out.feasible) {
        out.best = r.best_eval.value;
        out.best_genome = r.best_genome.to_string(ctx.generator.space());
    }
    return out;
}

JobOutcome run_nsga2(const RunContext& ctx)
{
    const ip::IpGenerator& generator = ctx.generator;
    const Metric first = metric_or_throw(generator, ctx.spec.metric);
    const Metric second = metric_or_throw(generator, ctx.spec.metric2);
    if (injects_faults(ctx.inputs.chaos))
        throw std::invalid_argument("fault injection does not apply to nsga2 jobs");
    const Direction direction = direction_of(ctx.spec);
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

    const Nsga2Engine engine{generator.space(), ctx.configure(MultiObjectiveConfig{}), dirs,
                             eval, hints_for(generator, ctx.spec, first, direction)};
    const MultiObjectiveResult r = ctx.run_or_resume(engine);

    JobOutcome out = generational_outcome(r);
    out.feasible = !r.front.empty();
    out.front.reserve(r.front.size());
    for (const FrontPoint& p : r.front)
        out.front.push_back({p.genome.to_string(generator.space()), p.values});
    return out;
}

JobOutcome run_budgeted(const RunContext& ctx)
{
    const JobSpec& spec = ctx.spec;
    const Metric metric = metric_or_throw(ctx.generator, spec.metric);
    const Direction direction = direction_of(spec);
    std::optional<FaultInjectingEvaluator> chaos;
    const EvalFn eval = ctx.eval(metric, chaos);

    EvalCounters c;
    const Curve curve = [&]() -> Curve {
        const ParameterSpace& space = ctx.generator.space();
        if (spec.engine == "random")
            return RandomSearch{space, ctx.configure(RandomSearchConfig{}), direction, eval}
                .run(spec.seed, &c);
        const HintSet hints = hints_for(ctx.generator, spec, metric, direction);
        if (spec.engine == "sa")
            return SimulatedAnnealing{space, ctx.configure(AnnealingConfig{}), direction, eval,
                                      hints}
                .run(spec.seed, &c);
        return HillClimber{space, ctx.configure(HillClimbConfig{}), direction, eval, hints}
            .run(spec.seed, &c);
    }();

    JobOutcome out;
    out.feasible = !curve.empty();
    if (out.feasible) out.best = curve.final_best();
    out.distinct_evals = c.distinct;
    out.total_eval_calls = c.calls;
    out.store_hits = c.store_hits;
    out.store_misses = c.store_misses;
    out.fault = c.fault;
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
    const RunContext ctx{*generator, spec, inputs, workers, instrumentation_for(inputs)};
    const obs::Instrumentation& inst = ctx.inst;

    const auto started = std::chrono::steady_clock::now();
    JobOutcome out;
    if (spec.engine == "ga")
        out = run_ga(ctx);
    else if (spec.engine == "nsga2")
        out = run_nsga2(ctx);
    else
        out = run_budgeted(ctx);
    const double run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - started).count();

    // Server jobs close their trace with a resource-accounting summary.
    // The eval counters mirror the run's own `run_end` exactly (checked by
    // `nautilus_trace inspect --check`); queue wait comes from the
    // scheduler.  Pure observation: zero RNG, so determinism gates are
    // untouched.
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
            .add("retries", out.fault.retries);
        inst.tracer.emit(std::move(ev));
    }
    return out;
}

}  // namespace nautilus::serve
