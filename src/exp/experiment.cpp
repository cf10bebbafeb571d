#include "exp/experiment.hpp"

#include <algorithm>
#include <functional>
#include <iomanip>
#include <ostream>
#include <stdexcept>

#include "core/local_search.hpp"
#include "core/random_search.hpp"
#include "ip/metrics.hpp"

namespace nautilus::exp {

Experiment::Experiment(const ip::IpGenerator& generator, Query query,
                       ExperimentConfig config)
    : generator_(generator), query_(std::move(query)), config_(config)
{
    config_.ga.validate();
    if (config_.runs == 0) throw std::invalid_argument("Experiment: runs must be >= 1");
}

void Experiment::use_dataset(const ip::Dataset& dataset)
{
    dataset_ = &dataset;
}

void Experiment::add_engine(EngineSpec spec)
{
    engines_.push_back(std::move(spec));
}

void Experiment::add_standard_engines()
{
    add_engine({"baseline", GuidanceLevel::none, std::nullopt, std::nullopt});
    add_engine({"nautilus-weak", GuidanceLevel::weak, std::nullopt, std::nullopt});
    add_engine({"nautilus-strong", GuidanceLevel::strong, std::nullopt, std::nullopt});
}

EvalFn Experiment::make_eval() const
{
    if (dataset_ != nullptr)
        return dataset_->lookup_eval(query_.metric, query_eval(generator_, query_));
    return query_eval(generator_, query_);
}

ExperimentResult Experiment::run() const
{
    if (engines_.empty()) throw std::logic_error("Experiment::run: no engines added");

    ExperimentResult result;
    result.query = query_;
    result.config = config_;

    const EvalFn eval = make_eval();
    const HintSet base_hints = query_hints(generator_, query_);

    for (const EngineSpec& spec : engines_) {
        HintSet hints = spec.hints_override.value_or(base_hints);
        double confidence = guidance_confidence(spec.level, hints.confidence());
        if (spec.confidence_override) confidence = *spec.confidence_override;
        hints.set_confidence(confidence);
        result.engines.push_back(run_engine(spec, std::move(hints), eval));
    }
    return result;
}

EngineResult Experiment::run_engine(const EngineSpec& spec, HintSet hints,
                                    const EvalFn& eval) const
{
    const ParameterSpace& space = generator_.space();
    const Direction dir = query_.direction;
    // The budgeted engines share the GA's evaluation pipeline settings, so
    // the comparison (and any trace) covers every engine uniformly; they
    // report a curve plus counters, wrapped here as a RunResult.
    auto budgeted = [&](auto cfg) {
        static_cast<EvalPipelineConfig&>(cfg) = config_.ga;
        cfg.max_distinct_evals = spec.budget;
        return cfg;
    };
    auto counted = [dir](auto engine) {
        return [dir, engine = std::move(engine)](std::uint64_t seed) {
            EvalCounters counters;
            RunResult r{dir};
            r.curve = engine.run(seed, &counters);
            counters.copy_to(r);
            return r;
        };
    };
    std::function<RunResult(std::uint64_t)> run_one;
    switch (spec.kind) {
    case EngineKind::ga:
        run_one = [engine = GaEngine{space, config_.ga, dir, eval, hints}](std::uint64_t seed) {
            return engine.run(seed);
        };
        break;
    case EngineKind::random:
        run_one = counted(RandomSearch{space, budgeted(RandomSearchConfig{}), dir, eval});
        break;
    case EngineKind::hill_climb:
        run_one = counted(HillClimber{space, budgeted(HillClimbConfig{}), dir, eval, hints});
        break;
    case EngineKind::anneal:
        run_one = counted(SimulatedAnnealing{space, budgeted(AnnealingConfig{}), dir, eval, hints});
        break;
    }

    // The engines' own run_many seeding, so each kind's curves are exactly
    // its engine's run_many at this seed.
    EngineResult out{spec, MultiRunCurve{dir}};
    const std::uint64_t seed =
        spec.kind == EngineKind::ga ? config_.ga.seed : config_.ga.seed ^ 0x5eedull;
    out.curve = run_many_curves("Experiment::run", dir, seed, config_.runs, [&](std::uint64_t s) {
        RunResult r = run_one(s);
        out.eval.absorb(r);
        if (!r.curve.empty()) {
            out.run_evals.push_back(r.distinct_evals);
            if (!r.history.empty()) out.generation_best.emplace_back();
            for (const GenerationStats& g : r.history)
                out.generation_best.back().push_back(g.best_so_far);
        }
        return std::move(r.curve);
    });
    return out;
}

std::vector<double> ExperimentResult::shared_grid() const
{
    double max_evals = 0.0;
    for (const auto& e : engines) {
        for (std::size_t r = 0; r < e.curve.runs(); ++r)
            max_evals = std::max(max_evals, e.curve.run(r).final_evals());
    }
    const std::size_t points = std::max<std::size_t>(config.grid_points, 2);
    std::vector<double> grid(points);
    for (std::size_t i = 0; i < points; ++i)
        grid[i] = max_evals * static_cast<double>(i + 1) / static_cast<double>(points);
    return grid;
}

std::vector<LabeledSeries> ExperimentResult::series() const
{
    const std::vector<double> grid = shared_grid();
    std::vector<LabeledSeries> out;
    out.reserve(engines.size());
    for (const auto& e : engines) out.push_back({e.spec.label, e.curve.mean_curve(grid)});
    return out;
}

namespace {

// An engine label in an 18-wide column, always followed by a space so a
// long label never runs into the number after it.
std::ostream& label_column(std::ostream& out, const std::string& label)
{
    return out << std::setw(17) << std::left << label << ' ';
}

}  // namespace

void ExperimentResult::print_convergence(std::ostream& out, double threshold,
                                         const std::string& threshold_label) const
{
    // The report sets std::fixed and precisions; the caller's stream gets
    // its own format back at the end.
    const std::ios_base::fmtflags flags = out.flags();
    const std::streamsize precision = out.precision();
    out << "  convergence to " << threshold_label << " (" << direction_name(query.direction)
        << " " << ip::metric_name(query.metric) << " to "
        << threshold << " " << ip::metric_unit(query.metric) << "):\n";

    std::optional<double> baseline_crossing;
    for (std::size_t i = 0; i < engines.size(); ++i) {
        const auto conv = engines[i].curve.evals_to_reach(threshold);
        const auto crossing = engines[i].curve.mean_curve_crossing(threshold);
        label_column(out << "    ", engines[i].spec.label);
        if (conv.reached == 0) {
            out << "never reached (0/" << conv.runs << " runs)\n";
            continue;
        }
        if (!crossing) {
            out << "mean curve never crosses; per-run mean " << std::fixed
                << std::setprecision(1) << conv.mean_evals << " designs, " << conv.reached
                << "/" << conv.runs << " runs reached\n";
            continue;
        }
        out << std::fixed << std::setprecision(1) << std::setw(8) << *crossing
            << " designs (mean curve crossing; per-run mean " << conv.mean_evals << ", "
            << conv.reached << "/" << conv.runs << " reached)";
        if (i == 0) {
            baseline_crossing = *crossing;
        }
        else if (baseline_crossing && *crossing > 0.0) {
            const double ratio = *baseline_crossing / *crossing;
            out << "  [" << std::setprecision(2);
            if (ratio >= 1.0) out << ratio << "x fewer than baseline]";
            else out << 1.0 / ratio << "x more than baseline]";
        }
        out << '\n';
    }
    out.flags(flags);
    out.precision(precision);
}

void ExperimentResult::print(std::ostream& out) const
{
    // As in print_convergence, the caller's format comes back at the end.
    const std::ios_base::fmtflags flags = out.flags();
    const std::streamsize precision = out.precision();
    out << "== query: " << query.name << " (" << direction_name(query.direction) << " "
        << ip::metric_name(query.metric) << ", " << config.runs << " runs, pop "
        << config.ga.population_size << ", " << config.ga.generations << " generations)\n";
    const auto s = series();
    print_series_table(out, "# designs", std::string(ip::metric_name(query.metric)) + " [" +
                                              ip::metric_unit(query.metric) + "]",
                       shared_grid(), s);
    print_ascii_chart(out, query.name, s);
    for (const auto& e : engines) {
        label_column(out << "  ", e.spec.label) << "final best (mean over runs): "
            << std::fixed << std::setprecision(3) << e.curve.mean_final_best() << " "
            << ip::metric_unit(query.metric) << '\n';
    }
    out << "  evaluation pipeline (" << config.ga.eval_workers << " worker"
        << (config.ga.eval_workers == 1 ? "" : "s") << "):\n";
    for (const auto& e : engines) {
        const EvalSummary& s = e.eval;
        label_column(out << "    ", e.spec.label) << std::fixed
            << std::setprecision(3) << s.eval_seconds << " s eval wall-clock, "
            << s.distinct_evals << " distinct / " << s.total_calls << " calls ("
            << std::setprecision(1) << s.cache_hit_rate() * 100.0 << "% cache hits)\n";
    }
    out.flags(flags);
    out.precision(precision);
}

}  // namespace nautilus::exp
