#pragma once
// Baseline-vs-Nautilus comparison experiments.
//
// One Experiment reproduces one of the paper's evaluation figures: it runs a
// query with several engine variants (baseline GA, weakly/strongly guided
// Nautilus, random sampling or a local search), each averaged over many runs,
// and reports convergence curves, evaluations-to-threshold and speedup
// factors.

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/ga.hpp"
#include "core/nautilus.hpp"
#include "exp/query.hpp"
#include "exp/series.hpp"
#include "ip/dataset.hpp"

namespace nautilus::exp {

enum class EngineKind { ga, random, hill_climb, anneal };

// One engine variant participating in a comparison.
struct EngineSpec {
    std::string label;
    GuidanceLevel level = GuidanceLevel::none;
    // Replace the generator's hints (e.g. estimator output).  Must be in
    // objective orientation like query_hints() results.
    std::optional<HintSet> hints_override;
    // Direct confidence override (for confidence-sweep ablations).
    std::optional<double> confidence_override;
    // The search engine.  The non-GA kinds spend `budget` distinct
    // evaluations per run, share the GA's evaluation pipeline settings and
    // are seeded from `ga.seed ^ 0x5eed`.
    EngineKind kind = EngineKind::ga;
    std::size_t budget = 0;
};

struct ExperimentConfig {
    std::size_t runs = 40;  // paper averages 40 runs (Fig. 3 uses 20)
    GaConfig ga;            // paper defaults: pop 10, rate 0.1, 80 generations
    std::size_t grid_points = 40;  // resolution of the reported mean curves
};

struct EngineResult {
    EngineSpec spec;
    MultiRunCurve curve;
    EvalSummary eval;  // aggregate pipeline accounting over all runs
    // Per run of `curve`: its distinct evaluations, and (GA only) its
    // best-so-far value after each generation.
    std::vector<std::size_t> run_evals;
    std::vector<std::vector<double>> generation_best;

    EngineResult(EngineSpec s, MultiRunCurve c) : spec(std::move(s)), curve(std::move(c)) {}
};

struct ExperimentResult {
    Query query;
    ExperimentConfig config;
    std::vector<EngineResult> engines;

    // Mean curves resampled onto a shared grid.
    std::vector<LabeledSeries> series() const;
    std::vector<double> shared_grid() const;

    // Convergence + speedup report at a quality threshold (natural units of
    // the query metric).  Engine 0 is treated as the baseline.
    void print_convergence(std::ostream& out, double threshold,
                           const std::string& threshold_label) const;

    // Full report: table + ASCII chart.
    void print(std::ostream& out) const;
};

class Experiment {
public:
    // Evaluations run against the generator's virtual synthesis.
    Experiment(const ip::IpGenerator& generator, Query query, ExperimentConfig config);

    // Evaluations served from an offline dataset (paper methodology); points
    // outside the dataset fall back to the generator.
    void use_dataset(const ip::Dataset& dataset);

    void add_engine(EngineSpec spec);
    // Convenience: baseline + weak + strong trio.
    void add_standard_engines();

    ExperimentResult run() const;

private:
    EvalFn make_eval() const;
    EngineResult run_engine(const EngineSpec& spec, HintSet hints, const EvalFn& eval) const;

    const ip::IpGenerator& generator_;
    Query query_;
    ExperimentConfig config_;
    std::vector<EngineSpec> engines_;
    const ip::Dataset* dataset_ = nullptr;
};

}  // namespace nautilus::exp
