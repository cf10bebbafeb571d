#pragma once
// Convergence curves and multi-run aggregation.
//
// The paper's figures plot "best solution so far" against the cumulative
// number of distinct design points evaluated, averaged over 20-40 runs.  A
// Curve is one run's step function; MultiRunCurve resamples several runs onto
// a common evaluation grid and averages them, and answers "how many
// evaluations to reach quality X" queries (the paper's convergence numbers).

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/fitness.hpp"
#include "core/rng.hpp"

namespace nautilus {

struct CurvePoint {
    double evals = 0.0;  // cumulative distinct evaluations
    double best = 0.0;   // best query-metric value so far (natural units)
};

// One run's best-so-far trajectory; a right-continuous step function of the
// evaluation count.  Points must be appended with non-decreasing `evals` and
// direction-monotone `best`.
class Curve {
public:
    explicit Curve(Direction dir) : dir_(dir) {}

    Direction direction() const { return dir_; }

    void append(double evals, double best);

    bool empty() const { return points_.empty(); }
    std::size_t size() const { return points_.size(); }
    const std::vector<CurvePoint>& points() const { return points_; }

    double final_evals() const;
    double final_best() const;

    // Best value achieved by the time `evals` evaluations were spent
    // (step interpolation); nullopt before the first point.
    std::optional<double> value_at(double evals) const;

    // Smallest evaluation count at which the curve reaches `threshold`
    // (direction-aware); nullopt if it never does.
    std::optional<double> evals_to_reach(double threshold) const;

private:
    Direction dir_;
    std::vector<CurvePoint> points_;
};

// Aggregates equally-configured runs.
class MultiRunCurve {
public:
    explicit MultiRunCurve(Direction dir) : dir_(dir) {}

    Direction direction() const { return dir_; }

    void add_run(Curve curve);

    std::size_t runs() const { return runs_.size(); }
    const Curve& run(std::size_t i) const;

    // Mean best-so-far across runs at each grid point.  Runs that have not
    // started yet at a grid point are skipped; runs that already ended hold
    // their final value.
    std::vector<CurvePoint> mean_curve(const std::vector<double>& grid) const;

    // Evenly spaced grid covering [0, max final_evals] with `points` points.
    std::vector<double> default_grid(std::size_t points = 50) const;

    // Mean evaluations needed to reach `threshold` over the runs that do
    // reach it; `reached` reports how many did.
    struct Convergence {
        double mean_evals = 0.0;
        std::size_t reached = 0;
        std::size_t runs = 0;
    };
    Convergence evals_to_reach(double threshold) const;

    // Evaluation count at which the *mean* best-so-far curve crosses
    // `threshold` -- what the paper's figures show.  Runs that never reach
    // the threshold keep dragging the mean, so this is robust to partial
    // convergence.  nullopt if the mean curve never crosses.
    std::optional<double> mean_curve_crossing(double threshold,
                                              std::size_t grid_points = 400) const;

    // Mean of the runs' final best values.
    double mean_final_best() const;
    // Best final value across runs.
    double best_final_best() const;

private:
    Direction dir_;
    std::vector<Curve> runs_;
};

// `count` runs seeded from `seed` (one draw per run), collected into one
// MultiRunCurve.  `run(seed)` returns the run's Curve; empty curves (no
// feasible design found) are skipped.  Throws std::invalid_argument naming
// `owner` when count is 0.
template <typename RunFn>
MultiRunCurve run_many_curves(const char* owner, Direction direction, std::uint64_t seed,
                              std::size_t count, RunFn run)
{
    if (count == 0) throw std::invalid_argument(std::string{owner} + ": count must be >= 1");
    MultiRunCurve multi{direction};
    Rng seeder{seed};
    for (std::size_t i = 0; i < count; ++i) {
        Curve c = run(seeder.next_u64());
        if (!c.empty()) multi.add_run(std::move(c));
    }
    return multi;
}

// Ratio of evaluation costs "baseline / guided" to reach `threshold`; the
// paper's headline speedup numbers.  Returns nullopt when either side never
// reaches the threshold in a majority of runs.
std::optional<double> speedup_at_threshold(const MultiRunCurve& baseline,
                                           const MultiRunCurve& guided, double threshold);

}  // namespace nautilus
