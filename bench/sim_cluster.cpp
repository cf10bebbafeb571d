#include "sim_cluster.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <stdexcept>

#include "synth/synthesizer.hpp"

namespace nautilus::bench {

double synthesis_minutes(double equivalent_luts, std::uint64_t config_key)
{
    if (equivalent_luts < 0.0)
        throw std::invalid_argument("synthesis_minutes: negative area");
    // Flow overhead (~3 min) + effort superlinear in size; a 25k-LUT router
    // lands around 2.5 hours, matching the "minutes to hours" range.
    const double base = 3.0 + 0.25 * std::pow(equivalent_luts / 100.0, 1.15);
    return base * synth::noise_factor(config_key, 0x70bull, 0.25);
}

SynthesisCluster::SynthesisCluster(std::size_t workers) : workers_(workers)
{
    if (workers == 0) throw std::invalid_argument("SynthesisCluster: need >= 1 worker");
}

double SynthesisCluster::run_batch(std::span<const double> job_minutes)
{
    if (job_minutes.empty()) return 0.0;
    std::vector<double> jobs(job_minutes.begin(), job_minutes.end());
    for (double j : jobs)
        if (j < 0.0) throw std::invalid_argument("run_batch: negative job duration");
    std::sort(jobs.begin(), jobs.end(), std::greater<>());

    // LPT list scheduling onto the least-loaded worker.
    std::vector<double> load(workers_, 0.0);
    for (double j : jobs) {
        auto least = std::min_element(load.begin(), load.end());
        *least += j;
        busy_ += j;
    }
    const double makespan = *std::max_element(load.begin(), load.end());
    elapsed_ += makespan;
    return makespan;
}

double SynthesisCluster::utilization() const
{
    const double capacity = elapsed_ * static_cast<double>(workers_);
    return capacity > 0.0 ? busy_ / capacity : 0.0;
}

void SynthesisCluster::reset()
{
    elapsed_ = 0.0;
    busy_ = 0.0;
}

std::vector<double> replay_schedule(SynthesisCluster& cluster,
                                    std::span<const std::vector<double>> batch_jobs)
{
    std::vector<double> cumulative;
    cumulative.reserve(batch_jobs.size());
    for (const auto& batch : batch_jobs) {
        cluster.run_batch(batch);
        cumulative.push_back(cluster.elapsed_minutes());
    }
    return cumulative;
}

void JobLog::record(double minutes)
{
    std::lock_guard lock{mutex_};
    minutes_.push_back(minutes);
}

std::vector<std::vector<double>> JobLog::batches(std::span<const GenerationStats> history) const
{
    std::lock_guard lock{mutex_};
    std::vector<std::vector<double>> out;
    out.reserve(history.size());
    std::size_t consumed = 0;
    for (const GenerationStats& g : history) {
        out.emplace_back(minutes_.begin() + static_cast<std::ptrdiff_t>(consumed),
                         minutes_.begin() + static_cast<std::ptrdiff_t>(g.distinct_evals));
        consumed = g.distinct_evals;
    }
    return out;
}

}  // namespace nautilus::bench
