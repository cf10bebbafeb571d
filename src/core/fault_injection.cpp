#include "core/fault_injection.hpp"

#include <chrono>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "core/rng.hpp"

namespace nautilus {

void FaultInjectionConfig::validate() const
{
    const auto check_rate = [](double r, const char* name) {
        if (r < 0.0 || r > 1.0)
            throw std::invalid_argument(std::string{"FaultInjectionConfig: "} + name +
                                        " out of [0, 1]");
    };
    check_rate(fail_rate, "fail_rate");
    check_rate(hang_rate, "hang_rate");
    check_rate(flaky_value_rate, "flaky_value_rate");
    if (fail_rate + hang_rate + flaky_value_rate > 1.0)
        throw std::invalid_argument("FaultInjectionConfig: summed rates exceed 1");
    if (hang_seconds < 0.0)
        throw std::invalid_argument("FaultInjectionConfig: hang_seconds < 0");
}

// Tracks how many times each design point has been attempted, so transient
// faults can redraw per attempt.  Keyed by genome key; mutex-protected
// (contention is negligible next to evaluation cost).
struct FaultInjectingEvaluator::AttemptMap {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, std::uint64_t> counts;

    std::uint64_t next_attempt(std::uint64_t key)
    {
        std::lock_guard lock{mutex};
        return ++counts[key];
    }
};

FaultInjectingEvaluator::FaultInjectingEvaluator(EvalFn inner, FaultInjectionConfig config)
    : inner_(std::move(inner)),
      config_(config),
      attempts_(std::make_shared<AttemptMap>())
{
    if (!inner_)
        throw std::invalid_argument("FaultInjectingEvaluator: null inner function");
    config_.validate();
}

EvalFn FaultInjectingEvaluator::as_eval_fn()
{
    return [this](const Genome& g) { return evaluate(g); };
}

Evaluation FaultInjectingEvaluator::evaluate(const Genome& genome)
{
    const std::uint64_t call = calls_.fetch_add(1, std::memory_order_relaxed) + 1;
    const std::uint64_t key = genome.key();
    const std::uint64_t attempt =
        config_.permanent ? 1 : attempts_->next_attempt(key);

    if (config_.fail_on_nth_call != 0 && call == config_.fail_on_nth_call) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        throw InjectedFault{"injected fault: call #" + std::to_string(call)};
    }

    // One deterministic unit draw per (seed, design point, attempt).
    const std::uint64_t h = mix64(hash_combine(hash_combine(config_.seed, key), attempt));
    const double draw = static_cast<double>(h >> 11) * 0x1.0p-53;

    if (draw < config_.hang_rate) {
        std::this_thread::sleep_for(std::chrono::duration<double>{config_.hang_seconds});
        // A stalled-but-surviving job still answers; a watchdog shorter than
        // hang_seconds turns this into a timed_out attempt instead.
        return inner_(genome);
    }
    if (draw < config_.hang_rate + config_.fail_rate) {
        failures_.fetch_add(1, std::memory_order_relaxed);
        throw InjectedFault{"injected fault: design " + std::to_string(key) + " attempt " +
                            std::to_string(attempt)};
    }
    if (draw < config_.hang_rate + config_.fail_rate + config_.flaky_value_rate) {
        flaky_.fetch_add(1, std::memory_order_relaxed);
        Evaluation eval = inner_(genome);
        // Deterministic perturbation in [0.5, 1.5)x -- a tool run that
        // "succeeded" with a wrong number.
        const double factor =
            0.5 + static_cast<double>(mix64(h) >> 11) * 0x1.0p-53;
        eval.value *= factor;
        return eval;
    }
    return inner_(genome);
}

}  // namespace nautilus
