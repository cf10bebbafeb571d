#pragma once
// Deterministic fault injection for evaluation functions.
//
// FaultInjectingEvaluator decorates an EvalFn with seeded chaos: a fraction
// of attempts throw (crashed CAD tool), stall (hung job -- exercised against
// the watchdog timeout), or return a perturbed value (flaky tool run).  It is
// both the workhorse of the fault-tolerance test harness and the CLI's
// `--chaos-*` mode.
//
// Determinism contract: whether attempt k on design point g misbehaves is a
// pure hash of (seed, g.key(), k) -- *not* of global call order -- so runs
// are bit-for-bit reproducible at any worker count and the retry ladder sees
// the same fault sequence every time.  The one exception is
// `fail_on_nth_call`, which trips on a global call counter and is meant for
// single-threaded regression tests ("the 7th evaluation throws").

#include <atomic>
#include <cstdint>
#include <memory>
#include <stdexcept>

#include "core/evaluator.hpp"
#include "core/fitness.hpp"
#include "core/genome.hpp"

namespace nautilus {

// Thrown by injected failures so tests can tell them from genuine errors.
struct InjectedFault : std::runtime_error {
    using std::runtime_error::runtime_error;
};

struct FaultInjectionConfig {
    double fail_rate = 0.0;         // P(attempt throws InjectedFault)
    double hang_rate = 0.0;         // P(attempt stalls for hang_seconds first)
    double flaky_value_rate = 0.0;  // P(attempt returns a perturbed value)
    double hang_seconds = 0.05;     // stall length; set the watchdog below it
    std::uint64_t fail_on_nth_call = 0;  // 1-based global call index; 0 = off
    std::uint64_t seed = 0xc4a05;
    // false: faults are transient (a retry of the same design point redraws
    // with the attempt index, so retries usually recover).  true: the draw
    // ignores the attempt index, so an unlucky design point fails every
    // attempt -- the path that exercises quarantine.
    bool permanent = false;

    void validate() const;  // throws std::invalid_argument on bad settings
};

class FaultInjectingEvaluator {
public:
    FaultInjectingEvaluator(EvalFn inner, FaultInjectionConfig config);

    // Decorated evaluation function.  Captures `this`; the injector must
    // outlive every engine using the returned function.
    EvalFn as_eval_fn();

    // Evaluate one design point, possibly misbehaving first.
    Evaluation evaluate(const Genome& genome);

    std::uint64_t injected_failures() const
    {
        return failures_.load(std::memory_order_relaxed);
    }
    std::uint64_t injected_flaky() const { return flaky_.load(std::memory_order_relaxed); }

private:
    EvalFn inner_;
    FaultInjectionConfig config_;
    std::atomic<std::uint64_t> calls_{0};
    std::atomic<std::uint64_t> failures_{0};
    std::atomic<std::uint64_t> flaky_{0};

    struct AttemptMap;  // per-genome attempt indices, mutex-protected
    std::shared_ptr<AttemptMap> attempts_;
};

}  // namespace nautilus
