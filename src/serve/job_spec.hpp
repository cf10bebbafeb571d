#pragma once
// Job specifications for the multi-tenant search server.
//
// A job spec is a flat JSON object describing one search: which engine,
// which IP space, which metric(s) and direction, the guidance level, the
// budget (generations for the evolutionary engines, distinct evaluations
// for the budgeted ones), the seed and the requested worker cap.  The same
// parsed spec drives both `POST /jobs` and `nautilus_cli --job`, so a
// server-side run is the same engine configuration as a standalone run by
// construction -- the foundation of the determinism gate (DESIGN.md §12).
//
//   {"engine":"ga","ip":"router","metric":"freq_mhz","guidance":"strong",
//    "generations":12,"seed":7,"workers":4}
//
// Parsing is strict: unknown fields, wrong budget axes and out-of-range
// values are rejected with actionable messages (the HTTP layer maps them to
// 400).  Guidance "estimated" is deliberately not accepted -- hint
// estimation samples the space and would draw extra RNG, breaking the
// spec-determines-result contract.

#include <cstdint>
#include <string>
#include <string_view>

namespace nautilus::serve {

struct JobSpec {
    std::string engine;             // ga | nsga2 | random | sa | hc
    std::string ip = "router";      // router | fft | network
    std::string metric;             // resolved to the IP default when omitted
    std::string metric2;            // second objective (nsga2 only)
    std::string direction;          // resolved to the metric default: min | max
    std::string guidance = "none";  // none | weak | strong
    std::size_t generations = 0;    // budget for ga/nsga2
    std::size_t evals = 0;          // distinct-eval budget for random/sa/hc
    std::size_t population = 0;     // 0 = engine default (ga/nsga2 only)
    std::uint64_t seed = 1;
    std::size_t workers = 1;        // requested worker cap (the scheduler may
                                    // grant fewer; results are identical)

    bool evolutionary() const { return engine == "ga" || engine == "nsga2"; }
};

// The metric a query on `ip` optimizes when it names none.
const char* default_metric(const std::string& ip);

// Parse and validate one spec.  Throws std::invalid_argument with an
// actionable message on malformed JSON, unknown fields/engines/metrics,
// missing budgets or non-positive worker counts.  Defaults (metric,
// direction) are resolved before returning, so the result is canonical.
JobSpec parse_job_spec(std::string_view json);

// Deterministic re-rendering of a parsed spec: fixed key order, resolved
// defaults, %-free integer formatting.  Two specs with the same canonical
// JSON are the same job.
std::string canonical_spec_json(const JobSpec& spec);

// FNV-1a 64 over the canonical JSON; keys checkpoint files so a cancelled
// job resumes when the identical spec is resubmitted.
std::uint64_t spec_fingerprint(const JobSpec& spec);

// "<jobs_dir>/spec-<fingerprint hex>.ckpt"
std::string checkpoint_file(const std::string& jobs_dir, const JobSpec& spec);

// The codec's string escaping (obs::json::escaped), without the quotes;
// used by the scheduler's status and error rendering.
std::string json_escape(std::string_view text);

}  // namespace nautilus::serve
