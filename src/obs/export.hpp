#pragma once
// Standard-format exporters for the obs layer.
//
// Two consumers, two formats:
//   * Prometheus text exposition (v0.0.4) of a MetricsSnapshot, served by
//     ObsHttpServer at /metrics and scrapeable by any Prometheus-compatible
//     collector.  Names are sanitized to the Prometheus charset, counters
//     get the conventional `_total` suffix, histogram buckets are emitted
//     cumulatively with an explicit `+Inf` bucket plus `_count`/`_sum`
//     series, and output order is deterministic (sorted by name within each
//     kind) so expositions diff cleanly.
//   * Chrome trace-event JSON built from the JSONL trace, loadable in
//     Perfetto / chrome://tracing (`nautilus_trace inspect --chrome OUT`).
//     Spans and evaluation waves become complete ("X") events, generations
//     become counter ("C") tracks, everything else becomes instants.

#include <string>
#include <string_view>
#include <vector>

#include "obs/lineage.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/trace.hpp"

namespace nautilus::obs {

// Map an instrument name onto the Prometheus metric-name charset
// [a-zA-Z_:][a-zA-Z0-9_:]*: every other character becomes '_', and a
// leading digit is prefixed with '_'.  Empty input becomes "_".
std::string sanitize_metric_name(std::string_view name);

struct PrometheusOptions {
    // Prepended to every (sanitized) instrument name.
    std::string prefix = "nautilus_";
};

// Full exposition of a snapshot: counters (suffixed `_total` unless already
// so named), gauges, then histograms, each preceded by a `# TYPE` line.
std::string to_prometheus(const MetricsSnapshot& snap,
                          const PrometheusOptions& options = {});

// Append the run-progress gauges (`<prefix>progress_*`) to an exposition,
// so one /metrics scrape carries both pipeline counters and live progress.
void append_progress_exposition(std::string& out, const ProgressSnapshot& snap,
                                const PrometheusOptions& options = {});

// Append the lineage gauges (`<prefix>lineage_*`) to an exposition:
// cumulative birth/survival/improvement and per-class gene counters, plus
// the last finished run's hint-attribution summary (winner gene classes).
void append_lineage_exposition(std::string& out, const LineageCounters& counters,
                               const PrometheusOptions& options = {});

// Convert parsed trace events into a Chrome trace-event JSON array.  All
// events land in pid 1; spans on tid 1 (nested by containment), evaluation
// waves on tid 2.  Timestamps are microseconds, clamped to >= 0, and the
// array is sorted by ts so `ts`/`dur` are monotonically consistent.
std::string chrome_trace_json(const std::vector<TraceEvent>& events);

}  // namespace nautilus::obs
