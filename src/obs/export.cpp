#include "obs/export.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <optional>
#include <variant>

#include "obs/format.hpp"
#include "obs/json.hpp"
#include "obs/lineage.hpp"

namespace nautilus::obs {

namespace {

bool valid_name_char(char c, bool first)
{
    if ((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' || c == ':') return true;
    return !first && c >= '0' && c <= '9';
}

// Prometheus sample values: the shared %.17g round-trip rendering
// (obs/format.hpp), so a scraped gauge equals the trace/JSON value
// bit-for-bit.  Non-finite values keep their Prometheus spellings.
std::string format_value(double v)
{
    if (std::isnan(v)) return "NaN";
    if (std::isinf(v)) return v > 0 ? "+Inf" : "-Inf";
    std::string out;
    append_double_17g(out, v);
    return out;
}

void append_type_line(std::string& out, const std::string& name, const char* kind)
{
    out += "# TYPE ";
    out += name;
    out += ' ';
    out += kind;
    out += '\n';
}

bool ends_with(std::string_view s, std::string_view suffix)
{
    return s.size() >= suffix.size() && s.substr(s.size() - suffix.size()) == suffix;
}

// One Chrome trace-event object, sortable by timestamp.
struct ChromeEvent {
    double ts_us = 0.0;
    std::string json;
};

std::string format_us(double us)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.3f", std::max(us, 0.0));
    return buf;
}

// Serialize the scalar fields of a trace event as a Chrome `args` object.
std::string args_json(const TraceEvent& ev)
{
    std::string out = "{";
    bool first = true;
    for (const auto& [key, value] : ev.fields) {
        std::string rendered;
        if (const bool* b = std::get_if<bool>(&value)) rendered = *b ? "true" : "false";
        else if (const std::int64_t* i = std::get_if<std::int64_t>(&value))
            rendered = std::to_string(*i);
        else if (const std::uint64_t* u = std::get_if<std::uint64_t>(&value))
            rendered = std::to_string(*u);
        else if (const double* d = std::get_if<double>(&value))
            rendered = std::isfinite(*d) ? format_value(*d) : "null";
        else if (const std::string* s = std::get_if<std::string>(&value))
            json::append_string(rendered, *s);
        else {
            continue;  // double arrays stay in the JSONL source
        }
        if (!first) out += ',';
        first = false;
        json::append_string(out, key);
        out += ':';
        out += rendered;
    }
    out += '}';
    return out;
}

ChromeEvent complete_event(std::string_view name, double end_t, double seconds, int tid,
                           const std::string& args)
{
    const double dur_us = std::max(seconds, 0.0) * 1e6;
    const double ts_us = std::max(end_t * 1e6 - dur_us, 0.0);
    ChromeEvent ev;
    ev.ts_us = ts_us;
    ev.json = "{\"name\":";
    json::append_string(ev.json, name);
    ev.json += ",\"ph\":\"X\",\"pid\":1,\"tid\":" + std::to_string(tid) +
               ",\"ts\":" + format_us(ts_us) + ",\"dur\":" + format_us(dur_us) +
               ",\"args\":" + args + '}';
    return ev;
}

ChromeEvent counter_event(std::string_view name, double t, double value)
{
    ChromeEvent ev;
    ev.ts_us = std::max(t * 1e6, 0.0);
    ev.json = "{\"name\":";
    json::append_string(ev.json, name);
    ev.json += ",\"ph\":\"C\",\"pid\":1,\"tid\":1,\"ts\":" + format_us(ev.ts_us) +
               ",\"args\":{\"value\":" + format_value(value) + "}}";
    return ev;
}

ChromeEvent instant_event(std::string_view name, double t, const std::string& args)
{
    ChromeEvent ev;
    ev.ts_us = std::max(t * 1e6, 0.0);
    ev.json = "{\"name\":";
    json::append_string(ev.json, name);
    ev.json += ",\"ph\":\"i\",\"s\":\"p\",\"pid\":1,\"tid\":1,\"ts\":" +
               format_us(ev.ts_us) + ",\"args\":" + args + '}';
    return ev;
}

}  // namespace

std::string sanitize_metric_name(std::string_view name)
{
    if (name.empty()) return "_";
    std::string out;
    out.reserve(name.size() + 1);
    if (!valid_name_char(name.front(), /*first=*/true)) out += '_';
    for (const char c : name) out += valid_name_char(c, /*first=*/false) ? c : '_';
    return out;
}

std::string to_prometheus(const MetricsSnapshot& snap, const PrometheusOptions& options)
{
    std::string out;
    for (const auto& [name, value] : snap.counters) {
        std::string full = options.prefix + sanitize_metric_name(name);
        if (!ends_with(full, "_total")) full += "_total";
        append_type_line(out, full, "counter");
        out += full;
        out += ' ';
        out += std::to_string(value);
        out += '\n';
    }
    for (const auto& [name, value] : snap.gauges) {
        const std::string full = options.prefix + sanitize_metric_name(name);
        append_type_line(out, full, "gauge");
        out += full;
        out += ' ';
        out += format_value(value);
        out += '\n';
    }
    for (const MetricsSnapshot::HistogramRow& h : snap.histograms) {
        const std::string full = options.prefix + sanitize_metric_name(h.name);
        append_type_line(out, full, "histogram");
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < h.counts.size(); ++i) {
            cumulative += h.counts[i];
            out += full;
            out += "_bucket{le=\"";
            out += i < h.bounds.size() ? format_value(h.bounds[i]) : "+Inf";
            out += "\"} ";
            out += std::to_string(cumulative);
            out += '\n';
        }
        out += full;
        out += "_sum ";
        out += format_value(h.sum);
        out += '\n';
        out += full;
        out += "_count ";
        out += std::to_string(h.count);
        out += '\n';
    }
    return out;
}

void append_progress_exposition(std::string& out, const ProgressSnapshot& snap,
                                const PrometheusOptions& options)
{
    const std::string p = options.prefix + "progress_";
    const auto gauge = [&out](const std::string& name, double value) {
        append_type_line(out, name, "gauge");
        out += name;
        out += ' ';
        out += format_value(value);
        out += '\n';
    };
    gauge(p + "running", snap.running ? 1.0 : 0.0);
    gauge(p + "runs_started", static_cast<double>(snap.runs_started));
    gauge(p + "runs_completed", static_cast<double>(snap.runs_completed));
    gauge(p + "generation", static_cast<double>(snap.units_done));
    gauge(p + "generations_total", static_cast<double>(snap.units_total));
    if (snap.have_best) gauge(p + "best", snap.best);
    gauge(p + "distinct_evals", static_cast<double>(snap.distinct_evals));
    gauge(p + "eval_calls", static_cast<double>(snap.eval_calls));
    gauge(p + "cache_hits", static_cast<double>(snap.cache_hits));
    gauge(p + "cache_hit_rate", snap.cache_hit_rate());
    gauge(p + "eval_seconds", snap.eval_seconds);
    gauge(p + "elapsed_seconds", snap.elapsed_seconds);
    gauge(p + "evals_per_second", snap.evals_per_second());
    if (const std::optional<double> eta = snap.eta_seconds())
        gauge(p + "eta_seconds", *eta);
}

void append_lineage_exposition(std::string& out, const LineageCounters& counters,
                               const PrometheusOptions& options)
{
    const std::string p = options.prefix + "lineage_";
    const auto gauge = [&out](const std::string& name, double value) {
        append_type_line(out, name, "gauge");
        out += name;
        out += ' ';
        out += format_value(value);
        out += '\n';
    };
    const auto u64 = [&gauge](const std::string& name, std::uint64_t value) {
        gauge(name, static_cast<double>(value));
    };
    for (const LineageCounterField& f : k_lineage_counter_fields)
        u64(p + f.name, counters.*f.member);
    if (!counters.have_last) return;
    for (const LineageSummaryField& f : k_lineage_summary_fields)
        if (f.gauge && f.present(counters.last))
            u64(p + (f.winner ? "" : "last_") + f.name, counters.last.*f.member);
}

std::string chrome_trace_json(const std::vector<TraceEvent>& events)
{
    std::vector<ChromeEvent> out_events;
    out_events.reserve(events.size());
    for (const TraceEvent& ev : events) {
        if (ev.type == "span") {
            const std::string name = ev.string("name").value_or("span");
            const double seconds = ev.number("seconds").value_or(0.0);
            out_events.push_back(complete_event(name, ev.t, seconds, 1, args_json(ev)));
        }
        else if (ev.type == "eval_wave") {
            const double seconds = ev.number("seconds").value_or(0.0);
            out_events.push_back(
                complete_event("eval_wave", ev.t, seconds, 2, args_json(ev)));
        }
        else if (ev.type == "generation") {
            if (const std::optional<double> best = ev.number("best_so_far"))
                if (std::isfinite(*best))
                    out_events.push_back(counter_event("best_so_far", ev.t, *best));
            if (const std::optional<double> div = ev.number("diversity"))
                if (std::isfinite(*div))
                    out_events.push_back(counter_event("diversity", ev.t, *div));
            if (const std::optional<double> distinct = ev.number("distinct_total"))
                out_events.push_back(counter_event("distinct_evals", ev.t, *distinct));
            out_events.push_back(instant_event("generation", ev.t, args_json(ev)));
        }
        else {
            // run_start, run_end, breed, checkpoint, eval_fault, quarantine,
            // hint_estimate, ... all become annotated instants.
            out_events.push_back(instant_event(ev.type, ev.t, args_json(ev)));
        }
    }
    std::stable_sort(out_events.begin(), out_events.end(),
                     [](const ChromeEvent& a, const ChromeEvent& b) {
                         return a.ts_us < b.ts_us;
                     });
    std::string out = "[";
    for (std::size_t i = 0; i < out_events.size(); ++i) {
        if (i > 0) out += ",\n";
        out += out_events[i].json;
    }
    out += "]\n";
    return out;
}

}  // namespace nautilus::obs
