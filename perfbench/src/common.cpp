#include "common.hpp"

#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <stdexcept>

namespace perfbench {

using nautilus::obs::TraceEvent;

std::size_t usable_cpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) != 0) return 1;
    return std::max(1, CPU_COUNT(&set));
}

double percentile(std::vector<double> sample, double p)
{
    if (sample.empty()) return 0.0;
    std::sort(sample.begin(), sample.end());
    const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * sample.size()));
    return sample[std::clamp<std::size_t>(rank, 1, sample.size()) - 1];
}

std::uint64_t SeedRng::next()
{
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

void Report::add(std::string name, double value, std::string unit, std::string note)
{
    if (!std::isfinite(value)) value = 0.0;
    rows_.push_back({std::move(name), value, std::move(unit), std::move(note)});
}

void Report::fail(const std::string& why)
{
    if (failed < 10) std::fprintf(stderr, "perfbench: failed query: %s\n", why.c_str());
    ++failed;
}

void Report::print(std::FILE* out) const
{
    for (const Row& r : rows_)
        std::fprintf(out, "  %-40s %18.9g %-6s %s\n", r.name.c_str(), r.value, r.unit.c_str(),
                     r.note.c_str());
    const double failed_frac =
        attempted == 0 ? 1.0 : static_cast<double>(failed) / static_cast<double>(attempted);
    std::fprintf(out, "  %-40s %18.9g %-6s %zu of %zu queries\n", "failed_frac", failed_frac,
                 "ratio", failed, attempted);

    std::string json = "{\"correct\": ";
    json += failed == 0 && attempted > 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    char buf[64];
    for (std::size_t i = 0; i < rows_.size(); ++i) {
        std::snprintf(buf, sizeof buf, "%.17g", rows_[i].value);
        if (i != 0) json += ", ";
        json += "\"" + rows_[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                rows_[i].unit + "\"}";
    }
    json += "}}";
    std::fprintf(out, "%s\n", json.c_str());
    std::fflush(out);
}

double peak_rss_mb()
{
    // VmHWM, not getrusage's ru_maxrss: the latter keeps the high-water mark
    // of whatever ran in this process before exec (here, the Python parent).
    std::ifstream status{"/proc/self/status"};
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

void add_end_to_end(Report& report, const Window& w)
{
    const std::size_t n = w.latency_s.size();
    const double per_query = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
    std::vector<double> latency_ms;
    latency_ms.reserve(n);
    for (const double s : w.latency_s) latency_ms.push_back(s * 1e3);

    report.add("setup_s", median(w.setup_s), "s",
               "median of " + std::to_string(w.setup_s.size()) + " set-ups");
    std::vector<double> qps;
    std::vector<double> gps;
    for (const Window::Round& r : w.rounds) {
        qps.push_back(r.seconds > 0.0 ? static_cast<double>(r.queries) / r.seconds : 0.0);
        gps.push_back(r.seconds > 0.0 ? static_cast<double>(r.genomes) / r.seconds : 0.0);
    }
    const std::string rounds = "median of " + std::to_string(w.rounds.size()) + " rounds";
    report.add("queries_per_s", median(qps), "1/s", rounds + ", " + std::to_string(n) + " queries");
    report.add("query_p50_ms", median(latency_ms), "ms", "n=" + std::to_string(n));
    // The tail comes from the rounds at or above the median round rate.
    // Every round does the same work, so a slow round was slowed from
    // outside the process; the tail of the others is the program's own.
    const double cut = median(qps);
    std::vector<double> fast_ms;
    std::size_t at = 0;
    for (std::size_t i = 0; i < w.rounds.size(); at += w.rounds[i++].queries)
        if (qps[i] >= cut)
            for (std::size_t k = at; k < at + w.rounds[i].queries; ++k)
                fast_ms.push_back(latency_ms[k]);
    report.add("query_p99_ms", percentile(fast_ms, 99.0), "ms",
               "faster half of the rounds, n=" + std::to_string(fast_ms.size()));
    report.add("genomes_per_s", median(gps), "1/s", rounds);
    report.add("distinct_evals_per_query", static_cast<double>(w.distinct) * per_query, "count");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

void RunTrace::absorb(const TraceEvent& ev)
{
    ++events;
    if (ev.type == "span") {
        const std::string name = ev.string("name").value_or("");
        const double seconds = ev.number("seconds").value_or(0.0);
        if (name == "ga.breed") {
            breed_s += seconds;
            ++breeds;
        }
        else if (name.size() > 4 && name.ends_with(".run")) {
            run_s += seconds;
        }
    }
    else if (ev.type == "eval_wave") {
        const double seconds = ev.number("seconds").value_or(0.0);
        wave_s += seconds;
        wave_slots_s += seconds * ev.number("workers").value_or(1.0);
        busy_s += ev.number("busy_seconds").value_or(0.0);
        wave_fresh += ev.unsigned_int("fresh").value_or(0);
        wave_waits += ev.unsigned_int("waits").value_or(0);
    }
    else if (ev.type == "checkpoint") {
        ++checkpoints;
    }
    else if (ev.type == "run_end") {
        engine = ev.string("engine").value_or("");
        distinct = ev.unsigned_int("distinct_evals").value_or(0);
        calls = ev.unsigned_int("total_calls").value_or(0);
    }
}

void SummarySink::write(const TraceEvent& event)
{
    const std::lock_guard lock{mutex_};
    trace_.absorb(event);
}

RunTrace SummarySink::summary() const
{
    const std::lock_guard lock{mutex_};
    return trace_;
}

RunTrace summarize_trace_file(const std::string& path)
{
    std::ifstream in{path};
    if (!in) throw std::runtime_error("cannot read trace " + path);
    RunTrace trace;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty()) continue;
        const auto ev = nautilus::obs::parse_jsonl_line(line);
        if (!ev) throw std::runtime_error("malformed trace line in " + path);
        trace.absorb(*ev);
    }
    return trace;
}

void ModelProbe::record(Clock::time_point start)
{
    ns_.fetch_add(static_cast<std::uint64_t>(
                      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start)
                          .count()),
                  std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
}

nautilus::EvalFn ModelProbe::wrap(nautilus::EvalFn inner)
{
    return [this, inner = std::move(inner)](const nautilus::Genome& g) {
        const auto start = Clock::now();
        nautilus::Evaluation e = inner(g);
        record(start);
        return e;
    };
}

nautilus::MultiEvalFn ModelProbe::wrap(nautilus::MultiEvalFn inner)
{
    return [this, inner = std::move(inner)](const nautilus::Genome& g) {
        const auto start = Clock::now();
        auto values = inner(g);
        record(start);
        return values;
    };
}

void Layers::add(const RunTrace& run)
{
    ++runs;
    if (run.engine == "ga") {
        ++ga_runs;
        ga_other_s += run.run_s - run.wave_s - run.breed_s;
    }
    else if (run.engine == "nsga2") {
        ++nsga2_runs;
        nsga2_other_s += run.run_s - run.wave_s;
    }
    breed_s += run.breed_s;
    breeds += run.breeds;
    wave_s += run.wave_s;
    wave_slots_s += run.wave_slots_s;
    busy_s += run.busy_s;
    waits += run.wave_waits;
    calls += run.calls;
    distinct += run.distinct;
    events += run.events;
    checkpoints += run.checkpoints;
}

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double per(double total, std::size_t count)
{
    return count == 0 ? 0.0 : total / static_cast<double>(count);
}

std::vector<double> to_ms(const std::vector<double>& seconds)
{
    std::vector<double> ms;
    ms.reserve(seconds.size());
    for (const double s : seconds) ms.push_back(s * 1e3);
    return ms;
}

}  // namespace

void add_per_layer(Report& report, const Layers& l)
{
    const std::string runs = "over " + std::to_string(l.runs) + " traced runs";
    report.add("core.breed.s_per_gen", per(l.breed_s, l.breeds), "s",
               std::to_string(l.breeds) + " ga.breed spans");
    report.add("core.ga.other_s_per_query", per(l.ga_other_s, l.ga_runs), "s",
               "ga.run - eval waves - breed, " + std::to_string(l.ga_runs) + " runs");
    report.add("core.evaluator.calls_per_query", per(static_cast<double>(l.calls), l.runs),
               "count", runs);
    report.add("core.evaluator.hit_ratio",
               l.calls == 0 ? 0.0 : 1.0 - ratio(static_cast<double>(l.distinct), l.calls),
               "ratio", "1 - distinct / calls");
    report.add("core.evaluator.inflight_waits", per(static_cast<double>(l.waits), l.runs),
               "count", "per query; depends on thread timing");
    report.add("core.batch_evaluator.wall_s_per_query", per(l.wave_s, l.runs), "s",
               "summed eval_wave wall time");
    report.add("core.batch_evaluator.busy_frac", ratio(l.busy_s, l.wave_slots_s), "ratio",
               "busy / (wave wall x workers)");
    report.add("core.nsga2.other_s_per_query", per(l.nsga2_other_s, l.nsga2_runs), "s",
               "nsga2.run - eval waves, " + std::to_string(l.nsga2_runs) + " runs");
    report.add("ip.model.calls_per_query", per(static_cast<double>(l.model_calls), l.runs),
               "count");
    report.add("ip.model.us_per_call", ratio(l.model_s * 1e6, static_cast<double>(l.model_calls)),
               "us");
    report.add("ip.model.share", ratio(l.model_s, l.query_slots_s), "ratio",
               "model time / (query wall x workers)");
    const ServiceLayers& sv = l.service;
    report.add("core.eval_store.hits", sv.store_hits, "count", "per round");
    report.add("core.eval_store.misses", sv.store_misses, "count", "per round");
    report.add("core.eval_store.writes", sv.store_writes, "count", "per round");
    report.add("core.eval_store.flushes", sv.store_flushes, "count",
               "per round; depends on thread timing");
    report.add("core.eval_store.hit_ratio",
               ratio(sv.store_hits, sv.store_hits + sv.store_misses), "ratio");
    report.add("core.checkpoint.writes_per_job", sv.checkpoint_writes_per_job, "count");
    report.add("core.checkpoint.s_per_job", sv.checkpoint_s_per_job, "s",
               "run_job with minus without checkpoint_path");
    report.add("obs.trace.events_per_job", sv.trace_events_per_job, "count");
    report.add("obs.trace.s_per_job", sv.trace_s_per_job, "s",
               "run_job with minus without trace_path");
    report.add("serve.scheduler.queue_wait_ms_p50", median(to_ms(sv.queue_wait_s)), "ms",
               "n=" + std::to_string(sv.queue_wait_s.size()));
    report.add("serve.scheduler.queue_wait_ms_p99", percentile(to_ms(sv.queue_wait_s), 99.0),
               "ms", "n=" + std::to_string(sv.queue_wait_s.size()));
    report.add("serve.scheduler.run_ms_p50", median(to_ms(sv.run_s)), "ms",
               "n=" + std::to_string(sv.run_s.size()));
    report.add("obs.http_server.post_ms_p50", median(to_ms(sv.post_s)), "ms",
               "n=" + std::to_string(sv.post_s.size()));
    report.add("obs.http_server.get_ms_p50", median(to_ms(sv.get_s)), "ms",
               "n=" + std::to_string(sv.get_s.size()));
    report.add("obs.http_server.non2xx", static_cast<double>(sv.non2xx), "count");
    const double untraced = median(l.untraced_round_s);
    const double traced = median(l.traced_round_s);
    report.add("trace_overhead_pct", untraced > 0.0 ? (traced / untraced - 1.0) * 100.0 : 0.0, "%",
               "median traced vs untraced round, " + std::to_string(l.traced_round_s.size()) +
                   "/" + std::to_string(l.untraced_round_s.size()) + " rounds");
}

}  // namespace perfbench
