#include "obs/progress.hpp"

#include <cmath>
#include <cstdio>
#include <iostream>
#include <ostream>

#include "obs/format.hpp"
#include "obs/json.hpp"

namespace nautilus::obs {

namespace {

// Relaxed add for atomic<double> (no fetch_add before C++20 on all stdlibs).
void atomic_add(std::atomic<double>& target, double delta)
{
    double old = target.load(std::memory_order_relaxed);
    while (!target.compare_exchange_weak(old, old + delta, std::memory_order_relaxed)) {
    }
}

}  // namespace

double ProgressSnapshot::evals_per_second() const
{
    const double t = run_elapsed_seconds > 0.0 ? run_elapsed_seconds : elapsed_seconds;
    if (t <= 0.0 || distinct_evals == 0) return 0.0;
    return static_cast<double>(distinct_evals) / t;
}

std::optional<double> ProgressSnapshot::eta_seconds() const
{
    if (!running || units_total == 0 || units_done >= units_total) return std::nullopt;
    const std::uint64_t done_here = units_done > units_at_start
                                        ? units_done - units_at_start
                                        : 0;
    if (done_here == 0 || run_elapsed_seconds <= 0.0) return std::nullopt;
    const double per_unit = run_elapsed_seconds / static_cast<double>(done_here);
    return per_unit * static_cast<double>(units_total - units_done);
}

std::string to_json(const ProgressSnapshot& snap)
{
    std::string out = "{\"engine\":";
    json::append_string(out, snap.engine);
    out += ",\"running\":";
    out += snap.running ? "true" : "false";
    const auto field_u64 = [&out](const char* key, std::uint64_t v) {
        out += ",\"";
        out += key;
        out += "\":";
        out += std::to_string(v);
    };
    field_u64("runs_started", snap.runs_started);
    field_u64("runs_completed", snap.runs_completed);
    // "generation" keeps the common-case reading; for budgeted engines the
    // unit is distinct evaluations (documented in DESIGN.md section 12).
    field_u64("generation", snap.units_done);
    field_u64("generations_total", snap.units_total);
    field_u64("generations_at_start", snap.units_at_start);
    out += ",\"best\":";
    if (snap.have_best) append_json_double(out, snap.best);
    else out += "null";
    field_u64("distinct_evals", snap.distinct_evals);
    field_u64("eval_calls", snap.eval_calls);
    field_u64("cache_hits", snap.cache_hits);
    out += ",\"cache_hit_rate\":";
    append_json_double(out, snap.cache_hit_rate());
    out += ",\"eval_seconds\":";
    append_json_double(out, snap.eval_seconds);
    out += ",\"elapsed_seconds\":";
    append_json_double(out, snap.elapsed_seconds);
    out += ",\"run_elapsed_seconds\":";
    append_json_double(out, snap.run_elapsed_seconds);
    out += ",\"evals_per_second\":";
    append_json_double(out, snap.evals_per_second());
    out += ",\"eta_seconds\":";
    if (const std::optional<double> eta = snap.eta_seconds()) append_json_double(out, *eta);
    else out += "null";
    out += '}';
    return out;
}

std::string format_progress_line(const ProgressSnapshot& snap)
{
    char buf[256];
    std::string line = snap.engine.empty() ? std::string{"-"} : snap.engine;
    std::snprintf(buf, sizeof buf, " gen %llu/%llu",
                  static_cast<unsigned long long>(snap.units_done),
                  static_cast<unsigned long long>(snap.units_total));
    line += buf;
    if (snap.have_best) {
        std::snprintf(buf, sizeof buf, "  best %.4f", snap.best);
        line += buf;
    }
    std::snprintf(buf, sizeof buf, "  evals %llu (%.1f/s, %.1f%% cached)",
                  static_cast<unsigned long long>(snap.distinct_evals),
                  snap.evals_per_second(), 100.0 * snap.cache_hit_rate());
    line += buf;
    if (const std::optional<double> eta = snap.eta_seconds()) {
        std::snprintf(buf, sizeof buf, "  eta %.0fs", *eta);
        line += buf;
    }
    else if (!snap.running && snap.runs_started > 0) {
        line += "  done";
    }
    return line;
}

ProgressTracker::ProgressTracker() : created_(Clock::now()), run_start_(created_) {}

void ProgressTracker::on_run_start(std::string_view engine, std::uint64_t units_total,
                                   std::uint64_t units_at_start)
{
    {
        std::lock_guard lock{mutex_};
        engine_.assign(engine);
        run_start_ = Clock::now();
    }
    units_total_.store(units_total, std::memory_order_relaxed);
    units_at_start_.store(units_at_start, std::memory_order_relaxed);
    units_done_.store(units_at_start, std::memory_order_relaxed);
    runs_started_.fetch_add(1, std::memory_order_relaxed);
    running_.store(true, std::memory_order_relaxed);
}

void ProgressTracker::on_units(std::uint64_t units_done)
{
    units_done_.store(units_done, std::memory_order_relaxed);
}

void ProgressTracker::on_best(double best)
{
    best_.store(best, std::memory_order_relaxed);
    have_best_.store(true, std::memory_order_relaxed);
}

void ProgressTracker::on_run_end()
{
    runs_completed_.fetch_add(1, std::memory_order_relaxed);
    running_.store(false, std::memory_order_relaxed);
}

void ProgressTracker::on_wave(std::uint64_t items, std::uint64_t fresh, double seconds)
{
    calls_.fetch_add(items, std::memory_order_relaxed);
    distinct_.fetch_add(fresh, std::memory_order_relaxed);
    hits_.fetch_add(items - fresh, std::memory_order_relaxed);
    atomic_add(eval_seconds_, seconds);
}

ProgressSnapshot ProgressTracker::snapshot() const
{
    ProgressSnapshot snap;
    Clock::time_point run_start;
    {
        std::lock_guard lock{mutex_};
        snap.engine = engine_;
        run_start = run_start_;
    }
    const Clock::time_point now = Clock::now();
    snap.elapsed_seconds = std::chrono::duration<double>(now - created_).count();
    snap.run_elapsed_seconds = std::chrono::duration<double>(now - run_start).count();
    snap.running = running_.load(std::memory_order_relaxed);
    snap.runs_started = runs_started_.load(std::memory_order_relaxed);
    snap.runs_completed = runs_completed_.load(std::memory_order_relaxed);
    snap.units_done = units_done_.load(std::memory_order_relaxed);
    snap.units_total = units_total_.load(std::memory_order_relaxed);
    snap.units_at_start = units_at_start_.load(std::memory_order_relaxed);
    snap.have_best = have_best_.load(std::memory_order_relaxed);
    snap.best = best_.load(std::memory_order_relaxed);
    snap.distinct_evals = distinct_.load(std::memory_order_relaxed);
    snap.eval_calls = calls_.load(std::memory_order_relaxed);
    snap.cache_hits = hits_.load(std::memory_order_relaxed);
    snap.eval_seconds = eval_seconds_.load(std::memory_order_relaxed);
    return snap;
}

ProgressHeartbeat::ProgressHeartbeat(std::shared_ptr<ProgressTracker> tracker,
                                     double interval_seconds, std::ostream* out)
    : tracker_(std::move(tracker)),
      interval_seconds_(interval_seconds > 0.0 ? interval_seconds : 5.0),
      out_(out != nullptr ? out : &std::cerr)
{
    if (tracker_ != nullptr) thread_ = std::thread{[this] { loop(); }};
}

ProgressHeartbeat::~ProgressHeartbeat()
{
    stop();
}

void ProgressHeartbeat::stop()
{
    {
        std::lock_guard lock{mutex_};
        if (stopping_) return;
        stopping_ = true;
    }
    wake_.notify_all();
    if (thread_.joinable()) thread_.join();
}

void ProgressHeartbeat::loop()
{
    std::unique_lock lock{mutex_};
    for (;;) {
        if (wake_.wait_for(lock, std::chrono::duration<double>(interval_seconds_),
                           [this] { return stopping_; }))
            return;
        lock.unlock();
        const ProgressSnapshot snap = tracker_->snapshot();
        if (snap.runs_started > 0)
            (*out_) << "[nautilus] " << format_progress_line(snap) << '\n' << std::flush;
        lock.lock();
    }
}

}  // namespace nautilus::obs
