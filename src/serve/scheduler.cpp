#include "serve/scheduler.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <exception>
#include <fstream>
#include <stdexcept>
#include <utility>

#include "obs/format.hpp"

namespace nautilus::serve {

namespace {

bool terminal(JobState s)
{
    return s == JobState::done || s == JobState::cancelled || s == JobState::failed;
}

// "/jobs/<id>" -> id; nullopt for anything that is not all digits.
std::optional<std::uint64_t> parse_job_id(std::string_view path)
{
    const std::string_view tail = path.substr(6);  // past "/jobs/"
    if (tail.empty() || tail.size() > 19) return std::nullopt;
    std::uint64_t id = 0;
    for (const char c : tail) {
        if (c < '0' || c > '9') return std::nullopt;
        id = id * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return id;
}

obs::HttpResponse json_response(int status, std::string body)
{
    return {status, "application/json", std::move(body), {}};
}

obs::HttpResponse error_response(int status, std::string_view message,
                                 std::string allow = {})
{
    std::string body = "{\"error\":\"";
    body += json_escape(message);
    body += "\"}\n";
    return {status, "application/json", std::move(body), std::move(allow)};
}

}  // namespace

std::string_view job_state_name(JobState state)
{
    switch (state) {
    case JobState::queued: return "queued";
    case JobState::running: return "running";
    case JobState::done: return "done";
    case JobState::cancelled: return "cancelled";
    case JobState::failed: return "failed";
    }
    return "unknown";
}

JobScheduler::JobScheduler(SchedulerConfig config) : config_(std::move(config))
{
    if (config_.worker_capacity == 0) config_.worker_capacity = 1;
    free_slots_ = config_.worker_capacity;
    if (config_.metrics)
        config_.metrics->gauge("jobs.capacity")
            .set(static_cast<double>(config_.worker_capacity));
}

JobScheduler::~JobScheduler()
{
    std::vector<std::thread> threads;
    {
        const std::lock_guard lock{mutex_};
        stopping_ = true;
        for (auto& [id, job] : jobs_) {
            job->cancel->store(true, std::memory_order_release);
            if (job->thread.joinable()) threads.push_back(std::move(job->thread));
        }
    }
    cv_.notify_all();
    for (std::thread& t : threads) t.join();
}

SubmitResult JobScheduler::submit(std::string_view spec_json, std::uint64_t request_id)
{
    JobSpec spec;
    try {
        spec = parse_job_spec(spec_json);
    }
    catch (const std::invalid_argument& e) {
        if (config_.metrics) config_.metrics->counter("jobs.rejected").add();
        if (config_.log && config_.log->enabled(obs::LogLevel::warn)) {
            obs::TraceEvent ev{"job"};
            ev.add("phase", "rejected");
            if (request_id != 0) ev.add("request_id", obs::FieldValue{request_id});
            ev.add("detail", obs::FieldValue{std::string{e.what()}});
            config_.log->log(obs::LogLevel::warn, std::move(ev));
        }
        return {0, 400, e.what()};
    }

    std::unique_lock lock{mutex_};
    if (stopping_) return {0, 503, "scheduler is shutting down"};

    const std::uint64_t fingerprint = spec_fingerprint(spec);
    for (const auto& [id, job] : jobs_) {
        if (job->fingerprint == fingerprint && !terminal(job->state)) {
            if (config_.metrics) config_.metrics->counter("jobs.rejected").add();
            return {0, 409,
                    "identical spec is already active as job " + std::to_string(id)};
        }
    }

    auto job = std::make_unique<Job>();
    job->id = next_id_++;
    job->spec = std::move(spec);
    job->canonical = canonical_spec_json(job->spec);
    job->fingerprint = fingerprint;
    // The grant depends only on the spec and the configured capacity, never
    // on current load: the worker count (and hence the trace) a job runs
    // with is the same whatever else is queued.
    job->grant = std::min(job->spec.workers, config_.worker_capacity);
    job->cancel = std::make_shared<std::atomic<bool>>(false);
    job->progress = std::make_shared<obs::ProgressTracker>();
    job->request_id = request_id;
    job->submitted_at = std::chrono::steady_clock::now();

    Job& ref = *job;
    const std::uint64_t id = job->id;
    jobs_.emplace(id, std::move(job));
    queue_.push_back(id);
    if (config_.metrics) {
        config_.metrics->counter("jobs.submitted").add();
        config_.metrics->gauge("jobs.queued").set(static_cast<double>(queue_.size()));
    }
    log_job(obs::LogLevel::info, ref, "submitted");
    ref.thread = std::thread{[this, &ref] { job_main(ref); }};
    lock.unlock();
    cv_.notify_all();

    return {id, 201, {}};
}

void JobScheduler::job_main(Job& job)
{
    {
        std::unique_lock lock{mutex_};
        cv_.wait(lock, [this, &job] {
            return stopping_ || job.cancel->load(std::memory_order_acquire) ||
                   (!queue_.empty() && queue_.front() == job.id &&
                    free_slots_ >= job.grant);
        });
        const auto pos = std::find(queue_.begin(), queue_.end(), job.id);
        if (pos != queue_.end()) queue_.erase(pos);
        if (stopping_ || job.cancel->load(std::memory_order_acquire)) {
            // Cancelled while queued: nothing ran, nothing to checkpoint.
            job.state = JobState::cancelled;
            job.queue_wait_seconds = std::chrono::duration<double>(
                                         std::chrono::steady_clock::now() - job.submitted_at)
                                         .count();
            if (config_.metrics) {
                config_.metrics->counter("jobs.cancelled").add();
                config_.metrics->gauge("jobs.queued")
                    .set(static_cast<double>(queue_.size()));
            }
            log_job(obs::LogLevel::info, job, "cancelled_queued");
            lock.unlock();
            cv_.notify_all();
            return;
        }
        free_slots_ -= job.grant;
        job.state = JobState::running;
        job.admitted = true;
        job.admitted_at = std::chrono::steady_clock::now();
        job.queue_wait_seconds =
            std::chrono::duration<double>(job.admitted_at - job.submitted_at).count();
        admission_order_.push_back(job.id);
        // Decide "resumed" while still holding the lock: status_json reads it
        // under mutex_, and 409-on-active-duplicate guarantees no other job
        // can touch this spec's checkpoint between admission and run start.
        if (job.spec.evolutionary())
            job.resumed =
                std::ifstream{checkpoint_file(config_.jobs_dir, job.spec)}.good();
        publish_pool_gauges();
        log_job(obs::LogLevel::info, job, "admitted");
    }
    cv_.notify_all();

    JobRunInputs inputs;
    inputs.workers = job.grant;
    inputs.store = config_.store;
    inputs.trace_path = trace_path_for(job.id);
    if (job.spec.evolutionary())
        inputs.checkpoint_path = checkpoint_file(config_.jobs_dir, job.spec);
    inputs.cancel = job.cancel;
    inputs.obs.metrics = config_.metrics;
    inputs.obs.progress = job.progress;
    inputs.obs.lineage = lineage_;
    inputs.job_id = job.id;
    inputs.request_id = job.request_id;
    inputs.queue_wait_seconds = job.queue_wait_seconds;

    const auto stop_clock = [&job] {
        job.run_seconds =
            std::chrono::duration<double>(std::chrono::steady_clock::now() - job.admitted_at)
                .count();
    };
    try {
        const JobOutcome outcome = run_job(job.spec, inputs);
        const std::lock_guard lock{mutex_};
        stop_clock();
        job.outcome = outcome;
        if (outcome.halted) {
            // Stopped at a checkpointed boundary; the checkpoint stays on
            // disk so a resubmitted identical spec resumes bit-exactly.
            finish(job, JobState::cancelled, {});
        }
        else {
            // A finished job's checkpoint must not linger: a later fresh
            // submission of the same spec should start from generation zero,
            // not "resume" past the end and fail the determinism diff.
            if (!inputs.checkpoint_path.empty())
                std::remove(inputs.checkpoint_path.c_str());
            finish(job, JobState::done, {});
        }
    }
    catch (const std::exception& e) {
        const std::lock_guard lock{mutex_};
        stop_clock();
        finish(job, JobState::failed, e.what());
    }
    cv_.notify_all();
}

// Caller holds mutex_.
void JobScheduler::finish(Job& job, JobState state, std::string error)
{
    job.state = state;
    job.error = std::move(error);
    free_slots_ += job.grant;
    if (config_.metrics) {
        const char* name = state == JobState::done        ? "jobs.completed"
                           : state == JobState::cancelled ? "jobs.cancelled"
                                                          : "jobs.failed";
        config_.metrics->counter(name).add();
        publish_pool_gauges();
        // Per-job resource accounting (nautilus_job_*): how long the job
        // waited, how long it ran, and what its evaluations cost.
        config_.metrics
            ->histogram("job.queue_wait_seconds", obs::Histogram::seconds_buckets())
            .observe(job.queue_wait_seconds);
        config_.metrics->histogram("job.run_seconds", obs::Histogram::seconds_buckets())
            .observe(job.run_seconds);
        config_.metrics->counter("job.granted_workers").add(job.grant);
        const JobOutcome& r = job.outcome;
        config_.metrics->counter("job.fresh_evals")
            .add(r.distinct_evals - std::min(r.store_hits, r.distinct_evals));
        config_.metrics->counter("job.store_hits").add(r.store_hits);
        config_.metrics->counter("job.retries").add(r.fault.retries);
    }
    log_job(state == JobState::failed ? obs::LogLevel::error : obs::LogLevel::info, job,
            "finished", job.error);
}

// Caller holds mutex_.
void JobScheduler::publish_pool_gauges() const
{
    if (!config_.metrics) return;
    std::size_t running = 0;
    for (const auto& [id, j] : jobs_)
        if (j->state == JobState::running) ++running;
    config_.metrics->gauge("jobs.queued").set(static_cast<double>(queue_.size()));
    config_.metrics->gauge("jobs.running").set(static_cast<double>(running));
    config_.metrics->gauge("jobs.workers_busy")
        .set(static_cast<double>(config_.worker_capacity - free_slots_));
}

// Safe with or without mutex_ held as long as `job`'s mutable fields are
// stable (callers log from under the lock, or before the job thread can
// run); the Logger itself is internally synchronized.
void JobScheduler::log_job(obs::LogLevel level, const Job& job, std::string_view phase,
                           std::string_view detail) const
{
    if (!config_.log || !config_.log->enabled(level)) return;
    obs::TraceEvent ev{"job"};
    ev.add("phase", obs::FieldValue{std::string{phase}})
        .add("job_id", obs::FieldValue{job.id});
    if (job.request_id != 0) ev.add("request_id", obs::FieldValue{job.request_id});
    ev.add("engine", obs::FieldValue{job.spec.engine})
        .add("state", obs::FieldValue{std::string{job_state_name(job.state)}});
    if (job.admitted) {
        ev.add("workers", job.grant)
            .add("queue_wait_seconds", obs::FieldValue{job.queue_wait_seconds});
        if (job.state != JobState::running)
            ev.add("run_seconds", obs::FieldValue{job.run_seconds});
    }
    if (!detail.empty()) ev.add("detail", obs::FieldValue{std::string{detail}});
    config_.log->log(level, std::move(ev));
}

bool JobScheduler::cancel(std::uint64_t id)
{
    const std::lock_guard lock{mutex_};
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return false;
    it->second->cancel->store(true, std::memory_order_release);
    cv_.notify_all();
    return true;
}

JobState JobScheduler::state(std::uint64_t id) const
{
    const std::lock_guard lock{mutex_};
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return JobState::failed;
    return it->second->state;
}

bool JobScheduler::wait(std::uint64_t id, double timeout_seconds) const
{
    std::unique_lock lock{mutex_};
    return cv_.wait_for(lock, std::chrono::duration<double>{timeout_seconds},
                        [this, id] {
                            const auto it = jobs_.find(id);
                            return it == jobs_.end() || terminal(it->second->state);
                        });
}

std::string JobScheduler::trace_path_for(std::uint64_t id) const
{
    return config_.jobs_dir + "/job-" + std::to_string(id) + ".trace.jsonl";
}

std::vector<std::uint64_t> JobScheduler::admission_order() const
{
    const std::lock_guard lock{mutex_};
    return admission_order_;
}

// Caller holds mutex_.
std::string JobScheduler::status_json_locked(const Job& job) const
{
    std::string out = "{\"id\":" + std::to_string(job.id);
    out += ",\"state\":\"";
    out += job_state_name(job.state);
    out += "\",\"engine\":\"";
    out += json_escape(job.spec.engine);
    out += "\",\"workers\":" + std::to_string(job.grant);
    out += ",\"resumed\":";
    out += job.resumed ? "true" : "false";
    if (job.request_id != 0)
        out += ",\"request_id\":" + std::to_string(job.request_id);
    out += ",\"spec\":" + job.canonical;
    out += ",\"progress\":" + obs::to_json(job.progress->snapshot());
    if (job.admitted) {
        // Resource accounting: queue wait, run wall-clock (live for running
        // jobs), and -- once terminal -- the evaluation cost split.
        out += ",\"accounting\":{\"workers\":" + std::to_string(job.grant);
        out += ",\"queue_wait_seconds\":";
        obs::append_json_double(out, job.queue_wait_seconds);
        out += ",\"run_seconds\":";
        const double run_seconds =
            terminal(job.state)
                ? job.run_seconds
                : std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                                job.admitted_at)
                      .count();
        obs::append_json_double(out, run_seconds);
        if (job.state == JobState::done || job.state == JobState::cancelled) {
            const JobOutcome& r = job.outcome;
            out += ",\"fresh_evals\":" +
                   std::to_string(r.distinct_evals -
                                  std::min(r.store_hits, r.distinct_evals));
            out += ",\"store_hits\":" + std::to_string(r.store_hits);
            out += ",\"retries\":" + std::to_string(r.fault.retries);
        }
        out += "}";
    }
    if (job.state == JobState::done || job.state == JobState::cancelled) {
        const JobOutcome& r = job.outcome;
        out += ",\"result\":{\"feasible\":";
        out += r.feasible ? "true" : "false";
        if (r.feasible && job.spec.engine != "nsga2") {
            out += ",\"best\":";
            obs::append_json_double(out, r.best);
        }
        if (!r.best_genome.empty()) {
            out += ",\"genome\":\"";
            out += json_escape(r.best_genome);
            out += "\"";
        }
        if (job.spec.engine == "nsga2") {
            out += ",\"front\":[";
            for (std::size_t i = 0; i < r.front.size(); ++i) {
                if (i != 0) out += ",";
                out += "{\"genome\":\"";
                out += json_escape(r.front[i].genome);
                out += "\",\"values\":[";
                for (std::size_t k = 0; k < r.front[i].values.size(); ++k) {
                    if (k != 0) out += ",";
                    obs::append_json_double(out, r.front[i].values[k]);
                }
                out += "]}";
            }
            out += "]";
        }
        out += ",\"distinct_evals\":" + std::to_string(r.distinct_evals);
        out += ",\"total_calls\":" + std::to_string(r.total_eval_calls);
        out += ",\"store_hits\":" + std::to_string(r.store_hits);
        out += "}";
    }
    if (job.state == JobState::cancelled) {
        const bool resumable =
            job.spec.evolutionary() &&
            std::ifstream{checkpoint_file(config_.jobs_dir, job.spec)}.good();
        out += ",\"resumable\":";
        out += resumable ? "true" : "false";
    }
    if (job.state == JobState::failed) {
        out += ",\"error\":\"";
        out += json_escape(job.error);
        out += "\"";
    }
    out += "}\n";
    return out;
}

std::string JobScheduler::status_json(std::uint64_t id) const
{
    const std::lock_guard lock{mutex_};
    const auto it = jobs_.find(id);
    if (it == jobs_.end()) return {};
    return status_json_locked(*it->second);
}

std::string JobScheduler::list_json() const
{
    const std::lock_guard lock{mutex_};
    std::string out = "{\"capacity\":" + std::to_string(config_.worker_capacity);
    out += ",\"free_workers\":" + std::to_string(free_slots_);
    out += ",\"queued\":" + std::to_string(queue_.size());
    out += ",\"jobs\":[";
    bool first = true;
    for (const auto& [id, job] : jobs_) {
        if (!first) out += ",";
        first = false;
        out += "{\"id\":" + std::to_string(id);
        out += ",\"state\":\"";
        out += job_state_name(job->state);
        out += "\",\"engine\":\"";
        out += json_escape(job->spec.engine);
        out += "\",\"workers\":" + std::to_string(job->grant);
        out += "}";
    }
    out += "]}\n";
    return out;
}

obs::HttpResponse JobScheduler::handle_jobs(std::string_view method,
                                            std::string_view path,
                                            std::string_view body,
                                            std::uint64_t request_id)
{
    if (path == "/jobs") {
        if (method == "POST") {
            const SubmitResult r = submit(body, request_id);
            if (r.status != 201) {
                obs::HttpResponse resp = error_response(r.status, r.error);
                // Shutdown backpressure: tell clients when to try again
                // rather than leaving 503 handling to guesswork.
                if (r.status == 503) resp.retry_after = "1";
                return resp;
            }
            return json_response(201, status_json(r.id));
        }
        if (method == "GET" || method == "HEAD") return json_response(200, list_json());
        return error_response(405, "method not allowed on /jobs", "GET, POST");
    }

    const auto id = parse_job_id(path);
    if (!id) return error_response(404, "no such job");

    if (method == "GET" || method == "HEAD") {
        std::string status = status_json(*id);
        if (status.empty()) return error_response(404, "no such job");
        return json_response(200, std::move(status));
    }
    if (method == "DELETE") {
        if (!cancel(*id)) return error_response(404, "no such job");
        return json_response(200, status_json(*id));
    }
    return error_response(405, "method not allowed on /jobs/<id>", "GET, DELETE");
}

}  // namespace nautilus::serve
