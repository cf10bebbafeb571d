#pragma once
// Multi-tenant job scheduler: many concurrent searches over one shared
// worker-slot pool and one shared EvalStore.
//
// The pool is a slot budget, not a thread pool: each job runs on its own
// thread and is *admitted* when the scheduler grants it
// `min(spec.workers, capacity)` evaluation-worker slots.  The grant depends
// only on the spec and the configured capacity -- never on current load --
// so the worker count a job runs with (and therefore its trace) is
// reproducible regardless of what else is queued.  Combined with the
// repo-wide worker-count-independence contract, a job's result is
// bit-identical to the same spec run standalone at any cap.
//
// Fairness is strict FIFO admission: a job starts only when it is at the
// head of the queue AND enough slots are free.  Small jobs never leapfrog a
// big job waiting for slots (no starvation of wide jobs), and a big job
// that saturates the pool cannot re-enter ahead of queued small jobs (no
// starvation of narrow ones).  The admission order therefore equals the
// submission order, which the fairness unit test asserts literally.
//
// Cancellation (DELETE /jobs/<id>) sets the job's cooperative cancel token;
// GA/NSGA-II observe it at the next generation boundary, write their
// checkpoint (keyed by the spec fingerprint under jobs_dir) and stop with
// halted=true.  Resubmitting the identical spec finds the checkpoint and
// resumes bit-exactly.  Completed jobs delete their checkpoint so a fresh
// resubmission starts from generation zero.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "core/eval_store.hpp"
#include "obs/http_server.hpp"
#include "obs/lineage.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "serve/engine_factory.hpp"
#include "serve/job_spec.hpp"

namespace nautilus::serve {

enum class JobState { queued, running, done, cancelled, failed };

std::string_view job_state_name(JobState state);

struct SchedulerConfig {
    std::size_t worker_capacity = 4;  // total eval-worker slots in the pool
    std::string jobs_dir = ".";       // traces + checkpoints live here
    std::shared_ptr<EvalStore> store;               // shared across jobs; may be null
    std::shared_ptr<obs::MetricsRegistry> metrics;  // nautilus_jobs_*; may be null
    std::shared_ptr<obs::Logger> log;               // "job" lifecycle records; may be null
};

// Outcome of submit(): HTTP-ish status plus either a job id or an error.
struct SubmitResult {
    std::uint64_t id = 0;
    int status = 201;   // 201 created | 400 bad spec | 409 duplicate | 503 stopping
    std::string error;  // set when status != 201
};

class JobScheduler final : public obs::JobApi {
public:
    explicit JobScheduler(SchedulerConfig config);
    ~JobScheduler() override;  // cancels and joins every job thread

    JobScheduler(const JobScheduler&) = delete;
    JobScheduler& operator=(const JobScheduler&) = delete;

    // Parse + validate + enqueue.  Each accepted job gets its own thread
    // immediately; the thread blocks until FIFO admission grants it slots.
    // `request_id` (0 = none) is the HTTP request id of the submitting
    // POST; it is stamped into the job's trace and log records.
    SubmitResult submit(std::string_view spec_json, std::uint64_t request_id = 0);

    // Request cancellation.  Returns false for unknown ids; true otherwise
    // (idempotent -- cancelling a finished job is a no-op that returns true).
    bool cancel(std::uint64_t id);

    // Job inspection.  status_json returns "" for unknown ids.
    JobState state(std::uint64_t id) const;
    std::string status_json(std::uint64_t id) const;
    std::string list_json() const;

    // Block until the job leaves queued/running or `timeout_seconds` passes.
    // Returns true when the job reached a terminal state.
    bool wait(std::uint64_t id, double timeout_seconds) const;

    std::size_t capacity() const { return config_.worker_capacity; }
    // The lineage counters every job feeds (the server's /lineage).
    const std::shared_ptr<obs::LineageTracker>& lineage() const { return lineage_; }
    std::string trace_path_for(std::uint64_t id) const;

    // The order jobs were admitted to run, for the fairness test.
    std::vector<std::uint64_t> admission_order() const;

    // obs::JobApi: routes POST/GET/DELETE under /jobs.
    obs::HttpResponse handle_jobs(std::string_view method, std::string_view path,
                                  std::string_view body,
                                  std::uint64_t request_id) override;

private:
    struct Job {
        std::uint64_t id = 0;
        JobSpec spec;
        std::string canonical;  // canonical_spec_json(spec)
        std::uint64_t fingerprint = 0;
        JobState state = JobState::queued;
        std::size_t grant = 0;  // slots this job runs with (load-independent)
        std::shared_ptr<std::atomic<bool>> cancel;
        std::shared_ptr<obs::ProgressTracker> progress;
        std::string error;   // failed jobs
        JobOutcome outcome;  // valid once terminal (done/cancelled)
        bool resumed = false;
        // Telemetry: the submitting HTTP request (0 = direct submit()) and
        // the per-job resource accounting (DESIGN.md section 12).
        std::uint64_t request_id = 0;
        std::chrono::steady_clock::time_point submitted_at{};
        std::chrono::steady_clock::time_point admitted_at{};
        bool admitted = false;
        double queue_wait_seconds = 0.0;  // submit -> admission
        double run_seconds = 0.0;         // admission -> terminal
        std::thread thread;
    };

    void job_main(Job& job);
    void finish(Job& job, JobState state, std::string error);
    void publish_pool_gauges() const;  // jobs.queued/running/workers_busy
    void log_job(obs::LogLevel level, const Job& job, std::string_view phase,
                 std::string_view detail = {}) const;
    std::string status_json_locked(const Job& job) const;

    SchedulerConfig config_;
    const std::shared_ptr<obs::LineageTracker> lineage_ =
        std::make_shared<obs::LineageTracker>();

    mutable std::mutex mutex_;
    mutable std::condition_variable cv_;
    std::map<std::uint64_t, std::unique_ptr<Job>> jobs_;  // stable pointers
    std::deque<std::uint64_t> queue_;                     // FIFO admission order
    std::vector<std::uint64_t> admission_order_;
    std::size_t free_slots_ = 0;
    std::uint64_t next_id_ = 1;
    bool stopping_ = false;
};

}  // namespace nautilus::serve
