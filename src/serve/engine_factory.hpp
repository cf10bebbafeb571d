#pragma once
// From a parsed JobSpec to a finished search: one entry point for all five
// engines, shared by the job scheduler and `nautilus_cli --job`.
//
// Using the same factory on both sides is what makes the determinism gate
// trivial to argue: a server job and a standalone run of the same spec build
// the *same* engine configuration by construction, and every engine's
// results are bit-for-bit independent of the worker count, so the granted
// worker cap (which depends on pool capacity) cannot change the outcome.

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/eval_store.hpp"
#include "core/fault.hpp"
#include "core/fault_injection.hpp"
#include "ip/ip_generator.hpp"
#include "obs/obs.hpp"
#include "serve/job_spec.hpp"

namespace nautilus::serve {

// Instantiate an IP generator by spec name.  Throws std::invalid_argument
// for unknown names (parse_job_spec already validates, so this only fires
// on hand-built specs).
std::unique_ptr<ip::IpGenerator> make_generator(const std::string& ip);

// Everything the surrounding system attaches to one run.  All members are
// optional; a default-constructed JobRunInputs runs the spec bare.
struct JobRunInputs {
    // Granted eval workers; 0 = use spec.workers.  Results are identical
    // for any value (the repo-wide worker-count-independence contract).
    std::size_t workers = 0;
    std::shared_ptr<EvalStore> store;  // shared persistent store; may be null
    std::string trace_path;            // per-job JSONL trace; empty = no trace
    std::string checkpoint_path;       // ga/nsga2 checkpoints; empty = none.
                                       // When the file already exists the run
                                       // resumes from it (bit-exactly).
    std::size_t checkpoint_every = 1;  // generations between checkpoints
    std::shared_ptr<const std::atomic<bool>> cancel;  // cooperative cancel token
    // Metrics, live progress and lineage handles.  run_job adds the tracer
    // for trace_path and the job's run tags.
    obs::Instrumentation obs;
    // Test hook mirroring `--die-at-gen`: halt with a checkpoint at this
    // generation (ga/nsga2 only; 0 = never).
    std::size_t halt_at_generation = 0;
    FaultPolicy fault;  // retries, backoff, watchdog timeout, quarantine
    // Seeded fault injection (`--chaos-*`); all rates 0 = off.  It wraps the
    // single-metric engines' evaluation only: nsga2 rejects it.
    FaultInjectionConfig chaos;
    // Telemetry identity (0 = standalone run).  A nonzero job_id tags the
    // trace's run_start with job_id/request_id and emits a closing
    // `job_summary` accounting event; standalone runs leave both at 0 and
    // their traces stay byte-identical to a server job's engine events.
    std::uint64_t job_id = 0;
    std::uint64_t request_id = 0;
    double queue_wait_seconds = 0.0;  // scheduler queue wait, echoed in job_summary
};

struct FrontEntry {
    std::string genome;  // rendered via the space ("param=value ...")
    std::vector<double> values;
};

struct JobOutcome {
    bool halted = false;       // stopped at a checkpointed boundary (cancel/halt)
    bool feasible = false;     // a feasible design was found
    double best = 0.0;         // scalar engines, when feasible
    std::string best_genome;   // rendered best point (ga only; curve engines
                               // track values, not genomes)
    std::vector<FrontEntry> front;  // nsga2 only
    std::size_t distinct_evals = 0;
    std::size_t total_eval_calls = 0;
    std::size_t store_hits = 0;
    std::size_t store_misses = 0;
    std::size_t start_generation = 0;  // nonzero when resumed from a checkpoint
    FaultCounters fault;               // fault-guard attempts, retries, ...
};

// Run one job to completion or to a cancel/halt boundary.  Throws on
// configuration errors (bad checkpoint fingerprint, unwritable trace path).
JobOutcome run_job(const JobSpec& spec, const JobRunInputs& inputs);

}  // namespace nautilus::serve
