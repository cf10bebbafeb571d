#pragma once
// Run-state checkpointing for the search engines.
//
// Long queries are cluster-scale workloads (the paper's characterization runs
// took "200+ cores ... about 2 weeks"); losing 79 generations of GA state to
// a killed process is not acceptable at that scale.  A checkpoint captures
// *everything* the engine loop depends on -- generation index, population,
// RNG stream, memoization cache with its accounting counters, quarantine
// state and best-so-far bookkeeping -- so a resumed run is bit-for-bit
// identical to an uninterrupted one at any worker count.
//
// File format: versioned line-oriented text ("nautilus-checkpoint <version>
// <engine>" header, one section per state group, "end" trailer).  Doubles
// are stored as their IEEE-754 bit patterns (hex u64), never as decimal, so
// values round-trip exactly.  Files are written to "<path>.tmp" and renamed
// into place, so a crash mid-write never corrupts the previous checkpoint.
// Loaders validate the header, version and trailer and throw
// std::runtime_error on any mismatch; engines additionally compare
// `config_hash` (a fingerprint of the space shape and the
// determinism-relevant config fields) before resuming.

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/eval_pipeline.hpp"
#include "core/ga.hpp"
#include "core/run_stats.hpp"
#include "obs/lineage.hpp"

namespace nautilus {

// Version 2 added the optional GA lineage section (PR 8); older files are
// rejected rather than silently resumed without their birth records.
inline constexpr std::uint32_t k_checkpoint_version = 2;

// Single-objective GA run state, captured at "about to evaluate generation
// `generation`".  The evaluation pipeline's state is the EvalState base.
struct GaCheckpoint : EvalState<Evaluation> {
    std::uint64_t config_hash = 0;
    std::uint64_t seed = 0;
    std::size_t generation = 0;  // next generation to evaluate
    std::array<std::uint64_t, 4> rng_state{};
    std::vector<Genome> population;

    // Engine bookkeeping through generation - 1.
    std::vector<GenerationStats> history;
    std::vector<CurvePoint> curve;
    bool have_best = false;
    Genome best_genome;
    Evaluation best_eval;
    double best_so_far = 0.0;
    std::size_t stall = 0;

    // Lineage recorder state (present only when the interrupted run was
    // recording; a resume without it falls back to op=resume roots).
    bool have_lineage = false;
    obs::LineageState lineage;
};

// NSGA-II run state, captured at the top of the generation loop.
struct Nsga2Checkpoint : EvalState<ObjectiveValues> {
    std::uint64_t config_hash = 0;
    std::uint64_t seed = 0;
    std::size_t generation = 0;
    std::size_t objectives = 0;
    std::array<std::uint64_t, 4> rng_state{};

    std::vector<Genome> population;
    std::vector<std::vector<double>> population_values;
    std::vector<Genome> archive;
    std::vector<std::vector<double>> archive_values;
};

// Atomically write `cp` to `path` (via "<path>.tmp" + rename).  Throws
// std::runtime_error when the file cannot be written.
void save_checkpoint(const std::string& path, const GaCheckpoint& cp);
void save_checkpoint(const std::string& path, const Nsga2Checkpoint& cp);

// Engine tag of a checkpoint file ("ga" or "nsga2"); validates the header.
std::string checkpoint_engine(const std::string& path);

// Parse a checkpoint.  Throws std::runtime_error on missing file, version
// mismatch, wrong engine tag or malformed content; for NSGA-II that includes
// a feasible value (population, archive or cache) whose length is not
// `objectives`.
GaCheckpoint load_ga_checkpoint(const std::string& path);
Nsga2Checkpoint load_nsga2_checkpoint(const std::string& path);

// Throws std::runtime_error naming `path`, the section and the index of the
// first genome that is not compatible_with `space`.  Engines call it before
// resuming, so a checkpoint that does not fit the run fails before
// generation one instead of inside an operator mid-run.
void check_genomes(const GaCheckpoint& cp, const ParameterSpace& space,
                   const std::string& path);
void check_genomes(const Nsga2Checkpoint& cp, const ParameterSpace& space,
                   const std::string& path);

}  // namespace nautilus
