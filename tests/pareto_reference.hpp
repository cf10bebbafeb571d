#pragma once
// The NSGA-II ranking as it stood before the flat PoolRanking
// (core/nsga2.hpp) replaced it, kept verbatim as the oracle for the
// Nsga2Ranking property test in test_nsga2.cpp.  Test-only: nothing in the
// library calls these.

#include <cstddef>
#include <span>
#include <vector>

#include "core/pareto.hpp"

namespace nautilus::reference {

// Fast non-dominated sort: partitions `points` into fronts (rank 0 = the
// Pareto front).
std::vector<std::vector<std::size_t>> non_dominated_sort(
    std::span<const ObjectivePoint> points, std::span<const Direction> directions);

// Crowding distance of each member within one front (same index order as
// `front_indices`).  Boundary points get +infinity.
std::vector<double> crowding_distance(std::span<const ObjectivePoint> points,
                                      std::span<const std::size_t> front_indices,
                                      std::span<const Direction> directions);

}  // namespace nautilus::reference
