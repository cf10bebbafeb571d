#include "pareto_reference.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

namespace nautilus::reference {

std::vector<std::vector<std::size_t>> non_dominated_sort(
    std::span<const ObjectivePoint> points, std::span<const Direction> directions)
{
    const std::size_t n = points.size();
    std::vector<std::vector<std::size_t>> dominated_by(n);  // i dominates these
    std::vector<std::size_t> domination_count(n, 0);
    std::vector<std::vector<std::size_t>> fronts;

    std::vector<std::size_t> current;
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j) continue;
            if (dominates(points[i], points[j], directions))
                dominated_by[i].push_back(j);
            else if (dominates(points[j], points[i], directions))
                ++domination_count[i];
        }
        if (domination_count[i] == 0) current.push_back(i);
    }

    while (!current.empty()) {
        fronts.push_back(current);
        std::vector<std::size_t> next;
        for (std::size_t i : current) {
            for (std::size_t j : dominated_by[i]) {
                if (--domination_count[j] == 0) next.push_back(j);
            }
        }
        current = std::move(next);
    }
    return fronts;
}

std::vector<double> crowding_distance(std::span<const ObjectivePoint> points,
                                      std::span<const std::size_t> front_indices,
                                      std::span<const Direction> directions)
{
    const std::size_t m = front_indices.size();
    std::vector<double> distance(m, 0.0);
    if (m <= 2) {
        std::fill(distance.begin(), distance.end(),
                  std::numeric_limits<double>::infinity());
        return distance;
    }

    std::vector<std::size_t> order(m);
    for (std::size_t obj = 0; obj < directions.size(); ++obj) {
        std::iota(order.begin(), order.end(), std::size_t{0});
        std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
            return points[front_indices[a]].values[obj] <
                   points[front_indices[b]].values[obj];
        });
        const double lo = points[front_indices[order.front()]].values[obj];
        const double hi = points[front_indices[order.back()]].values[obj];
        distance[order.front()] = std::numeric_limits<double>::infinity();
        distance[order.back()] = std::numeric_limits<double>::infinity();
        if (hi <= lo) continue;  // degenerate objective: no spread
        for (std::size_t k = 1; k + 1 < m; ++k) {
            const double gap = points[front_indices[order[k + 1]]].values[obj] -
                               points[front_indices[order[k - 1]]].values[obj];
            distance[order[k]] += gap / (hi - lo);
        }
    }
    return distance;
}

}  // namespace nautilus::reference
