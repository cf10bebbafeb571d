#pragma once
// The paper's experiment configuration for the extension benches; the
// paper's own figures are rows of bench_paper.

#include <cstdio>

#include "exp/experiment.hpp"
#include "ip/dataset.hpp"

namespace nautilus::bench {

inline exp::ExperimentConfig paper_config(std::size_t runs = 40, std::size_t gens = 80)
{
    exp::ExperimentConfig cfg;
    cfg.runs = runs;          // paper: averaged over 40 runs
    cfg.ga.generations = gens;  // paper: 80 generations (Fig. 5 shows 20)
    cfg.ga.seed = 2015;
    return cfg;
}

}  // namespace nautilus::bench
