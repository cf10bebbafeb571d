// perfbench_runner: runs one benchmark workload against the nautilus
// library in this process and prints its metrics.
//
//   perfbench_runner --workload NAME --seed N --seconds S --trace 0|1
//                    [--scratch DIR]
//
// With --trace 0 it prints the end-to-end metrics, with --trace 1 the
// per-layer table; the last line of stdout is the JSON result.  Exit code 0
// means a result was printed (check its "correct" field), 2 a usage error,
// 1 a workload that could not run.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <string_view>

#include "common.hpp"

namespace {

[[noreturn]] void usage(const char* why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\n"
                 "usage: perfbench_runner --workload query_router|pareto_network|serve_mixed\n"
                 "       --seed N --seconds S --trace 0|1 [--scratch DIR]\n",
                 why);
    std::exit(2);
}

double parse_number(std::string_view flag, const char* text)
{
    char* end = nullptr;
    const double v = std::strtod(text, &end);
    if (end == text || *end != '\0' || !(v >= 0.0))
        usage(("invalid value for " + std::string{flag}).c_str());
    return v;
}

perfbench::Options parse(int argc, char** argv)
{
    perfbench::Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (i + 1 >= argc) usage(("missing value for " + std::string{arg}).c_str());
        const char* value = argv[++i];
        if (arg == "--workload") opt.workload = value;
        else if (arg == "--seed") opt.seed = std::strtoull(value, nullptr, 10);
        else if (arg == "--seconds") opt.seconds = parse_number(arg, value);
        else if (arg == "--trace") opt.trace = parse_number(arg, value) != 0.0;
        else if (arg == "--scratch") opt.scratch = value;
        else usage(("unknown flag " + std::string{arg}).c_str());
    }
    if (opt.workload.empty()) usage("--workload is required");
    return opt;
}

}  // namespace

int main(int argc, char** argv)
{
    const perfbench::Options opt = parse(argc, argv);
    perfbench::Report report;
    try {
        if (opt.workload == "query_router") perfbench::run_query_router(opt, report);
        else if (opt.workload == "pareto_network") perfbench::run_pareto_network(opt, report);
        else if (opt.workload == "serve_mixed") perfbench::run_serve_mixed(opt, report);
        else usage(("unknown workload " + opt.workload).c_str());
    }
    catch (const std::exception& e) {
        std::fprintf(stderr, "perfbench_runner: %s: %s\n", opt.workload.c_str(), e.what());
        return 1;
    }
    std::printf("workload %s, seed %llu, %s\n", opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed),
                opt.trace ? "per-layer (traced)" : "end-to-end (untraced)");
    report.print(stdout);
    return 0;
}
