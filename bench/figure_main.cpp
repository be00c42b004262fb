// Bench harness entry point for one row of src/harness/figures.def:
// bench/CMakeLists.txt compiles this file once per row, with
// ASFSIM_FIGURE_NAME set to the row's name, into build/bench/<name>. See
// DESIGN.md §4 for the per-experiment index and EXPERIMENTS.md for the
// recorded paper-vs-measured comparison.
#include <iostream>

#include "harness/args.hpp"
#include "harness/figures.hpp"

int main(int argc, char** argv) {
  const asfsim::CliOptions opts = asfsim::parse_cli(argc, argv);
  return asfsim::figures::ASFSIM_FIGURE_NAME(opts, std::cout);
}
