// Per-figure/table reproduction logic (one bench binary per entry point).
//
// Every function prints the paper's rows/series to `os`, optionally mirrors
// them as CSV into opts.csv_dir as <function name>.csv, and returns 0 on
// success (non-zero when a sanity expectation fails badly enough that the
// figure is meaningless, e.g. a workload failed validation). The functions
// are the rows of figures.def; see there for what each one reproduces.
#pragma once

#include <iostream>

#include "harness/args.hpp"

namespace asfsim::figures {

#define ASFSIM_FIGURE(name) int name(const CliOptions& opts, std::ostream& os);
#include "harness/figures.def"
#undef ASFSIM_FIGURE

struct Figure {
  const char* name;
  int (*run)(const CliOptions& opts, std::ostream& os);
};

/// Every row of figures.def, in file order.
inline constexpr Figure kFigures[] = {
#define ASFSIM_FIGURE(name) {#name, &name},
#include "harness/figures.def"
#undef ASFSIM_FIGURE
};

}  // namespace asfsim::figures
