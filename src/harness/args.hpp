// Command-line parsing shared by the bench binaries, the examples,
// asfsim_explore and asfsim_chaos. Knob flags come from the knob table
// (harness/knobs.hpp); `<tool> --help` is the flag reference.
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "harness/knobs.hpp"

namespace asfsim {

struct CliOptions {
  ExperimentConfig cfg;  // every knob flag lands here

  // Runner host flags: where and how jobs run, never what they compute.
  std::string csv_dir;     // also write CSV series here
  std::uint32_t jobs = 0;  // runner workers; 0 = hardware concurrency
  bool no_cache = false;   // skip the content-addressed result cache
  std::string trace_dir;   // empty = tracing disabled
  TraceFormat trace_format = TraceFormat::kJsonl;
};

/// Parse the bench/example flags; exits 2 with one line on stderr on a bad
/// flag or value, and 0 after printing the flag list for --help.
[[nodiscard]] CliOptions parse_cli(int argc, char** argv,
                                   double default_scale = 1.0);

/// One command-line flag of some tool.
struct Flag {
  std::string name;     // "--threads"
  std::string metavar;  // value placeholder; empty for a switch
  std::string help;
  /// Applies the value (nullptr for a switch). Returns "" or, for a bad
  /// value, what a good one looks like.
  std::function<std::string(const char* value)> set;
};

/// The flag of knob row `k`, named `name` (default: the row's own flag),
/// writing into `cfg`. The help shows the current value as the default.
[[nodiscard]] Flag knob_flag(const knobs::Knob& k, ExperimentConfig& cfg,
                             const char* name = nullptr);

/// A tool's own integer flag, parsed like an integer knob: the whole
/// token, no sign, a value in [lo, hi].
template <class T>
[[nodiscard]] Flag count_flag(
    const char* name, const char* help, T& out, std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<T>::max()) {
  return {name, "n", help, [&out, lo, hi](const char* v) {
            std::uint64_t u = 0;
            if (!knobs::parse_integer(v, lo, hi, u)) {
              return "an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]";
            }
            out = static_cast<T>(u);
            return std::string();
          }};
}
/// A tool's own switch.
[[nodiscard]] Flag switch_flag(const char* name, const char* help, bool& out);
/// A tool's own free-text flag.
[[nodiscard]] Flag text_flag(const char* name, const char* metavar,
                             const char* help, std::string& out);

/// One "  --flag <value>  help" line per flag.
[[nodiscard]] std::string flag_help(const std::vector<Flag>& flags);

/// Applies argv[first, argc) to `flags`. --help prints `usage` and exits 0.
/// An unknown flag, a missing value or a bad value prints one line to
/// stderr ("<tool>: bad value '<v>' for <flag> (<what set wanted>)") and
/// exits 2.
void parse_flags(int argc, char** argv, int first,
                 const std::vector<Flag>& flags, const std::string& usage);

}  // namespace asfsim
