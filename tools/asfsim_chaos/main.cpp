// asfsim_chaos: robustness driver for the fault-injection subsystem — the
// mutation-kill matrix the chaos CI job gates on, single chaos cells, and
// the livelock demos. `asfsim_chaos --help` lists the subcommands and their
// flags; docs/robustness.md has the mutation catalog and triage guide.
#include <cstdio>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "fault/chaos.hpp"
#include "harness/args.hpp"
#include "harness/experiment.hpp"
#include "runner/runner.hpp"
#include "sim/kernel.hpp"

namespace {

using namespace asfsim;

/// Where every subcommand's flags land.
struct Options {
  KillMatrixOptions matrix;
  ChaosCell cell;
  ExperimentConfig cfg;  // cell: the --nsub, --mutate and --cm-* rows
  bool via_runner = false;
  bool serialize = false;
};

/// The flags of subcommand `cmd`, writing into `o`.
std::vector<Flag> flags_of(std::string_view cmd, Options& o) {
  if (cmd == "matrix") {
    return {
        {"--seeds", "a,b,c", "seeds to run every cell with (default 1,9,23)",
         [&o](const char* v) {
           o.matrix.seeds.clear();
           std::istringstream list(v);
           for (std::string item; std::getline(list, item, ',');) {
             std::uint64_t seed = 0;
             if (!knobs::parse_integer(item, 0, UINT64_MAX, seed)) {
               return std::string("comma-separated integers");
             }
             o.matrix.seeds.push_back(seed);
           }
           return std::string();
         }},
        count_flag("--ntx", "ledger transactions per core (default 60)",
                   o.matrix.ntx),
        count_flag("--audit", "cycles between invariant audits (default 500)",
                   o.matrix.audit_interval, 1),
        switch_flag("--verbose", "print every cell's outcome",
                    o.matrix.verbose),
    };
  }
  if (cmd == "cell") {
    return {
        knob_flag(knobs::row("--mutate"), o.cfg),
        {"--detector", "name", "baseline (nsub 1) or subblock (default)",
         [&o](const char* v) {
           const std::string_view d = v;
           if (d != "baseline" && d != "subblock") {
             return std::string("baseline or subblock");
           }
           o.cell.detector = d == "baseline" ? DetectorKind::kBaseline
                                             : DetectorKind::kSubBlock;
           if (d == "baseline") o.cfg.nsub = 1;
           return std::string();
         }},
        knob_flag(knobs::row("nsub"), o.cfg, "--nsub"),
        count_flag("--seed", "cell seed (default 1)", o.cell.seed),
        count_flag("--ntx", "ledger transactions per core (default 60)",
                   o.cell.ntx),
        count_flag("--audit", "cycles between invariant audits (default 500)",
                   o.cell.audit_interval, 1),
        knob_flag(knobs::row("--cm-policy"), o.cfg),
        knob_flag(knobs::row("--cm-max-retries"), o.cfg),
        knob_flag(knobs::row("--cm-karma"), o.cfg),
        count_flag("--max-tx-retries",
                   "override SimConfig::max_tx_retries (0 = no fallback)",
                   o.cell.max_tx_retries),
        count_flag("--ncells", "ledger cells (default 96)", o.cell.ncells, 1),
    };
  }
  return {
      switch_flag("--runner", "run the job through the parallel runner",
                  o.via_runner),
      switch_flag("--serialize",
                  "rerun under --cm-policy serialize with the watchdog "
                  "disarmed; the fallback alone must end it",
                  o.serialize),
  };
}

std::string usage() {
  Options o;
  std::string s =
      "usage: asfsim_chaos <matrix|cell|livelock> [flags]\n"
      "  matrix    mutation-kill matrix: exit 0 iff every mutation is killed "
      "and every clean control stays green\n"
      "  cell      one chaos cell; exit 0 iff its verdict is clean\n"
      "  livelock  a livelocked run the watchdog (or, with --serialize, the "
      "fallback) must end\n";
  for (const char* cmd : {"matrix", "cell", "livelock"}) {
    s += std::string(cmd) + " flags:\n" + flag_help(flags_of(cmd, o));
  }
  return s;
}

int cmd_matrix(const Options& o) {
  const KillMatrixReport report = run_kill_matrix(o.matrix);
  std::printf("%s\n", report.summary().c_str());
  return report.all_green() ? 0 : 1;
}

int cmd_cell(const Options& o) {
  ChaosCell cell = o.cell;
  cell.nsub = o.cfg.nsub;
  cell.fault.mutation = o.cfg.sim.fault.mutation;
  cell.cm = o.cfg.sim.cm;
  const ChaosCellResult r = run_chaos_cell(cell);
  std::printf("verdict: %s\n", to_string(r.verdict));
  if (!r.detail.empty()) std::printf("detail: %s\n", r.detail.c_str());
  std::printf("commits: %llu\n", static_cast<unsigned long long>(r.commits));
  std::printf("max consecutive aborts: %u\n", r.max_streak);
  return r.verdict == ChaosVerdict::kClean ? 0 : 1;
}

/// A config that cannot make forward progress: the counter workload's
/// per-thread state plus the hot counter line overflow a 256-byte
/// direct-mapped L1, every transaction capacity-aborts, and with the
/// fallback path disabled (max_tx_retries = 0) the retry loop spins
/// forever. Only the watchdog ends it.
ExperimentConfig livelocked_config() {
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.nsub = 4;
  cfg.sim.l1.size_bytes = 256;
  cfg.sim.l1.ways = 1;
  cfg.sim.max_tx_retries = 0;  // never fall back to the lock
  cfg.sim.backoff_cap_shift = 2;
  cfg.sim.watchdog_cycles = 200'000;
  cfg.params.threads = 4;
  cfg.params.seed = 7;
  return cfg;
}

int cmd_livelock(const Options& o) {
  ExperimentConfig cfg = livelocked_config();
  if (o.serialize) {
    // The guaranteed-termination demo (docs/contention.md §3): same
    // livelocked configuration, but the serialize policy re-enables the
    // fallback escalation. The watchdog stays DISARMED — termination must
    // come from the policy's progress guarantee, not a timeout.
    cfg.sim.cm.policy = CmPolicyKind::kSerialize;
    cfg.sim.cm.max_retries = 8;
    cfg.sim.watchdog_cycles = 0;
    const ExperimentResult r = run_experiment("counter", cfg);
    std::printf(
        "serialize fallback guaranteed termination with the watchdog "
        "disarmed:\n  commits %llu  aborts %llu  fallback runs %llu  "
        "cycles %llu\n",
        static_cast<unsigned long long>(r.stats.tx_commits),
        static_cast<unsigned long long>(r.stats.tx_aborts),
        static_cast<unsigned long long>(r.stats.fallback_runs),
        static_cast<unsigned long long>(r.stats.total_cycles));
    if (r.stats.fallback_runs == 0) {
      std::fprintf(stderr,
                   "livelock --serialize: the run finished without the "
                   "fallback ever engaging — the configuration is no longer "
                   "livelocked\n");
      return 1;
    }
    return 0;
  }
  try {
    if (o.via_runner) {
      runner::RunnerOptions ro;
      ro.use_cache = false;
      ro.jobs = 2;
      ro.manifest_path = "-";
      runner::Runner r(ro);
      (void)r.get("counter", cfg);
    } else {
      (void)run_experiment("counter", cfg);
    }
  } catch (const runner::JobError& e) {
    std::printf("runner surfaced the livelock with job context:\n%s\n",
                e.what());
    return 0;
  } catch (const LivelockError& e) {
    std::printf("watchdog fired as designed:\n%s\n", e.what());
    return 0;
  }
  std::fprintf(stderr,
               "livelock demo completed without tripping the watchdog — "
               "the configuration is no longer livelocked\n");
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string_view cmd = argc < 2 ? "" : argv[1];
  if (cmd == "--help" || cmd == "-h") {
    std::fputs(usage().c_str(), stdout);
    return 0;
  }
  if (cmd != "matrix" && cmd != "cell" && cmd != "livelock") {
    std::fputs(usage().c_str(), stderr);
    return 2;
  }
  Options o;
  parse_flags(argc, argv, 2, flags_of(cmd, o), usage());
  if (cmd == "matrix") return cmd_matrix(o);
  if (cmd == "cell") return cmd_cell(o);
  return cmd_livelock(o);
}
