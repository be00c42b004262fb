// perfbench_driver: runs one benchmark workload in this process and prints
// its metrics as one JSON line (perfbench/run.py builds and calls it).
//
//   perfbench_driver --workload paper-sweep --seed 3 --seconds 20 --trace 0
//                    --pins perfbench/pins.txt --work-dir .bench_build/work
//   perfbench_driver --write-pins ...   regenerate the pin table
//   perfbench_driver --selftest ...     the benchmark's own tests
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "bench.hpp"
#include "runner/version.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

struct Workload {
  const char* name;
  void (*run)(const RunArgs&, PinTable&, Result&);
  bool seeded;  // inputs depend on the seed pool (pins per pool seed)
};

constexpr Workload kWorkloads[] = {
    {"paper-sweep", &workload_paper_sweep, true},
    {"oltp-contended", &workload_oltp_contended, true},
    {"observed", &workload_observed, true},
    {"warm-rerun", &workload_warm_rerun, false},
};

volatile std::uint64_t g_calibration_sink = 0;

/// Host time of two fixed loops: an integer loop (core speed) and a random
/// pointer chase over 8 MiB (memory latency, which other tenants of a
/// shared host move most). A slowed host reads as larger values here.
struct Calibration {
  double alu_s = 0;
  double mem_s = 0;
};

Calibration calibrate() {
  Calibration c;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  const auto step = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
  };
  double t0 = wall_now();
  for (int i = 0; i < 20'000'000; ++i) step();
  c.alu_s = wall_now() - t0;
  std::vector<std::uint32_t> next(std::size_t{1} << 21);
  for (std::size_t i = 0; i < next.size(); ++i) {
    next[i] = static_cast<std::uint32_t>(i);
  }
  for (std::size_t i = next.size() - 1; i > 0; --i) {
    std::swap(next[i], next[step() % (i + 1)]);
  }
  std::uint32_t p = 0;
  t0 = wall_now();
  for (int i = 0; i < 1'000'000; ++i) p = next[p];
  c.mem_s = wall_now() - t0;
  g_calibration_sink = x + p;
  return c;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
  }
  return out + "\"";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload W --seed N --seconds S "
               "--trace 0|1 --pins FILE --work-dir DIR [--git-sha SHA] "
               "[--write-pins | --selftest]\n");
  return 2;
}

int run(int argc, char** argv) {
  RunArgs a;
  std::string git_sha = "unknown";
  bool selftest = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const bool has = i + 1 < argc;
    if (k == "--workload" && has) {
      a.workload = argv[++i];
    } else if (k == "--seed" && has) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (k == "--seconds" && has) {
      a.seconds = std::atof(argv[++i]);
    } else if (k == "--trace" && has) {
      a.trace = std::string(argv[++i]) == "1";
    } else if (k == "--pins" && has) {
      a.pins_path = argv[++i];
    } else if (k == "--work-dir" && has) {
      a.work_dir = argv[++i];
    } else if (k == "--git-sha" && has) {
      git_sha = argv[++i];
    } else if (k == "--write-pins") {
      a.write_pins = true;
    } else if (k == "--selftest") {
      selftest = true;
    } else {
      return usage();
    }
  }
  if (a.pins_path.empty() || a.work_dir.empty()) return usage();
  // The runner reads these; a benchmark run must not depend on the caller's.
  for (const char* v : {"ASFSIM_CACHE_DIR", "ASFSIM_RUN_MANIFEST",
                        "ASFSIM_PROGRESS", "ASFSIM_JOB_TIMEOUT",
                        "ASFSIM_FAULT_COUNTERS"}) {
    ::unsetenv(v);
  }
  std::filesystem::create_directories(a.work_dir);

  PinTable pins;
  if (!a.write_pins) pins.load(a.pins_path);

  if (selftest) {
    const int failures = run_selftests(a, pins);
    std::filesystem::remove_all(a.work_dir);
    std::printf("selftest: %d failure(s)\n", failures);
    return failures == 0 ? 0 : 1;
  }

  if (a.write_pins) {
    Result r;
    for (const Workload& w : kWorkloads) {
      const std::size_t n = w.seeded ? kSeedPoolSize : 1;
      for (std::size_t s = 0; s < n; ++s) {
        RunArgs wa = a;
        wa.workload = w.name;
        wa.seed = s;
        wa.seconds = 0;
        w.run(wa, pins, r);
      }
    }
    std::filesystem::remove_all(a.work_dir);
    if (r.failed != 0) {
      std::fprintf(stderr, "%llu of %llu jobs failed\n",
                   static_cast<unsigned long long>(r.failed),
                   static_cast<unsigned long long>(r.attempted));
      for (const std::string& n : r.notes) std::fprintf(stderr, "%s\n", n.c_str());
      return 1;
    }
    pins.save(a.pins_path);
    std::printf("wrote %zu pins to %s\n", pins.size(), a.pins_path.c_str());
    return 0;
  }

  const Workload* w = nullptr;
  for (const Workload& cand : kWorkloads) {
    if (a.workload == cand.name) w = &cand;
  }
  if (w == nullptr) return usage();

  // One CPU for the whole run: warm-rerun's Runner worker and the main
  // thread otherwise overlap or not depending on where the scheduler puts
  // them, which makes its pass time bimodal. Threads inherit the mask.
  const int cpu = sched_getcpu();
  if (cpu >= 0) {
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpu, &set);
    if (sched_setaffinity(0, sizeof set, &set) != 0) {
      std::fprintf(stderr, "perfbench_driver: could not pin to cpu %d\n", cpu);
    }
  }
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) < 0) load[0] = load[1] = load[2] = -1;
  const Calibration before = calibrate();
  Result r;
  w->run(a, pins, r);
  const Calibration after = calibrate();
  std::filesystem::remove_all(a.work_dir);

  for (const std::string& n : r.notes) std::printf("# %s\n", n.c_str());
  const bool correct = r.failed == 0 && r.checks_ok && r.attempted > 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"host\": {\"nproc\": %ld, \"cpu\": %d, \"loadavg\": [%.2f, %.2f, %.2f], "
              "\"calibration_alu_s\": [%.6f, %.6f], "
              "\"calibration_mem_s\": [%.6f, %.6f], \"git_sha\": %s, "
              "\"code_stamp\": %s, \"build_type\": %s, \"workload\": %s, "
              "\"seed\": %llu}, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed),
              sysconf(_SC_NPROCESSORS_ONLN), cpu, load[0], load[1], load[2],
              before.alu_s, after.alu_s, before.mem_s, after.mem_s,
              json_string(git_sha).c_str(),
              json_string(asfsim::runner::code_version_stamp()).c_str(),
              json_string(PERFBENCH_BUILD_TYPE).c_str(),
              json_string(a.workload).c_str(),
              static_cast<unsigned long long>(a.seed));
  bool first = true;
  for (const auto& [name, v] : r.metrics) {
    std::printf("%s%s: %.17g", first ? "" : ", ", json_string(name).c_str(),
                std::isfinite(v) ? v : 0.0);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    return 1;
  }
}
