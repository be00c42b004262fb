// The benchmark's own tests (run with `python3 perfbench/run.py --selftest`).
#include <cstdio>
#include <string>

#include "bench.hpp"
#include "harness/experiment.hpp"
#include "stats/serialize.hpp"

namespace perfbench {

using namespace asfsim;

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++g_failures;
}

Cell small_cell(const char* workload, DetectorKind d, std::uint64_t seed) {
  Cell c;
  c.label = std::string("selftest:") + workload;
  c.workload = workload;
  c.cfg.detector = d;
  c.cfg.nsub = d == DetectorKind::kSubBlock ? 4 : 1;
  c.cfg.params.seed = seed;
  c.cfg.params.scale = 0.5;
  return c;
}

}  // namespace

int run_selftests(const RunArgs& a, PinTable& pins) {
  g_failures = 0;

  // 1. The per-job path gives the same bytes as run_experiment.
  {
    Cell plain = small_cell("kmeans", DetectorKind::kBaseline, 3);
    Cell sunk = small_cell("vacation", DetectorKind::kSubBlock, 2);
    sunk.obs.jsonl = true;
    sunk.cfg.sim.provenance = true;
    sunk.cfg.sim.cm.stats = true;
    Cell kv = small_cell("oltp", DetectorKind::kSubBlock, 1);
    kv.cfg.params.oltp.theta = 1.1;
    for (const Cell* c : {&plain, &sunk, &kv}) {
      Tracer off(false);
      const JobOutcome o = run_cell(*c, off, a.work_dir);
      TraceOptions topt;
      if (c->obs.jsonl) {
        topt.format = TraceFormat::kJsonl;
        topt.path = a.work_dir + "/selftest.jsonl";
      }
      const ExperimentResult ref = run_experiment(c->workload, c->cfg, topt);
      expect(o.ok && ref.ok() && o.blob == serialize_stats(ref.stats),
             "per-job blob equals run_experiment for " + c->pin_key());
    }
  }

  // 2. The pin check trips when the simulated result changes.
  {
    const Cell pinned = small_cell("genome", DetectorKind::kSubBlock, 4);
    Tracer off(false);
    JobOutcome o = run_cell(pinned, off, a.work_dir);
    PinTable local;
    check_pin(pinned, o, local, /*writing=*/true);
    check_pin(pinned, o, local, false);
    expect(o.ok, "pin check accepts the pinned result");
    Cell perturbed = pinned;
    perturbed.cfg.params.seed = 5;
    JobOutcome p = run_cell(perturbed, off, a.work_dir);
    check_pin(pinned, p, local, false);
    expect(!p.ok && p.error.find("pinned") != std::string::npos,
           "pin check rejects a perturbed seed");
    JobOutcome missing = o;
    check_pin(perturbed, missing, local, false);
    expect(!missing.ok, "pin check rejects an unpinned cell");
  }

  // 3. A job that throws is a failed job, and fail counts reach the result.
  {
    Tracer off(false);
    const JobOutcome o =
        run_cell(small_cell("no-such-workload", DetectorKind::kBaseline, 1), off,
                 a.work_dir);
    expect(!o.ok && o.error.rfind("threw", 0) == 0, "a throwing job fails");
    PinTable empty;
    RunArgs ra = a;
    ra.workload = "oltp-contended";
    ra.seconds = 0;
    Result r;
    workload_oltp_contended(ra, empty, r);  // no pins: every job must fail
    expect(r.attempted > 0 && r.failed == r.attempted &&
               r.metrics["ok_ratio"] == 0.0,
           "unpinned jobs count in failed and ok_ratio");
  }

  // 4. warm-rerun loads every result and executes no simulation.
  {
    RunArgs ra = a;
    ra.workload = "warm-rerun";
    ra.seconds = 0.5;
    ra.trace = true;
    Result r;
    workload_warm_rerun(ra, pins, r);
    expect(r.failed == 0 && r.checks_ok && r.metrics["runner.executed"] == 0 &&
               r.metrics["runner.hit_ratio"] == 1.0,
           "warm-rerun executes zero simulations and matches the pins");
  }

  // 5. Spans do not change what is simulated.
  {
    for (const Cell& base :
         {small_cell("intruder", DetectorKind::kBaseline, 1),
          small_cell("kmeans", DetectorKind::kSubBlock, 2)}) {
      Cell c = base;
      c.obs.jsonl = true;
      c.obs.perfetto = true;
      Tracer off(false);
      Tracer on(true);
      const JobOutcome u = run_cell(c, off, a.work_dir);
      const JobOutcome t = run_cell(c, on, a.work_dir);
      expect(u.ok && t.ok && u.blob == t.blob && !on.spans().empty(),
             "traced and untraced blobs are identical for " + c.pin_key());
    }
    RunArgs ra = a;
    ra.workload = "oltp-contended";
    ra.seconds = 0;
    Result untraced, traced;
    workload_oltp_contended(ra, pins, untraced);
    ra.trace = true;
    workload_oltp_contended(ra, pins, traced);
    expect(untraced.failed == 0 && traced.failed == 0,
           "traced and untraced oltp-contended runs both match the pins");
  }
  return g_failures;
}

}  // namespace perfbench
