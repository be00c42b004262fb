// The benchmark's four workloads (perfbench/README.md explains each choice).
//
// Every simulation workload repeats one fixed pass over its cells until the
// run's time is used up. All passes must produce the same stats digests,
// the first pass is checked against the pin table, and host times come from
// each job's fastest instance (host_metrics says why). A traced run alternates
// untraced and traced passes, so the span overhead is the difference of
// their medians. A traced run reports only the per-layer metrics its
// workload exercises; run.py reports the others as 0.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <numeric>
#include <optional>

#include "bench.hpp"
#include "runner/job_spec.hpp"
#include "runner/result_cache.hpp"
#include "runner/runner.hpp"
#include "sim/random.hpp"
#include "stats/serialize.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

using namespace asfsim;

namespace {

constexpr DetectorKind kDetectors[] = {DetectorKind::kBaseline,
                                       DetectorKind::kSubBlock,
                                       DetectorKind::kPerfect};

/// Largest share of a traced paper-sweep pass that may fall outside every
/// layer span (the benchmark's own loop bookkeeping).
constexpr double kCoverageTolerance = 0.02;

Cell make_cell(std::string label, std::string workload, DetectorKind d,
               std::uint64_t seed, double scale) {
  Cell c;
  c.label = std::move(label);
  c.workload = std::move(workload);
  c.cfg.detector = d;
  c.cfg.nsub = d == DetectorKind::kSubBlock ? 4 : 1;
  c.cfg.params.threads = 8;
  c.cfg.sim.ncores = 8;
  c.cfg.params.seed = seed;
  c.cfg.params.scale = scale;
  return c;
}

// ---- cell lists --------------------------------------------------------------

std::vector<Cell> paper_cells(std::uint64_t seed) {
  std::vector<Cell> cells;
  for (const std::string& w : paper_benchmarks()) {
    for (const DetectorKind d : kDetectors) {
      cells.push_back(make_cell("paper:" + w, w, d, seed, 2.0));
    }
  }
  return cells;
}

/// Four consecutive pool seeds per pass: the contended table's false-conflict
/// share varies from seed to seed, and pooling seeds steadies it.
std::vector<Cell> oltp_cells(std::uint64_t cli_seed) {
  std::vector<Cell> cells;
  for (std::uint64_t k = 0; k < 4; ++k) {
    for (const DetectorKind d : {DetectorKind::kBaseline, DetectorKind::kSubBlock}) {
      Cell c = make_cell("oltp-contended:oltp", "oltp", d,
                         pool_seed(cli_seed + k), 1.0);
      OltpConfig& o = c.cfg.params.oltp;
      o.records = 512;
      o.payload_bytes = 16;
      o.tx_len = 8;
      o.tx_per_thread = 2000;
      o.theta = 1.1;
      o.mix = OltpMix::kA;
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

/// The observed cells with the given sinks switched on.
std::vector<Cell> observed_cells(std::uint64_t seed, bool jsonl, bool perfetto,
                                 bool prov, bool cm_stats) {
  std::vector<Cell> cells;
  for (const char* w : {"vacation", "genome", "intruder", "kmeans"}) {
    for (const DetectorKind d : {DetectorKind::kBaseline, DetectorKind::kSubBlock}) {
      Cell c = make_cell(std::string("observed:") + w, w, d, seed, 2.0);
      c.obs.jsonl = jsonl;
      c.obs.perfetto = perfetto;
      c.cfg.sim.provenance = prov;
      c.cfg.sim.cm.stats = cm_stats;
      cells.push_back(std::move(c));
    }
  }
  return cells;
}

/// Every registry workload but livelock × 3 detectors × the whole seed
/// pool, in an order shuffled by the run's seed.
std::vector<Cell> warm_cells(std::uint64_t cli_seed) {
  std::vector<Cell> cells;
  for (const WorkloadInfo& w : workload_registry()) {
    if (std::string(w.name) == "livelock") continue;
    for (const DetectorKind d : kDetectors) {
      for (const std::uint64_t s : kSeedPool) {
        cells.push_back(make_cell(std::string("warm:") + w.name, w.name, d, s,
                                  0.25));
      }
    }
  }
  Rng rng(cli_seed + 1);
  for (std::size_t i = cells.size(); i > 1; --i) {
    std::swap(cells[i - 1], cells[rng.below(i)]);
  }
  return cells;
}

// ---- metrics shared by every workload ------------------------------------------

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

/// 100·(1 − Σ false(subblock-4) / Σ false(baseline)) over the cells that
/// pair up on (label, seed, scale, sinks).
double false_removed_pct(const std::vector<Cell>& cells,
                         const std::vector<const Stats*>& st) {
  double base = 0, sb4 = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].cfg.detector != DetectorKind::kBaseline) continue;
    for (std::size_t j = 0; j < cells.size(); ++j) {
      const Cell& a = cells[i];
      const Cell& b = cells[j];
      if (b.cfg.detector == DetectorKind::kSubBlock && b.cfg.nsub == 4 &&
          a.label == b.label && a.cfg.params.seed == b.cfg.params.seed &&
          a.cfg.params.scale == b.cfg.params.scale &&
          a.cfg.sim.provenance == b.cfg.sim.provenance &&
          a.cfg.sim.cm.stats == b.cfg.sim.cm.stats) {
        base += static_cast<double>(st[i]->conflicts_false);
        sb4 += static_cast<double>(st[j]->conflicts_false);
      }
    }
  }
  return base == 0 ? 0.0 : 100.0 * (1.0 - sb4 / base);
}

/// End-to-end metrics that depend only on the simulated results.
void model_metrics(const std::vector<Cell>& cells,
                   const std::vector<const Stats*>& st, Result& r) {
  double cycles = 0;
  for (const Stats* s : st) cycles += static_cast<double>(s->total_cycles);
  r.metrics["sim_cycles"] = cycles;
  r.metrics["false_removed_pct"] = false_removed_pct(cells, st);
}

/// Host-time end-to-end metrics. Every job is deterministic, so host noise
/// only ever adds time: other tenants of a shared host slow the simulator by
/// up to 60% in episodes that last seconds (memory contention). The fastest
/// instance of a job is the estimate least touched by them, so a simulation
/// workload's wall_s and cpu_s are the sum over its jobs of each job's
/// fastest instance across the untraced passes, and sim_accesses_per_s uses
/// the same per-job minima of the CPU time inside Machine::run. warm-rerun,
/// whose jobs are cache loads inside the Runner, uses its fastest pass.
/// Set-up time is the median over passes (or fills). The note gives the
/// distribution of whole-pass wall times and the pass count.
void host_metrics(double wall, double cpu, double aps,
                  const std::vector<double>& pass_wall,
                  const std::vector<double>& setup, Result& r) {
  r.metrics["wall_s"] = wall;
  r.metrics["cpu_s"] = cpu;
  r.metrics["sim_accesses_per_s"] = aps;
  r.metrics["setup_s"] = median(setup);
  r.metrics["peak_rss_mb"] = peak_rss_mb();
  r.metrics["ok_ratio"] = 1.0 - ratio(static_cast<double>(r.failed),
                                      static_cast<double>(r.attempted));
  char buf[200];
  std::snprintf(buf, sizeof buf,
                "pass wall_s over %zu passes: min %.6f p10 %.6f p25 %.6f "
                "median %.6f p90 %.6f; setup_s over %zu: median %.6f",
                pass_wall.size(), quantile(pass_wall, 0),
                quantile(pass_wall, 0.1), quantile(pass_wall, 0.25),
                median(pass_wall), quantile(pass_wall, 0.9), setup.size(),
                median(setup));
  r.notes.push_back(buf);
}

std::uint64_t total_accesses(const std::vector<const Stats*>& st) {
  std::uint64_t n = 0;
  for (const Stats* s : st) n += s->accesses;
  return n;
}

/// Per-layer counts read from the Stats every job returned.
void layer_counts(const std::vector<Cell>& cells,
                  const std::vector<const Stats*>& st, Result& r) {
  double acc = 0, l1 = 0, probes = 0, c2c = 0, bus = 0, conf = 0, fals = 0,
         avoided = 0, att = 0, commits = 0, wasted = 0, busy = 0, backoff = 0,
         fallback = 0, consec = 0, gini_sum = 0, gini_n = 0, oltp_commits = 0,
         oltp_cycles = 0, p99 = 0;
  double aborts[4] = {0, 0, 0, 0};
  for (std::size_t i = 0; i < st.size(); ++i) {
    const Stats& s = *st[i];
    acc += static_cast<double>(s.accesses);
    l1 += static_cast<double>(s.l1_hits);
    probes += static_cast<double>(s.probes_sent);
    c2c += static_cast<double>(s.c2c_transfers);
    bus += static_cast<double>(s.bus_wait_cycles);
    conf += static_cast<double>(s.conflicts_total);
    fals += static_cast<double>(s.conflicts_false);
    avoided += static_cast<double>(s.false_conflicts_avoided);
    att += static_cast<double>(s.tx_attempts);
    commits += static_cast<double>(s.tx_commits);
    wasted += static_cast<double>(s.wasted_cycles);
    busy += static_cast<double>(s.tx_busy_cycles);
    backoff += static_cast<double>(s.backoff_cycles);
    fallback += static_cast<double>(s.fallback_runs);
    for (int k = 0; k < 4; ++k) aborts[k] += static_cast<double>(s.aborts_by_cause[k]);
    if (s.cm_enabled) {
      for (const std::uint64_t v : s.cm_max_consec_aborts) {
        consec = std::max(consec, static_cast<double>(v));
      }
      gini_sum += s.cm_wasted_gini();
      gini_n += 1;
    }
    if (cells[i].workload == "oltp") {
      oltp_commits += static_cast<double>(s.tx_commits);
      oltp_cycles += static_cast<double>(s.total_cycles);
      p99 = std::max(p99, s.latency_percentile(0.99));
    }
  }
  auto& m = r.metrics;
  m["mem.accesses"] = acc;
  m["mem.l1_hit_ratio"] = ratio(l1, acc);
  m["mem.probes_per_access"] = ratio(probes, acc);
  m["mem.c2c_per_access"] = ratio(c2c, acc);
  m["mem.bus_wait_cycles"] = bus;
  m["core.conflicts"] = conf;
  m["core.false_rate"] = ratio(fals, conf);
  m["core.false_avoided"] = avoided;
  m["htm.attempts"] = att;
  m["htm.commit_ratio"] = ratio(commits, att);
  m["htm.aborts.conflict"] = aborts[static_cast<int>(AbortCause::kConflict)];
  m["htm.aborts.capacity"] = aborts[static_cast<int>(AbortCause::kCapacity)];
  m["htm.aborts.user"] = aborts[static_cast<int>(AbortCause::kUser)];
  m["htm.aborts.lockwait"] = aborts[static_cast<int>(AbortCause::kLockWait)];
  m["htm.wasted_share"] = ratio(wasted, busy);
  m["htm.backoff_cycles"] = backoff;
  m["htm.fallback_runs"] = fallback;
  m["cm.max_consec_aborts"] = consec;
  m["cm.wasted_gini"] = ratio(gini_sum, gini_n);
  m["oltp.commits_per_simsec"] = ratio(oltp_commits * Stats::kSimClockHz, oltp_cycles);
  m["oltp.tx_p99_cycles"] = p99;
}

/// Mean duration (s) of spans called `name`, over `per` calls.
double span_mean(const Tracer& tr, const char* name, double per) {
  double sum = 0;
  for (const Span& s : tr.spans()) {
    if (std::string_view(s.name) == name) sum += s.t1 - s.t0;
  }
  return ratio(sum, per);
}

/// Adds the median self time per layer over the traced passes. Only layers
/// the benchmark calls directly have spans: mem, core, htm and cm run inside
/// Machine::run, so their time is part of self_s.sim.
void self_times(const std::vector<Tracer>& passes, Result& r) {
  std::map<std::string, std::vector<double>> per_layer;
  for (const Tracer& t : passes) {
    for (const auto& [layer, s] : t.self_by_layer()) per_layer[layer].push_back(s);
  }
  for (auto& [layer, v] : per_layer) {
    v.resize(passes.size(), 0.0);  // a layer absent from a pass spent 0 there
    r.metrics["self_s." + layer] = median(v);
  }
}

// ---- simulation workloads --------------------------------------------------------

struct Pass {
  double wall = 0;
  double setup = 0;  // Σ JobOutcome::setup_s
  std::vector<JobOutcome> jobs;
};

Pass run_pass(const std::vector<Cell>& cells, Tracer& tr,
              const std::string& work_dir) {
  Pass p;
  p.jobs.reserve(cells.size());
  const int id = tr.begin("bench", "pass");
  const double w0 = wall_now();
  for (const Cell& c : cells) {
    const double jw = wall_now();
    const double jc = process_cpu();
    JobOutcome o = run_cell(c, tr, work_dir);
    o.cpu_s = process_cpu() - jc;
    o.wall_s = wall_now() - jw;
    p.jobs.push_back(std::move(o));
  }
  p.wall = wall_now() - w0;
  tr.end(id);
  for (const JobOutcome& j : p.jobs) p.setup += j.setup_s;
  return p;
}

/// Checks a pass: the first one against the pins, later ones against the
/// first pass's outcome. Counts attempted and failed jobs; keeps failure notes short.
void tally(const std::vector<Cell>& cells, Pass& p, const Pass* first,
           PinTable& pins, bool writing, Result& r) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    JobOutcome& o = p.jobs[i];
    if (first == nullptr) {
      check_pin(cells[i], o, pins, writing);
    } else if (!first->jobs[i].ok) {
      o.ok = false;  // a job that failed its pin check fails in every pass
      o.error = first->jobs[i].error;
    } else if (o.ok && o.digest != first->jobs[i].digest) {
      o.ok = false;
      o.error = "stats digest changed between passes for " + cells[i].pin_key();
    }
    ++r.attempted;
    if (!o.ok) {
      ++r.failed;
      if (r.failed <= 20) r.notes.push_back("FAIL " + o.error);
    }
  }
}

/// One cell list's pass-level metrics, for the `*_on_s` differentials.
struct Variant {
  std::vector<Cell> cells;
  std::vector<double> walls;
  std::optional<Pass> first_pass;
};

void run_variant_pass(Variant& v, const std::string& work_dir, PinTable& pins,
                      bool writing, Result& r) {
  Tracer off(false);
  Pass p = run_pass(v.cells, off, work_dir);
  tally(v.cells, p, v.first_pass ? &*v.first_pass : nullptr, pins, writing, r);
  v.walls.push_back(p.wall);
  if (!v.first_pass) {
    for (JobOutcome& j : p.jobs) j.blob.clear();
    v.first_pass = std::move(p);
  }
}

/// Runs `cells` for the run's time and fills every metric of its mode.
/// `variants` (observed only) are re-run in traced mode, one feature on at
/// a time; variants[0] must be the all-off list.
void sim_workload(const RunArgs& a, const std::vector<Cell>& cells,
                  PinTable& pins, Result& r, bool check_coverage,
                  std::vector<std::pair<const char*, Variant>> variants = {}) {
  std::vector<Pass> untraced;
  std::vector<Tracer> traced_spans;
  std::vector<Pass> traced;
  std::optional<Pass> first;
  // Fastest instance of each job over the untraced passes.
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> job_wall(cells.size(), inf), job_cpu(cells.size(), inf),
      job_run_cpu(cells.size(), inf);
  const double deadline = wall_now() + a.seconds;
  for (int round = 0;; ++round) {
    Tracer off(false);
    Pass p = run_pass(cells, off, a.work_dir);
    tally(cells, p, first ? &*first : nullptr, pins, a.write_pins, r);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      job_wall[i] = std::min(job_wall[i], p.jobs[i].wall_s);
      job_cpu[i] = std::min(job_cpu[i], p.jobs[i].cpu_s);
      job_run_cpu[i] = std::min(job_run_cpu[i], p.jobs[i].run_cpu_s);
    }
    if (!first) {
      first = std::move(p);
      untraced.push_back(Pass{first->wall, first->setup, {}});
    } else {
      p.jobs.clear();
      untraced.push_back(std::move(p));
    }
    if (a.write_pins) {
      for (auto& [name, v] : variants) run_variant_pass(v, a.work_dir, pins, true, r);
      break;
    }
    if (a.trace) {
      Tracer& tr = traced_spans.emplace_back(true);
      Pass tp = run_pass(cells, tr, a.work_dir);
      tally(cells, tp, &*first, pins, false, r);
      if (!traced.empty()) tp.jobs.clear();  // keep the first traced pass's
      traced.push_back(std::move(tp));
      for (auto& [name, v] : variants) run_variant_pass(v, a.work_dir, pins, false, r);
    }
    const int min_rounds = a.trace ? 2 : 3;
    if (round + 1 >= min_rounds && wall_now() >= deadline) break;
  }

  std::vector<const Stats*> st;
  for (const JobOutcome& j : first->jobs) st.push_back(&j.stats);
  const double accesses = static_cast<double>(total_accesses(st));

  if (!a.trace) {
    std::vector<double> wall, setup;
    for (const Pass& p : untraced) {
      wall.push_back(p.wall);
      setup.push_back(p.setup);
    }
    const auto sum = [](const std::vector<double>& v) {
      return std::accumulate(v.begin(), v.end(), 0.0);
    };
    host_metrics(sum(job_wall), sum(job_cpu), ratio(accesses, sum(job_run_cpu)),
                 wall, setup, r);
    model_metrics(cells, st, r);
    return;
  }

  // ---- traced run: per-layer metrics -------------------------------------------
  layer_counts(cells, st, r);
  const double njobs = static_cast<double>(cells.size());
  std::vector<double> run_s, machine, setup, validate, serialize, coverage,
      wall_t, wall_u;
  for (const Tracer& t : traced_spans) {
    run_s.push_back(span_mean(t, "Machine::run", 1.0));
    machine.push_back(span_mean(t, "Machine", njobs));
    setup.push_back(span_mean(t, "make_workload+setup", njobs));
    validate.push_back(span_mean(t, "validate", njobs));
    serialize.push_back(span_mean(t, "serialize_stats", njobs));
    // Share of the pass covered by spans below the pass/job bookkeeping.
    const std::vector<Span>& sp = t.spans();
    std::vector<double> child(sp.size(), 0.0);
    for (const Span& c : sp) {
      if (c.parent >= 0) child[static_cast<std::size_t>(c.parent)] += c.t1 - c.t0;
    }
    double bookkeeping = 0;
    for (std::size_t i = 0; i < sp.size(); ++i) {
      const std::string_view n = sp[i].name;
      if (n == "pass" || n == "job") bookkeeping += sp[i].t1 - sp[i].t0 - child[i];
    }
    const double pass = span_mean(t, "pass", 1.0);
    coverage.push_back(1.0 - ratio(bookkeeping, pass));
  }
  for (std::size_t i = 0; i < traced.size(); ++i) {
    wall_t.push_back(traced[i].wall -
                     span_mean(traced_spans[i], kCountEventsSpan, 1.0));
  }
  for (const Pass& p : untraced) wall_u.push_back(p.wall);
  auto& m = r.metrics;
  m["sim.run_s"] = median(run_s);
  m["sim.ns_per_access"] = ratio(median(run_s) * 1e9, accesses);
  m["guest.machine_ms"] = median(machine) * 1e3;
  m["workloads.setup_ms"] = median(setup) * 1e3;
  m["workloads.validate_ms"] = median(validate) * 1e3;
  m["stats.serialize_us"] = median(serialize) * 1e6;
  m["span.coverage"] = median(coverage);
  m["span.overhead_s"] = median(wall_t) - median(wall_u);

  double blob_bytes = 0, events = 0, bytes = 0, sites = 0;
  for (const JobOutcome& j : traced.front().jobs) {
    blob_bytes += static_cast<double>(j.blob.size());
    events += static_cast<double>(j.trace_events);
    bytes += static_cast<double>(j.trace_bytes);
    sites = std::max(sites, static_cast<double>(j.prov_sites));
  }
  m["stats.blob_bytes"] = blob_bytes / njobs;
  m["trace.events"] = events;
  m["trace.bytes"] = bytes;
  m["prov.sites"] = sites;

  // One-off spans over the traced pass's real outputs. They run outside
  // the passes, so neither self_s nor span.overhead_s includes them.
  Tracer extra(true);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const JobOutcome& j = traced.front().jobs[i];
    {
      Scope s(extra, "runner", "make_job_spec");
      const runner::JobSpec spec = runner::make_job_spec(cells[i].workload,
                                                         cells[i].cfg);
      if (spec.hash_hex.size() != 16) r.checks_ok = false;
    }
    Stats back;
    bool parsed = false;
    {
      Scope s(extra, "stats", "deserialize_stats");
      parsed = deserialize_stats(j.blob, back);
    }
    if (!parsed || serialize_stats(back) != j.blob) {
      r.checks_ok = false;
      r.notes.push_back("FAIL stats blob round trip for " + cells[i].pin_key());
    }
  }
  m["runner.jobspec_us"] = span_mean(extra, "make_job_spec", njobs) * 1e6;
  m["stats.deserialize_us"] = span_mean(extra, "deserialize_stats", njobs) * 1e6;
  run_isolation_cells(r);
  self_times(traced_spans, r);

  if (!variants.empty()) {
    const double off = median(variants[0].second.walls);
    for (std::size_t i = 1; i < variants.size(); ++i) {
      m[variants[i].first] = median(variants[i].second.walls) - off;
    }
  }
  if (check_coverage && median(coverage) < 1.0 - kCoverageTolerance) {
    r.checks_ok = false;
    r.notes.push_back("FAIL spans cover only " +
                      std::to_string(median(coverage)) + " of the pass");
  }
  traced_spans.front().write_json(a.work_dir + "/../spans-" + a.workload +
                                  ".json");
}

}  // namespace

void workload_paper_sweep(const RunArgs& a, PinTable& pins, Result& r) {
  sim_workload(a, paper_cells(pool_seed(a.seed)), pins, r, true);
}

void workload_oltp_contended(const RunArgs& a, PinTable& pins, Result& r) {
  sim_workload(a, oltp_cells(a.seed), pins, r, false);
}

void workload_observed(const RunArgs& a, PinTable& pins, Result& r) {
  const std::uint64_t s = pool_seed(a.seed);
  std::vector<std::pair<const char*, Variant>> variants;
  if (a.trace || a.write_pins) {
    const auto variant = [&](const char* metric, bool jsonl, bool perfetto,
                             bool prov, bool cm_stats) {
      Variant v;
      v.cells = observed_cells(s, jsonl, perfetto, prov, cm_stats);
      variants.emplace_back(metric, std::move(v));
    };
    variant("off", false, false, false, false);
    variant("trace.jsonl_on_s", true, false, false, false);
    variant("trace.perfetto_on_s", false, true, false, false);
    variant("prov.on_s", false, false, true, false);
    variant("cm.stats_on_s", false, false, false, true);
  }
  sim_workload(a, observed_cells(s, true, true, true, true), pins, r, false,
               std::move(variants));
}

// ---- warm-rerun ---------------------------------------------------------------------

namespace {

runner::RunnerOptions warm_options(const std::string& cache_dir,
                                   const std::string& work_dir) {
  runner::RunnerOptions o;
  o.jobs = 1;
  o.use_cache = true;
  o.cache_dir = cache_dir;
  o.manifest_path = work_dir + "/manifest.json";
  o.progress = runner::RunnerOptions::Progress::kOff;
  return o;
}

/// Submits every cell, then gets each in order, as the figure code does.
/// Spans (when on) wrap the Runner's public calls.
std::vector<ExperimentResult> runner_pass(const std::vector<Cell>& cells,
                                          const runner::RunnerOptions& opts,
                                          Tracer& tr,
                                          runner::RunnerTotals& totals) {
  std::vector<ExperimentResult> out;
  out.reserve(cells.size());
  std::optional<runner::Runner> run;
  {
    Scope s(tr, "runner", "Runner");
    run.emplace(opts);
  }
  for (const Cell& c : cells) {
    Scope s(tr, "runner", "submit");
    (void)run->submit(c.workload, c.cfg);
  }
  for (const Cell& c : cells) {
    Scope s(tr, "runner", "get");
    out.push_back(run->get(c.workload, c.cfg));
  }
  totals = run->totals();
  {
    Scope s(tr, "runner", "~Runner");
    run.reset();
  }
  return out;
}

/// Checks loaded (or executed) results against the pins.
void check_results(const std::vector<Cell>& cells,
                   const std::vector<ExperimentResult>& res, PinTable& pins,
                   bool writing, Result& r) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    JobOutcome o;
    o.ok = res[i].ok();
    o.error = "validate: " + res[i].validation_error;
    o.digest = runner::fnv1a64(serialize_stats(res[i].stats));
    check_pin(cells[i], o, pins, writing);
    ++r.attempted;
    if (!o.ok) {
      ++r.failed;
      if (r.failed <= 20) r.notes.push_back("FAIL " + o.error);
    }
  }
}

}  // namespace

void workload_warm_rerun(const RunArgs& a, PinTable& pins, Result& r) {
  namespace fs = std::filesystem;
  const std::vector<Cell> cells = warm_cells(a.seed);
  constexpr int kFills = 3;

  // Set-up: fill a fresh cache, several times for a steady median.
  std::vector<double> fills;
  std::string cache_dir;
  for (int f = 0; f < (a.write_pins ? 1 : kFills); ++f) {
    cache_dir = a.work_dir + "/cache-" + std::to_string(f);
    fs::remove_all(cache_dir);
    Tracer off(false);
    runner::RunnerTotals tot;
    const double w0 = wall_now();
    std::vector<ExperimentResult> res;
    try {
      res = runner_pass(cells, warm_options(cache_dir, a.work_dir), off, tot);
    } catch (const std::exception& e) {
      r.attempted += cells.size();
      r.failed += cells.size();
      r.notes.push_back(std::string("FAIL cache fill threw: ") + e.what());
      return;
    }
    fills.push_back(wall_now() - w0);
    if (f == 0) check_results(cells, res, pins, a.write_pins, r);
    if (f > 0) fs::remove_all(a.work_dir + "/cache-" + std::to_string(f - 1));
  }
  if (a.write_pins) return;

  // Timed phase: a fresh Runner per pass, so every job is a cache load.
  // Traced runs alternate untraced and traced passes.
  const runner::RunnerOptions opts = warm_options(cache_dir, a.work_dir);
  std::vector<double> wall, cpu, aps, wall_t, get_us, manifest_ms;
  std::vector<Tracer> traced_spans;
  std::vector<const Stats*> st;
  std::vector<ExperimentResult> first;
  runner::RunnerTotals first_totals;
  const double deadline = wall_now() + a.seconds;
  for (int pass = 0;; ++pass) {
    const bool traced = a.trace && pass % 2 == 1;
    Tracer off(false);
    Tracer& tr = traced ? traced_spans.emplace_back(true) : off;
    runner::RunnerTotals tot;
    std::vector<ExperimentResult> res;
    const double w0 = wall_now();
    const double c0 = process_cpu();
    try {
      res = runner_pass(cells, opts, tr, tot);
    } catch (const std::exception& e) {
      r.attempted += cells.size();
      r.failed += cells.size();
      r.notes.push_back(std::string("FAIL warm pass threw: ") + e.what());
      return;
    }
    const double c1 = process_cpu();
    const double w1 = wall_now();
    check_results(cells, res, pins, false, r);
    if (tot.executed != 0 || tot.cache_hits != cells.size()) {
      r.failed += tot.executed;
      r.checks_ok = false;
      r.notes.push_back("FAIL warm pass executed " +
                        std::to_string(tot.executed) + " simulations");
    }
    if (pass == 0) {
      first = std::move(res);
      first_totals = tot;
      for (const ExperimentResult& e : first) st.push_back(&e.stats);
    }
    const double accesses = static_cast<double>(total_accesses(st));
    if (traced) {
      wall_t.push_back(w1 - w0);
      get_us.push_back(span_mean(tr, "get", static_cast<double>(cells.size())) * 1e6);
      manifest_ms.push_back(span_mean(tr, "~Runner", 1.0) * 1e3);
    } else {
      wall.push_back(w1 - w0);
      cpu.push_back(c1 - c0);
      aps.push_back(ratio(accesses, c1 - c0));
    }
    const int min_passes = a.trace ? 4 : 3;
    if (pass + 1 >= min_passes && wall_now() >= deadline) break;
  }

  if (!a.trace) {
    host_metrics(quantile(wall, 0), quantile(cpu, 0), quantile(aps, 1), wall,
                 fills, r);
    model_metrics(cells, st, r);
    return;
  }

  layer_counts(cells, st, r);
  auto& m = r.metrics;
  const double n = static_cast<double>(cells.size());
  m["runner.get_us"] = median(get_us);
  m["runner.manifest_ms"] = median(manifest_ms);
  m["runner.hit_ratio"] = ratio(static_cast<double>(first_totals.cache_hits),
                                static_cast<double>(first_totals.submitted));
  m["runner.executed"] = static_cast<double>(first_totals.executed);
  m["span.overhead_s"] = median(wall_t) - median(wall);

  // One-off spans over the layers the Runner calls internally.
  Tracer extra(true);
  const runner::ResultCache cache(cache_dir);
  const runner::ResultCache scratch(a.work_dir + "/cache-store");
  double blob_bytes = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    std::optional<runner::JobSpec> spec;
    {
      Scope s(extra, "runner", "make_job_spec");
      spec.emplace(runner::make_job_spec(cells[i].workload, cells[i].cfg));
    }
    std::optional<ExperimentResult> hit;
    {
      Scope s(extra, "runner", "ResultCache::load");
      hit = cache.load(*spec);
    }
    std::string blob;
    {
      Scope s(extra, "stats", "serialize_stats");
      blob = serialize_stats(first[i].stats);
    }
    blob_bytes += static_cast<double>(blob.size());
    Stats back;
    bool parsed = false;
    {
      Scope s(extra, "stats", "deserialize_stats");
      parsed = deserialize_stats(blob, back);
    }
    {
      Scope s(extra, "runner", "ResultCache::store");
      scratch.store(*spec, first[i]);
    }
    if (!hit || !parsed || serialize_stats(hit->stats) != blob) {
      r.checks_ok = false;
      if (r.notes.size() < 20) {
        r.notes.push_back("FAIL direct cache load differs for " +
                          cells[i].pin_key());
      }
    }
  }
  fs::remove_all(a.work_dir + "/cache-store");
  m["runner.jobspec_us"] = span_mean(extra, "make_job_spec", n) * 1e6;
  m["runner.cache_load_us"] = span_mean(extra, "ResultCache::load", n) * 1e6;
  m["runner.cache_store_us"] = span_mean(extra, "ResultCache::store", n) * 1e6;
  m["stats.serialize_us"] = span_mean(extra, "serialize_stats", n) * 1e6;
  m["stats.deserialize_us"] = span_mean(extra, "deserialize_stats", n) * 1e6;
  m["stats.blob_bytes"] = blob_bytes / n;
  run_isolation_cells(r);
  self_times(traced_spans, r);
  traced_spans.front().write_json(a.work_dir + "/../spans-" + a.workload +
                                  ".json");
}

}  // namespace perfbench
