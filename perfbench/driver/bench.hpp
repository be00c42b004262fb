// Shared pieces of the asfsim benchmark driver (perfbench/README.md).
//
// The driver measures the simulator from OUTSIDE: it calls the library's
// public functions in the same order run_experiment does and wraps each
// call in a host-time span. Nothing here changes what is simulated.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/detector.hpp"
#include "harness/experiment.hpp"

namespace perfbench {

// ---- host clocks -------------------------------------------------------
[[nodiscard]] double wall_now();       // steady clock, seconds
[[nodiscard]] double process_cpu();    // user+sys of every thread, seconds

// ---- spans ---------------------------------------------------------------
/// One timed call into a layer. `parent` indexes the enclosing span (-1 at
/// the top), so a layer's self time is its duration minus its children's.
struct Span {
  const char* layer;
  const char* name;
  double t0 = 0;
  double t1 = 0;
  int parent = -1;
};

/// In-memory span recorder. Disabled, begin()/end() cost one branch, which
/// is how the untraced runs measure the end-to-end metrics.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const { return on_; }
  int begin(const char* layer, const char* name);
  void end(int id);
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time per layer over every recorded span.
  [[nodiscard]] std::map<std::string, double> self_by_layer() const;
  /// Chrome trace-event JSON of every span (chrome://tracing, Perfetto).
  void write_json(const std::string& path) const;

 private:
  bool on_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// RAII span: begin at construction, end at scope exit.
class Scope {
 public:
  Scope(Tracer& t, const char* layer, const char* name)
      : t_(t), id_(t.begin(layer, name)) {}
  ~Scope() { t_.end(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  int id_;
};

// ---- cells and pinned results ----------------------------------------------
/// Trace-file sinks a cell streams its event timeline to (`observed`).
/// Provenance and cm-stats live in cfg.sim: they change the stats blob.
struct Observe {
  bool jsonl = false;
  bool perfetto = false;
};

/// One (workload × detector × nsub × seed × sinks) simulation.
struct Cell {
  std::string label;  // benchmark family + workload, e.g. "paper:kmeans"
  std::string workload;
  asfsim::ExperimentConfig cfg;
  Observe obs;
  /// Stable identity in the pin table: label/detector/nsub/scale[/prov]
  /// [/cm-stats]; the seed is the table's second column. Trace sinks are
  /// left out: they never change the stats blob.
  [[nodiscard]] std::string pin_key() const;
};

/// What one job produced, plus the host time of each public step.
struct JobOutcome {
  bool ok = false;          // ran, validated, and (if pinned) matched
  std::string error;        // why not
  std::string blob;         // serialize_stats(...) of the run
  std::uint64_t digest = 0;  // FNV-1a 64 of blob
  asfsim::Stats stats;
  double setup_s = 0;       // Machine ctor + make_workload + setup (wall)
  double run_cpu_s = 0;     // thread CPU inside Machine::run
  double wall_s = 0;        // the whole job, as run_pass times it
  double cpu_s = 0;
  std::uint64_t trace_events = 0;  // JSONL lines; counted in traced runs only
  std::uint64_t trace_bytes = 0;
  std::uint64_t prov_sites = 0;
};

/// cell key + seed -> 16-hex-digit digest.
class PinTable {
 public:
  void load(const std::string& path);
  void save(const std::string& path) const;
  /// Empty when the cell is not pinned.
  [[nodiscard]] std::string find(const Cell& c) const;
  void put(const Cell& c, const std::string& digest_hex);
  [[nodiscard]] std::size_t size() const { return pins_.size(); }

 private:
  std::map<std::string, std::string> pins_;  // "<key> <seed>" -> digest
};

/// Span name of the traced-only count of JSONL events (trace.events).
inline constexpr const char* kCountEventsSpan = "count trace events";

/// Runs one cell through Machine ctor -> make_workload + setup ->
/// Machine::run -> validate -> serialize_stats, the steps run_experiment
/// takes, with a span around each. Exceptions become a failed outcome.
/// `work_dir` receives trace files (removed again before returning).
JobOutcome run_cell(const Cell& c, Tracer& tr, const std::string& work_dir);

/// Checks an outcome against the pin table (a mismatch fails the job).
/// In pin-writing mode the digest is recorded instead.
void check_pin(const Cell& c, JobOutcome& o, PinTable& pins, bool writing);

// ---- the simulation-pool seeds ------------------------------------------
/// Seeds with pinned digests. --seed n selects kSeedPool[n % size]; the
/// last one is held out from tuning (README.md, "Seeds").
inline constexpr std::uint64_t kSeedPool[] = {1, 2, 3, 4, 5, 6, 7, 8, 9, 10};
inline constexpr std::size_t kSeedPoolSize = std::size(kSeedPool);
[[nodiscard]] std::uint64_t pool_seed(std::uint64_t cli_seed);

// ---- results ---------------------------------------------------------------
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool checks_ok = true;                  // non-job checks (coverage, ...)
  std::vector<std::string> notes;         // printed as "# ..." lines
  std::map<std::string, double> metrics;  // name -> value
};

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10;
  bool trace = false;
  std::string pins_path;
  std::string work_dir;
  bool write_pins = false;
};

/// q-quantile of `v` with linear interpolation (0 for empty input).
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Timed loops over public functions that end-to-end spans cannot separate
/// (README.md, "Layer-isolation cells"). Adds the `*_ns` metrics.
void run_isolation_cells(Result& r);

/// The four workloads. Each fills `r`; `pins` is read (or written).
void workload_paper_sweep(const RunArgs& a, PinTable& pins, Result& r);
void workload_oltp_contended(const RunArgs& a, PinTable& pins, Result& r);
void workload_observed(const RunArgs& a, PinTable& pins, Result& r);
void workload_warm_rerun(const RunArgs& a, PinTable& pins, Result& r);

/// Self-tests of the benchmark itself; returns the number of failures.
int run_selftests(const RunArgs& a, PinTable& pins);

}  // namespace perfbench
