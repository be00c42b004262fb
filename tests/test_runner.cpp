// Runner subsystem: JobSpec canonicalization/hashing, Stats serialization
// round trips, and — the stale-result guard — result-cache hit/miss
// behaviour when a SimConfig field changes.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "knob_fields.hpp"
#include "runner/job_spec.hpp"
#include "runner/result_cache.hpp"
#include "runner/runner.hpp"
#include "runner/version.hpp"
#include "stats/serialize.hpp"

namespace asfsim {
namespace {

using runner::JobSpec;
using runner::make_job_spec;
using runner::ResultCache;
using runner::Runner;
using runner::RunnerOptions;

ExperimentConfig small_config() {
  ExperimentConfig cfg;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  return cfg;
}

/// Fresh per-test cache directory under the test's CWD.
class TempCacheDir {
 public:
  explicit TempCacheDir(const char* name)
      : path_(std::filesystem::path("runner_test_cache") / name) {
    std::filesystem::remove_all(path_);
  }
  ~TempCacheDir() { std::filesystem::remove_all(path_); }
  [[nodiscard]] std::string str() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

RunnerOptions cached_opts(const TempCacheDir& dir, unsigned jobs = 2) {
  RunnerOptions o;
  o.jobs = jobs;
  o.use_cache = true;
  o.cache_dir = dir.str();
  o.manifest_path = "-";
  o.progress = RunnerOptions::Progress::kOff;
  return o;
}

// ---- JobSpec ---------------------------------------------------------------

TEST(JobSpec, IdenticalConfigsHashIdentically) {
  const auto a = make_job_spec("counter", small_config());
  const auto b = make_job_spec("counter", small_config());
  EXPECT_EQ(a.canonical, b.canonical);
  EXPECT_EQ(a.hash_hex, b.hash_hex);
  EXPECT_EQ(a.hash_hex.size(), 16u);
}

std::vector<std::string> lines(const std::string& text) {
  std::vector<std::string> out;
  std::size_t pos = 0;
  for (std::size_t nl; (nl = text.find('\n', pos)) != std::string::npos;) {
    out.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  return out;
}

// One test over every row: bumping a field through its row changes exactly
// that row's line of the canonical text (so no two rows alias one field),
// and a field that is not hashed changes nothing.
TEST(JobSpec, EveryKnobChangesTheHash) {
  const JobSpec base = make_job_spec("counter", small_config());
  const std::vector<std::string> base_lines = lines(base.canonical);
  for (const knob_fields::LeafField& f : knob_fields::all()) {
    ExperimentConfig c = small_config();
    f.bump(c);
    const JobSpec v = make_job_spec("counter", c);
    if (f.row->key == nullptr) {
      EXPECT_EQ(v.canonical, base.canonical) << f.path;
      continue;
    }
    EXPECT_NE(v.hash_hex, base.hash_hex) << f.path;
    const std::vector<std::string> v_lines = lines(v.canonical);
    ASSERT_EQ(v_lines.size(), base_lines.size()) << f.path;
    int changed = 0;
    for (std::size_t i = 0; i < v_lines.size(); ++i) {
      if (v_lines[i] == base_lines[i]) continue;
      ++changed;
      EXPECT_EQ(v_lines[i].rfind(std::string(f.row->key) + " ", 0), 0u)
          << f.path << " changed the line " << v_lines[i];
    }
    EXPECT_EQ(changed, 1) << f.path;
  }
  // Not a field: the workload name.
  EXPECT_NE(make_job_spec("bank", small_config()).hash_hex, base.hash_hex);
}

// FNV-1a hashes of JobSpec::canonical as the hand-written v5 serializer
// produced it, before the knob table generated it: the default config, every
// leaf field bumped once (knob_fields::bump), and small_config(). The cache
// keys of every existing result depend on these; never regenerate them.
TEST(JobSpec, CanonicalMatchesTheV5Goldens) {
  const std::map<std::string, std::string> golden = {
    {"default", "431a8a752f0a7129"},
    {"workload=bank", "35cdb83c8b224c1d"},
    {"small_config", "5b087450aaea5779"},
    {"detector", "137693a712e17fca"},
    {"nsub", "bd55ed41b9dbfcec"},
    {"timeseries", "4d5f747678402bae"},
    {"max_cycles", "aa35328ef666ecb8"},
    {"params.threads", "cc2942bae9d05af8"},
    {"params.seed", "84ed62b8588a7c14"},
    {"params.scale", "781685cc1096f7a8"},
    {"sim.ncores", "dc2d91b02c471d6e"},
    {"sim.l1.size_bytes", "5abaa866bf1c51c4"},
    {"sim.l1.line_bytes", "20bc8443fc1dbcb6"},
    {"sim.l1.ways", "2b82f048a32621ce"},
    {"sim.l1.latency", "cffbf801ea1e0940"},
    {"sim.l2.size_bytes", "35ee87b70236fafa"},
    {"sim.l2.line_bytes", "337585ed938751dc"},
    {"sim.l2.ways", "07578a601a1766a6"},
    {"sim.l2.latency", "5f6506a18018161e"},
    {"sim.l3.size_bytes", "3361c8b50b036306"},
    {"sim.l3.line_bytes", "a108b6a25ab01b9c"},
    {"sim.l3.ways", "f3543ae84a5b51d2"},
    {"sim.l3.latency", "02440351c393e6ac"},
    {"sim.mem_latency", "6fc82e41e86dcd90"},
    {"sim.cache2cache_latency", "ce289f09237cfc82"},
    {"sim.upgrade_latency", "d59078d1d9879118"},
    {"sim.bus_occupancy", "3e2d2cc835d7ade0"},
    {"sim.probe_delay", "8b361ae789270c24"},
    {"sim.commit_latency", "25b66112ff5f37fc"},
    {"sim.abort_latency", "15b17c72e9453100"},
    {"sim.backoff_base", "9bb73fb10e33c83c"},
    {"sim.backoff_cap_shift", "646b83b27a6dc450"},
    {"sim.enable_ats", "b18279a770cee316"},
    {"sim.ats_alpha", "0018e6182b1df1b5"},
    {"sim.ats_threshold", "9f3991917d57f676"},
    {"sim.max_tx_retries", "de03e0bab5d35e86"},
    {"sim.max_capacity_aborts", "287ce67eca36ba44"},
    {"sim.watchdog_cycles", "ddc9715aa94d1466"},
    {"sim.fault.spurious_abort_rate", "03f011ce76b42a70"},
    {"sim.fault.commit_abort_rate", "17fec3c9d5535df0"},
    {"sim.fault.evict_rate", "a27f64fce1b2a7da"},
    {"sim.fault.probe_jitter", "ce65121ed11eb396"},
    {"sim.fault.sched_jitter", "2f2edf40a536d338"},
    {"sim.fault.mutation", "f64aa5e47ee37236"},
    {"params.oltp.records", "6a7ecb0abf41df02"},
    {"params.oltp.payload_bytes", "b9dd47b56f6887b2"},
    {"params.oltp.tx_len", "eb2e18fde2f7a842"},
    {"params.oltp.tx_per_thread", "cbfe41084c3665e4"},
    {"params.oltp.theta", "633b94ff7ffa6d2f"},
    {"params.oltp.read_ratio", "9809d054b72ecb32"},
    {"params.oltp.rmw_ratio", "18a19f26c5bfa8e8"},
    {"params.oltp.scan_ratio", "0de0cd6826228aea"},
    {"params.oltp.scan_len", "dbe4b24f3d8de22c"},
    {"params.oltp.mix", "cb6d26e6c1ad4d86"},
    {"params.oltp.hot_window", "0a11bad9a813d59e"},
    {"sim.provenance", "524c99c3882c3d30"},
    {"sim.cm.policy", "5d6acb24a82b5a20"},
    {"sim.cm.max_retries", "01428dc76f515fbe"},
    {"sim.cm.karma", "59cb66cab2a0e632"},
    {"sim.cm.stats", "431730752f07a264"},
    {"sim.seed", "431a8a752f0a7129"},
    {"wall_limit_s", "431a8a752f0a7129"},
  };
  std::map<std::string, std::string> now = {
      {"default", make_job_spec("counter", ExperimentConfig{}).hash_hex},
      {"workload=bank", make_job_spec("bank", ExperimentConfig{}).hash_hex},
      {"small_config", make_job_spec("counter", small_config()).hash_hex},
  };
  for (const knob_fields::LeafField& f : knob_fields::all()) {
    ExperimentConfig c;
    f.bump(c);
    now[f.path] = make_job_spec("counter", c).hash_hex;
  }
  EXPECT_EQ(now, golden);
}

TEST(JobSpec, MirrorsRunExperimentSeedOverride) {
  // run_experiment overwrites sim.seed with params.seed; a spec differing
  // only in the (ignored) sim.seed must map to the same job.
  auto a = small_config();
  a.sim.seed = 77;
  auto b = small_config();
  b.sim.seed = 99;
  EXPECT_EQ(make_job_spec("counter", a).hash_hex,
            make_job_spec("counter", b).hash_hex);
}

// ---- Stats serialization ---------------------------------------------------

TEST(StatsSerialize, RoundTripsEveryField) {
  ExperimentConfig cfg = small_config();
  cfg.timeseries = true;  // exercise the vector fields too
  const ExperimentResult r = run_experiment("counter", cfg);
  ASSERT_TRUE(r.ok()) << r.validation_error;
  ASSERT_GT(r.stats.tx_commits, 0u);

  const std::string blob = serialize_stats(r.stats);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_EQ(serialize_stats(back), blob);
  EXPECT_EQ(back.tx_commits, r.stats.tx_commits);
  EXPECT_EQ(back.conflicts_total, r.stats.conflicts_total);
  EXPECT_EQ(back.false_by_line, r.stats.false_by_line);
  EXPECT_EQ(back.tx_start_cycles, r.stats.tx_start_cycles);
}

TEST(StatsSerialize, RejectsCorruptBlobs) {
  Stats s;
  const std::string blob = serialize_stats(s);
  Stats out;
  EXPECT_TRUE(deserialize_stats(blob, out));
  EXPECT_FALSE(deserialize_stats(blob + "x", out));           // trailing junk
  EXPECT_FALSE(deserialize_stats(blob.substr(1), out));       // bad header
  EXPECT_FALSE(
      deserialize_stats(blob.substr(0, blob.size() - 4), out));  // truncated
}

// ---- Result cache ----------------------------------------------------------

TEST(ResultCache, MissThenHitRoundTripsTheResult) {
  TempCacheDir dir("roundtrip");
  ResultCache cache(dir.str());
  const JobSpec spec = make_job_spec("counter", small_config());
  EXPECT_FALSE(cache.load(spec).has_value());

  const ExperimentResult computed = run_experiment("counter", spec.config);
  cache.store(spec, computed);
  const auto loaded = cache.load(spec);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->workload, computed.workload);
  EXPECT_EQ(loaded->detector, computed.detector);
  EXPECT_EQ(loaded->validation_error, computed.validation_error);
  EXPECT_EQ(serialize_stats(loaded->stats), serialize_stats(computed.stats));
}

TEST(ResultCache, TamperedEntryIsAMissNotAWrongResult) {
  TempCacheDir dir("tamper");
  ResultCache cache(dir.str());
  const JobSpec spec = make_job_spec("counter", small_config());
  cache.store(spec, run_experiment("counter", spec.config));

  const std::string path = dir.str() + "/" +
                           std::string(runner::code_version_stamp()) + "/" +
                           spec.hash_hex + ".result";
  ASSERT_TRUE(std::filesystem::exists(path));
  std::ofstream(path, std::ios::app) << "garbage";
  EXPECT_FALSE(cache.load(spec).has_value());
}

// The satellite guard: mutating one SimConfig field must miss; re-running
// unchanged must hit without executing a simulation.
TEST(RunnerCache, ConfigMutationMissesUnchangedRerunHits) {
  TempCacheDir dir("mutation");
  const ExperimentConfig cfg = small_config();

  {
    Runner r(cached_opts(dir));
    (void)r.get("counter", cfg);
    EXPECT_EQ(r.totals().executed, 1u);
    EXPECT_EQ(r.totals().cache_hits, 0u);
  }
  {
    // One Table II latency changed: must be a miss (fresh simulation).
    ExperimentConfig mutated = cfg;
    mutated.sim.mem_latency += 1;
    Runner r(cached_opts(dir));
    (void)r.get("counter", mutated);
    EXPECT_EQ(r.totals().executed, 1u);
    EXPECT_EQ(r.totals().cache_hits, 0u);
  }
  {
    // Unchanged spec: must be a hit, zero simulations executed.
    Runner r(cached_opts(dir));
    const ExperimentResult cached = r.get("counter", cfg);
    EXPECT_EQ(r.totals().executed, 0u);
    EXPECT_EQ(r.totals().cache_hits, 1u);
    EXPECT_EQ(serialize_stats(cached.stats),
              serialize_stats(run_experiment("counter", cfg).stats));
  }
}

TEST(RunnerCache, NoCacheModeAlwaysExecutes) {
  TempCacheDir dir("nocache");
  auto opts = cached_opts(dir);
  opts.use_cache = false;
  {
    Runner r(opts);
    (void)r.get("counter", small_config());
  }
  Runner r(opts);
  (void)r.get("counter", small_config());
  EXPECT_EQ(r.totals().executed, 1u);
  EXPECT_EQ(r.totals().cache_hits, 0u);
}

TEST(Runner, DedupesIdenticalInFlightSpecs) {
  TempCacheDir dir("dedup");
  Runner r(cached_opts(dir, /*jobs=*/4));
  const ExperimentConfig cfg = small_config();
  auto f1 = r.submit("counter", cfg);
  auto f2 = r.submit("counter", cfg);
  (void)f1.get();
  (void)f2.get();
  EXPECT_EQ(r.totals().submitted, 1u);
  EXPECT_EQ(r.totals().deduped, 1u);
  EXPECT_EQ(r.totals().executed, 1u);
}

TEST(Runner, WritesMachineReadableManifest) {
  TempCacheDir dir("manifest");
  const std::string manifest = dir.str() + "/manifest.json";
  std::filesystem::create_directories(dir.str());
  {
    auto opts = cached_opts(dir);
    opts.manifest_path = manifest;
    Runner r(opts);
    (void)r.get("counter", small_config());
    (void)r.get("bank", small_config());
  }
  std::ifstream in(manifest);
  ASSERT_TRUE(in.is_open());
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  EXPECT_NE(text.find("\"executed\": 2"), std::string::npos) << text;
  EXPECT_NE(text.find("\"workload\": \"counter\""), std::string::npos);
  EXPECT_NE(text.find("\"wall_ms\""), std::string::npos);
  EXPECT_NE(text.find(runner::code_version_stamp()), std::string::npos);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

TEST(Runner, ManifestEmbedsFaultCountersWhenOptedIn) {
  TempCacheDir dir("fault_counters");
  const std::string manifest = dir.str() + "/manifest.json";
  std::filesystem::create_directories(dir.str());
  ExperimentConfig cfg = small_config();
  cfg.sim.fault.spurious_abort_rate = 0.01;  // high enough to actually fire
  cfg.sim.fault.probe_jitter = 3;
  {
    auto opts = cached_opts(dir);
    opts.manifest_path = manifest;
    opts.manifest_fault_counters = true;
    Runner r(opts);
    (void)r.get("counter", cfg);
    (void)r.get("counter", small_config());  // fault-free: no counters object
  }
  const std::string text = slurp(manifest);
  EXPECT_NE(text.find("\"fault_counters\": {"), std::string::npos) << text;
  EXPECT_NE(text.find("\"spurious_aborts\":"), std::string::npos) << text;
  EXPECT_NE(text.find("\"probe_jitter_cycles\":"), std::string::npos) << text;
  // Exactly one entry carries the object: the fault-free job omits it.
  const std::size_t first = text.find("\"fault_counters\"");
  EXPECT_EQ(text.find("\"fault_counters\"", first + 1), std::string::npos)
      << text;
}

TEST(Runner, ManifestOmitsFaultCountersByDefault) {
  TempCacheDir dir("fault_counters_off");
  const std::string manifest = dir.str() + "/manifest.json";
  std::filesystem::create_directories(dir.str());
  ExperimentConfig cfg = small_config();
  cfg.sim.fault.spurious_abort_rate = 0.01;
  {
    auto opts = cached_opts(dir);
    opts.manifest_path = manifest;  // manifest_fault_counters stays false
    Runner r(opts);
    (void)r.get("counter", cfg);
  }
  EXPECT_EQ(slurp(manifest).find("\"fault_counters\""), std::string::npos);
}

TEST(Runner, LivelockDumpLandsInManifestDiagnosticArray) {
  // Same no-forward-progress shape as asfsim_chaos livelock: the counter
  // workload's footprint overflows a tiny 1-way L1, every attempt capacity-
  // aborts, and the watchdog ends the run. The watchdog dump rides inside
  // LivelockError::what(); the manifest must split it into a one-line
  // "error" headline plus a "diagnostic" array.
  TempCacheDir dir("livelock_manifest");
  const std::string manifest = dir.str() + "/manifest.json";
  std::filesystem::create_directories(dir.str());
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
  {
    auto opts = cached_opts(dir);
    opts.manifest_path = manifest;
    opts.use_cache = false;
    Runner r(opts);
    EXPECT_THROW((void)r.get("counter", cfg), runner::JobError);
  }
  const std::string text = slurp(manifest);
  EXPECT_NE(text.find("\"status\": \"failed\""), std::string::npos) << text;
  EXPECT_NE(text.find("\"error\": \""), std::string::npos) << text;
  EXPECT_NE(text.find("livelock watchdog fired"), std::string::npos) << text;
  EXPECT_NE(text.find("\"diagnostic\": ["), std::string::npos) << text;
  // The headline "error" value itself must be single-line: no escaped
  // newline may appear anywhere (the dump was split, not embedded).
  EXPECT_EQ(text.find("\\n"), std::string::npos) << text;
  // Dump content made it into the array (per-core state + hot lines).
  EXPECT_NE(text.find("core "), std::string::npos) << text;
}

}  // namespace
}  // namespace asfsim
