// Runner subsystem: JobSpec canonicalization/hashing, Stats serialization
// (every blob row round-trips; the bytes match the pre-table goldens), and
// — the stale-result guard — result-cache hit/miss behaviour when a
// SimConfig field changes.
#include <gtest/gtest.h>

#include <algorithm>
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
#include "stats_rows.hpp"

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

std::vector<std::string> lines_of(const std::string& blob) {
  std::vector<std::string> out;
  std::size_t at = 0;
  for (std::size_t nl; (nl = blob.find('\n', at)) != std::string::npos;
       at = nl + 1) {
    out.push_back(blob.substr(at, nl - at));
  }
  return out;
}

/// Bumping a row changes exactly that row's line and round-trips, every
/// other row included. A section gate turns its section off instead: its
/// blob only loses lines (and the gate's line and the header may change).
template <class T>
void expect_row_round_trips(const StatsField<T>& f, const Stats& base) {
  SCOPED_TRACE(std::string(f.key));
  Stats bumped = base;
  stats_rows::bump(bumped.*f.member);
  const std::string blob = serialize_stats(bumped);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_EQ(serialize_stats(back), blob);
  EXPECT_TRUE(back.*f.member == bumped.*f.member);

  const std::vector<std::string> before = lines_of(serialize_stats(base));
  const std::vector<std::string> after = lines_of(blob);
  const std::string prefix = std::string(f.key) + " ";
  if (f.key == "prov_enabled" || f.key == "cm_enabled") {
    EXPECT_LT(after.size(), before.size());
    for (std::size_t i = 1; i < after.size(); ++i) {
      if (after[i].rfind(prefix, 0) == 0) continue;
      EXPECT_NE(std::find(before.begin(), before.end(), after[i]),
                before.end())
          << after[i];
    }
    return;
  }
  ASSERT_EQ(after.size(), before.size());
  std::vector<std::string> changed;
  for (std::size_t i = 0; i < after.size(); ++i) {
    if (after[i] != before[i]) changed.push_back(after[i]);
  }
  ASSERT_EQ(changed.size(), 1u);
  EXPECT_EQ(changed[0].rfind(prefix, 0), 0u) << changed[0];
  const auto same = [&](const auto& g) {
    EXPECT_TRUE(back.*g.member == bumped.*g.member) << g.key;
  };
  std::apply([&](const auto&... g) { (same(g), ...); }, kStatsFields);
}

TEST(StatsSerialize, RoundTripsEveryField) {
  const Stats base = stats_rows::sample();
  ASSERT_TRUE(base.prov_enabled && base.cm_enabled);
  std::apply([&](const auto&... f) { (expect_row_round_trips(f, base), ...); },
             kStatsFields);
}

TEST(StatsSerialize, BlobMatchesParentGoldens) {
  // FNV-1a of the blobs the hand-written serialize_stats (before the row
  // table) produced for these inputs; stats_rows::blob_hashes names them.
  const std::map<std::string, std::string> golden = {
      {"bump aborts_by_cause", "5369244b9eeff438"},
      {"bump accesses", "b6dec4708fa51ee7"},
      {"bump ats_serialized", "4f06b8954d8bc09a"},
      {"bump backoff_cycles", "96acec72b5c226a2"},
      {"bump bus_wait_cycles", "efddce8a14c26896"},
      {"bump c2c_transfers", "92c4ca547366f72e"},
      {"bump cm_enabled", "3655b6cdcdd59b83"},
      {"bump cm_fallback_acquisitions", "2c4ca1c72ebd1b2e"},
      {"bump cm_first_commit_cycle", "41bd378c91876348"},
      {"bump cm_max_consec_aborts", "fe863d24f7baf86c"},
      {"bump cm_policy_decisions", "b190f005a84d19a8"},
      {"bump cm_requester_losses", "66cbfb26e7582172"},
      {"bump cm_wasted_by_core", "64068b4f6ef07f70"},
      {"bump conflicts_false", "bb8af277dbd78bd6"},
      {"bump conflicts_total", "250b2fd38bbbd2ce"},
      {"bump dirty_refetches", "6127535a01a0d4ec"},
      {"bump fallback_runs", "154334ff8ebd928a"},
      {"bump false_by_line", "d840bd7d7e5658c2"},
      {"bump false_by_type", "4c6e0a34270a3042"},
      {"bump false_conflict_cycles", "2235f0dac2586e48"},
      {"bump false_conflicts_avoided", "4b7c309a70f53a28"},
      {"bump false_surviving_at", "f85bd4d6f4143328"},
      {"bump l1_hits", "56cafc659cfa9de6"},
      {"bump l2_hits", "10d26f33faf24bb6"},
      {"bump l3_hits", "62431f7fa6559f42"},
      {"bump mem_fetches", "cc9c5646ae43e412"},
      {"bump piggyback_messages", "4f0518f843f355e4"},
      {"bump probes_sent", "8a68bacb1ff6d0a2"},
      {"bump prov_enabled", "f8587057c3e37153"},
      {"bump prov_hot_lines", "ddf82e0bc9074c92"},
      {"bump prov_pairs", "8344d95c1ec18508"},
      {"bump prov_site_names", "29ff5c61926f60b5"},
      {"bump prov_site_table", "199aef91efbba610"},
      {"bump record_timeseries", "9a52c80cf11ec790"},
      {"bump total_cycles", "6a540c0fefabcdbe"},
      {"bump true_by_type", "0624d0d079fb92c8"},
      {"bump tx_aborts", "4c408f59f335dbd8"},
      {"bump tx_access_by_offset", "8a6f72ec1ac1b5f6"},
      {"bump tx_accesses", "d6c550ce29abb502"},
      {"bump tx_attempts", "4596fc053f398cbe"},
      {"bump tx_busy_cycles", "830c96433a21afb2"},
      {"bump tx_commits", "50ab2a32e446af76"},
      {"bump tx_duration_hist", "e46a682949eebdd0"},
      {"bump tx_latency_hist", "9ab4a4d99249400a"},
      {"bump tx_read_lines_hist", "51f0e644b56af488"},
      {"bump tx_start_cycles", "b9ecb3b4d0222154"},
      {"bump tx_write_lines_hist", "49c8d7bac171bb3a"},
      {"bump upgrades", "9653b52795b9e3e9"},
      {"bump wasted_cycles", "b81af4362b423c62"},
      {"default", "827ad14f963ede91"},
      {"v3", "2baca35fbce6bf5f"},
      {"v4 prov", "3655b6cdcdd59b83"},
      {"v5 cm", "f8587057c3e37153"},
      {"v5 prov cm", "2c5003c72ebff78b"},
  };
  EXPECT_EQ(stats_rows::blob_hashes(), golden);
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
