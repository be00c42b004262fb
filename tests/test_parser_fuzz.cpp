// Property tests for the two on-disk parsers: the stats blob
// (serialize_stats / deserialize_stats) and the JSONL trace line parser
// (from_jsonl). Mutated and truncated inputs must be rejected cleanly —
// never crash, never allocate unbounded memory, never parse into values a
// canonical re-serialization cannot reproduce. CI runs this suite under
// ASan/UBSan, which turns "cleanly" into an enforced property.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "stats/serialize.hpp"
#include "trace/jsonl.hpp"

namespace asfsim {
namespace {

/// Real stats blobs with non-trivial content in every section: a v3 blob
/// (timeseries on, both opt-in sections off) and a v5 blob from a
/// --prov --cm-stats run, so the site-name parser and the cm section see
/// the same corruption as the core rows.
std::vector<std::string> sample_blobs() {
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  cfg.timeseries = true;  // populate the variable-length vectors too
  std::vector<std::string> out;
  out.push_back(serialize_stats(run_experiment("counter", cfg).stats));
  cfg.sim.provenance = true;
  cfg.sim.cm.stats = true;
  out.push_back(serialize_stats(run_experiment("counter", cfg).stats));
  EXPECT_EQ(out[0].rfind("asfsim-stats v3\n", 0), 0u);
  EXPECT_EQ(out[1].rfind("asfsim-stats v5\n", 0), 0u);
  EXPECT_EQ(out[1].find("\nprov_site_names 0\n"), std::string::npos);
  return out;
}

TEST(StatsFuzz, AcceptsOnlyTheExactBlobNoPrefix) {
  for (const std::string& blob : sample_blobs()) {
    Stats out;
    ASSERT_TRUE(deserialize_stats(blob, out));
    for (std::size_t len = 0; len < blob.size(); len += 3) {
      EXPECT_FALSE(deserialize_stats(blob.substr(0, len), out))
          << "accepted a " << len << "-byte prefix of a " << blob.size()
          << "-byte blob";
    }
  }
}

TEST(StatsFuzz, EveryByteCorruptionIsRejectedOrCanonicallyStable) {
  for (const std::string& blob : sample_blobs()) {
    Stats out;
    for (std::size_t pos = 0; pos < blob.size(); ++pos) {
      for (const unsigned char flip : {0x01, 0x10, 0x80}) {
        std::string mutated = blob;
        mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
        if (mutated == blob) continue;
        if (deserialize_stats(mutated, out)) {
          // A digit-for-digit flip yields a different but well-formed blob;
          // accepting it is fine iff the parse is canonically faithful.
          EXPECT_EQ(serialize_stats(out), mutated)
              << "pos " << pos << " flip " << int{flip}
              << ": accepted a non-canonical blob";
        }
      }
    }
  }
}

TEST(StatsFuzz, HugeCountFieldsNeverAllocate) {
  // A corrupted count must be rejected up front — not fed to reserve().
  // Make each variable-length row the blob carries claim 10^18 entries.
  Stats out;
  for (const std::string& blob : sample_blobs()) {
    for (const std::string key :
         {"false_by_line ", "tx_start_cycles ", "prov_site_names ",
          "prov_site_table ", "cm_max_consec_aborts "}) {
      const std::size_t pos = blob.find("\n" + key);
      if (pos == std::string::npos) {  // an opt-in row of the v3 blob
        EXPECT_EQ(blob.rfind("asfsim-stats v3\n", 0), 0u) << key;
        continue;
      }
      const std::size_t val = pos + 1 + key.size();
      const std::size_t end = blob.find_first_of(" \n", val);
      const std::string mutated =
          blob.substr(0, val) + "999999999999999999" + blob.substr(end);
      EXPECT_FALSE(deserialize_stats(mutated, out)) << key;
    }

    // And numbers too wide for uint64 must not wrap silently.
    std::string wide = blob;
    const std::size_t c = wide.find("tx_commits ");
    ASSERT_NE(c, std::string::npos);
    wide.insert(c + std::string("tx_commits ").size(),
                "184467440737095516160");
    EXPECT_FALSE(deserialize_stats(wide, out));
  }
}

TEST(StatsFuzz, GarbageInputsAreRejected) {
  Stats out;
  EXPECT_FALSE(deserialize_stats("", out));
  EXPECT_FALSE(deserialize_stats("asfsim-stats v3", out));  // header only
  EXPECT_FALSE(deserialize_stats("asfsim-stats v1\n", out));  // old version
  EXPECT_FALSE(deserialize_stats(std::string(4096, 'x'), out));
  EXPECT_FALSE(deserialize_stats(std::string(4096, '\0'), out));
}

// ---- trace JSONL -----------------------------------------------------------

/// Real trace lines of every kind the simulator emits. The capture file is
/// named after the calling test: ctest runs each TEST as its own process,
/// and a shared name races under -j (one test's cleanup deletes the file
/// another is still reading).
std::vector<std::string> sample_lines() {
  const std::string path =
      std::string("parser_fuzz_trace_") +
      ::testing::UnitTest::GetInstance()->current_test_info()->name() +
      ".jsonl";
  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.params.threads = 4;
  cfg.params.scale = 0.25;
  cfg.sim.ncores = 4;
  TraceOptions trace;
  trace.format = TraceFormat::kJsonl;
  trace.path = path;
  (void)run_experiment("counter", cfg, trace);

  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line) && lines.size() < 200) {
    if (!line.empty()) lines.push_back(line);
  }
  std::filesystem::remove(path);
  return lines;
}

TEST(TraceFuzz, ParsesWhatItWrites) {
  const auto lines = sample_lines();
  ASSERT_GT(lines.size(), 10u);
  trace::TraceEvent ev;
  for (const std::string& line : lines) {
    ASSERT_TRUE(trace::from_jsonl(line, ev)) << line;
    std::string back;
    trace::to_jsonl(ev, back);
    EXPECT_EQ(back, line + "\n") << line;
  }
}

TEST(TraceFuzz, RejectsEveryTruncation) {
  const auto lines = sample_lines();
  ASSERT_FALSE(lines.empty());
  trace::TraceEvent ev;
  for (std::size_t li = 0; li < lines.size(); li += 7) {
    const std::string& line = lines[li];
    for (std::size_t len = 0; len < line.size(); ++len) {
      EXPECT_FALSE(trace::from_jsonl(line.substr(0, len), ev))
          << "accepted truncation of: " << line;
    }
  }
}

TEST(TraceFuzz, ByteCorruptionIsRejectedOrSemanticallyFaithful) {
  const auto lines = sample_lines();
  ASSERT_FALSE(lines.empty());
  trace::TraceEvent ev;
  for (std::size_t li = 0; li < lines.size(); li += 11) {
    const std::string& line = lines[li];
    for (std::size_t pos = 0; pos < line.size(); ++pos) {
      std::string mutated = line;
      mutated[pos] = static_cast<char>(mutated[pos] ^ 0x08);
      if (mutated == line) continue;
      if (trace::from_jsonl(mutated, ev)) {
        // Accepted input must round-trip stably: re-serializing the parsed
        // event and parsing that again yields the identical event bytes.
        std::string back;
        trace::to_jsonl(ev, back);
        trace::TraceEvent ev2;
        ASSERT_TRUE(trace::from_jsonl(back, ev2)) << mutated;
        std::string back2;
        trace::to_jsonl(ev2, back2);
        EXPECT_EQ(back, back2) << "unstable parse of: " << mutated;
      }
    }
  }
}

TEST(TraceFuzz, GarbageLinesAreRejected) {
  trace::TraceEvent ev;
  EXPECT_FALSE(trace::from_jsonl("", ev));
  EXPECT_FALSE(trace::from_jsonl("{}", ev));
  EXPECT_FALSE(trace::from_jsonl("{\"kind\":\"nope\"}", ev));
  EXPECT_FALSE(trace::from_jsonl("not json at all", ev));
  EXPECT_FALSE(trace::from_jsonl(std::string(8192, '{'), ev));
  EXPECT_FALSE(trace::from_jsonl(
      "{\"kind\":\"commit\",\"cycle\":99999999999999999999999999}", ev));
}

}  // namespace
}  // namespace asfsim
