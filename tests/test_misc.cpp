// Unit tests: GRing, GuestBarrier, Stats hooks, TextTable/CsvWriter, CLI
// parsing, logging.
#include <gtest/gtest.h>

#include <cstdio>
#include <deque>
#include <fstream>
#include <sstream>

#include "guest/barrier.hpp"
#include "guest/glist.hpp"
#include "guest/machine.hpp"
#include "harness/args.hpp"
#include "knob_fields.hpp"
#include "runner/job_spec.hpp"
#include "sim/log.hpp"
#include "stats/report.hpp"
#include "stats/txtrace.hpp"

namespace asfsim {
namespace {

SimConfig cores(std::uint32_t n) {
  SimConfig c;
  c.ncores = n;
  return c;
}

// ---- GRing ------------------------------------------------------------------

Task<void> ring_ops(GuestCtx& c, GRing* ring, std::deque<std::uint64_t>* model,
                    std::uint64_t seed, int nops, bool* mismatch) {
  Rng rng(seed);
  for (int i = 0; i < nops; ++i) {
    if (rng.chance(0.55)) {
      const std::uint64_t v = 1 + rng.below(1000);
      co_await ring->push(c, v);
      model->push_back(v);
    } else {
      const std::uint64_t v = co_await ring->pop(c);
      if (model->empty()) {
        if (v != 0) *mismatch = true;
      } else {
        if (v != model->front()) *mismatch = true;
        model->pop_front();
      }
    }
  }
}

class GRingModel : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GRingModel, FifoMatchesStdDeque) {
  Machine m(cores(1), DetectorKind::kBaseline);
  GRing ring = GRing::create(m, 2048);
  std::deque<std::uint64_t> model;
  bool mismatch = false;
  m.spawn(0, ring_ops(m.ctx(0), &ring, &model, GetParam() * 5 + 1, 1500,
                      &mismatch));
  m.run();
  EXPECT_FALSE(mismatch);
  EXPECT_EQ(ring.host_size(m), model.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, GRingModel, ::testing::Values(1, 2, 3));

TEST(GRing, HostPushInteroperatesWithGuestPop) {
  Machine m(cores(1), DetectorKind::kBaseline);
  GRing ring = GRing::create(m, 64);
  for (std::uint64_t v = 1; v <= 10; ++v) ring.host_push(m, v * 7);
  bool ok = true;
  auto drain = [](GuestCtx& c, GRing* r, bool* ok_out) -> Task<void> {
    for (std::uint64_t v = 1; v <= 10; ++v) {
      const std::uint64_t got = co_await r->pop(c);
      if (got != v * 7) *ok_out = false;
    }
    const std::uint64_t empty = co_await r->pop(c);
    if (empty != 0) *ok_out = false;
  };
  m.spawn(0, drain(m.ctx(0), &ring, &ok));
  m.run();
  EXPECT_TRUE(ok);
}

TEST(GRing, WrapsAroundItsCapacity) {
  Machine m(cores(1), DetectorKind::kBaseline);
  GRing ring = GRing::create(m, 8);
  bool ok = true;
  auto churn = [](GuestCtx& c, GRing* r, bool* ok_out) -> Task<void> {
    for (std::uint64_t round = 1; round <= 40; ++round) {
      co_await r->push(c, round);
      const std::uint64_t got = co_await r->pop(c);
      if (got != round) *ok_out = false;
    }
  };
  m.spawn(0, churn(m.ctx(0), &ring, &ok));
  m.run();
  EXPECT_TRUE(ok);
  EXPECT_EQ(ring.host_size(m), 0u);
}

// ---- GuestBarrier -------------------------------------------------------------

Task<void> barrier_worker(GuestCtx& c, GuestBarrier* bar, Cycle jitter,
                          int* arrived, std::vector<int>* seen_at_release) {
  co_await c.wait(jitter);
  ++*arrived;
  co_await bar->arrive_and_wait(c);
  // Everyone observes the FULL arrival count after release — nobody got
  // through early.
  seen_at_release->push_back(*arrived);
}

TEST(GuestBarrier, NobodyPassesBeforeTheLastArrival) {
  Machine m(cores(4), DetectorKind::kBaseline);
  GuestBarrier bar(m.kernel(), 4);
  int arrived = 0;
  std::vector<int> seen;
  for (CoreId c = 0; c < 4; ++c) {
    m.spawn(c, barrier_worker(m.ctx(c), &bar, 137 * c + 1, &arrived, &seen));
  }
  m.run();
  ASSERT_EQ(seen.size(), 4u);
  for (const int v : seen) EXPECT_EQ(v, 4);
}

TEST(GuestBarrier, IsReusableAcrossPhases) {
  Machine m(cores(3), DetectorKind::kBaseline);
  GuestBarrier bar(m.kernel(), 3);
  int phase_errors = 0;
  int phase = 0;
  auto worker = [](GuestCtx& c, GuestBarrier* b, int* ph, int* errs,
                   bool leader) -> Task<void> {
    for (int p = 0; p < 5; ++p) {
      co_await b->arrive_and_wait(c);
      if (leader) ++*ph;
      co_await b->arrive_and_wait(c);
      if (*ph != p + 1) ++*errs;
      co_await c.wait(50 + 13 * c.core());
    }
  };
  for (CoreId c = 0; c < 3; ++c) {
    m.spawn(c, worker(m.ctx(c), &bar, &phase, &phase_errors, c == 0));
  }
  m.run();
  EXPECT_EQ(phase_errors, 0);
  EXPECT_EQ(phase, 5);
}

TEST(GuestBarrier, UnreachedBarrierIsDetectedAsDeadlock) {
  Machine m(cores(2), DetectorKind::kBaseline);
  GuestBarrier bar(m.kernel(), 3);  // one party will never come
  auto arrive = [](GuestCtx& c, GuestBarrier* b) -> Task<void> {
    co_await b->arrive_and_wait(c);
  };
  m.spawn(0, arrive(m.ctx(0), &bar));
  m.spawn(1, arrive(m.ctx(1), &bar));
  EXPECT_THROW(m.run(), DeadlockError);
}

// ---- Stats hooks -----------------------------------------------------------

TEST(Stats, ConflictHookClassifiesAndBins) {
  Stats s;
  s.record_timeseries = true;
  ConflictRecord rec;
  rec.line = 0x1000;
  rec.cycle = 42;
  rec.is_false = true;
  rec.type = ConflictType::kRAW;
  rec.probe_bytes = byte_mask(0, 4);
  rec.victim_bytes = byte_mask(4, 4);  // adjacent word: survives 2..8, not 16
  s.on_conflict(rec);
  EXPECT_EQ(s.conflicts_total, 1u);
  EXPECT_EQ(s.conflicts_false, 1u);
  EXPECT_EQ(s.false_by_type[1], 1u);
  EXPECT_EQ(s.false_by_line[0x1000], 1u);
  EXPECT_EQ(s.false_conflict_cycles.size(), 1u);
  EXPECT_EQ(s.false_surviving_at[0], 1u);  // 1 sub-block
  EXPECT_EQ(s.false_surviving_at[3], 1u);  // 8 sub-blocks: same 8B block
  EXPECT_EQ(s.false_surviving_at[4], 0u);  // 16 sub-blocks: separated
}

TEST(Stats, DerivedRates) {
  Stats s;
  EXPECT_EQ(s.false_conflict_rate(), 0.0);
  EXPECT_EQ(s.avg_retries(), 0.0);
  s.conflicts_total = 10;
  s.conflicts_false = 4;
  s.tx_attempts = 30;
  s.tx_commits = 20;
  EXPECT_DOUBLE_EQ(s.false_conflict_rate(), 0.4);
  EXPECT_DOUBLE_EQ(s.avg_retries(), 0.5);
}

// ---- report helpers -----------------------------------------------------------

TEST(TextTable, AlignsColumnsAndFormats) {
  TextTable t({"a", "long-header"});
  t.add_row({"xxxxxxxx", "1"});
  std::ostringstream os;
  t.print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("long-header"), std::string::npos);
  EXPECT_NE(out.find("xxxxxxxx"), std::string::npos);
  EXPECT_NE(out.find("----"), std::string::npos);
  EXPECT_EQ(TextTable::pct(0.1234), "12.3%");
  EXPECT_EQ(TextTable::num(1.5, 1), "1.5");
}

TEST(CsvWriter, InactiveWithoutDirActiveWithIt) {
  CsvWriter off("", "x");
  EXPECT_FALSE(off.active());
  off.row({"never", "written"});  // must be a safe no-op

  const std::string dir = ::testing::TempDir();
  CsvWriter on(dir, "misc_test");
  EXPECT_TRUE(on.active());
  on.row({"h1", "h2"});
  on.row({"1", "2"});
}

// ---- CLI parsing ----------------------------------------------------------------

CliOptions parse(std::vector<std::string> args) {
  args.insert(args.begin(), "prog");
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  return parse_cli(static_cast<int>(argv.size()), argv.data());
}

/// Keys of the canonical lines that differ between two configs' specs.
std::vector<std::string> changed_keys(const ExperimentConfig& a,
                                      const ExperimentConfig& b) {
  std::istringstream sa(runner::make_job_spec("counter", a).canonical);
  std::istringstream sb(runner::make_job_spec("counter", b).canonical);
  std::vector<std::string> keys;
  for (std::string la, lb; std::getline(sa, la) && std::getline(sb, lb);) {
    if (la != lb) keys.push_back(la.substr(0, la.find(' ')));
  }
  return keys;
}

/// A value for row k other than its default that passes the row's range:
/// the next one up, else the floor of the range.
std::string non_default(const knobs::Knob& k) {
  ExperimentConfig c;
  knob_fields::bump(k.type, knobs::field(k, c));
  const std::string up = knobs::show(k, knobs::field(k, c));
  ExperimentConfig probe;
  if (knobs::parse(k, knobs::field(k, probe), up)) return up;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", k.lo);
  return buf;
}

// Parsing `<flag> <non-default value>` for every row's flag changes exactly
// the field the row's jobspec key reads.
TEST(Cli, ParsesAllFlags) {
  ExperimentConfig defaults;
  for (const knobs::Knob& k : knobs::kKnobs) {
    if (k.flag == nullptr) continue;
    std::vector<std::string> args = {k.flag};
    if (k.type != knobs::Type::kBool) args.push_back(non_default(k));
    CliOptions o = parse(args);
    if (k.key == nullptr) {  // host-only: the field moves, the spec does not
      EXPECT_NE(knobs::show(k, knobs::field(k, o.cfg)),
                knobs::show(k, knobs::field(k, defaults)))
          << k.flag;
      EXPECT_TRUE(changed_keys(o.cfg, defaults).empty()) << k.flag;
      continue;
    }
    EXPECT_EQ(changed_keys(o.cfg, defaults), std::vector<std::string>{k.key})
        << k.flag << " " << args.back();
  }
  const CliOptions o =
      parse({"--csv", "/tmp/x", "--jobs", "3", "--no-cache", "--trace-dir",
             "t", "--trace-format", "perfetto"});
  EXPECT_EQ(o.csv_dir, "/tmp/x");
  EXPECT_EQ(o.jobs, 3u);
  EXPECT_TRUE(o.no_cache);
  EXPECT_EQ(o.trace_dir, "t");
  EXPECT_EQ(o.trace_format, TraceFormat::kPerfetto);
}

TEST(Cli, DefaultsApply) {
  const char* argv[] = {"prog"};
  const CliOptions o = parse_cli(1, const_cast<char**>(argv), 0.5);
  EXPECT_DOUBLE_EQ(o.cfg.params.scale, 0.5);
  EXPECT_EQ(o.cfg.params.threads, 8u);
  EXPECT_EQ(o.cfg.params.seed, 1u);
  EXPECT_TRUE(o.csv_dir.empty());
}

TEST(Cli, EnumAliasesStillParse) {
  DetectorKind d = DetectorKind::kPerfect;
  EXPECT_TRUE(knobs::parse_name("baseline", d));
  EXPECT_EQ(d, DetectorKind::kBaseline);
  EXPECT_TRUE(knobs::parse_name("baseline-asf", d));
  EXPECT_EQ(d, DetectorKind::kBaseline);
  EXPECT_TRUE(knobs::parse_name("waronly", d));
  EXPECT_EQ(d, DetectorKind::kWarOnly);
  EXPECT_TRUE(knobs::parse_name("war-only", d));
  EXPECT_EQ(d, DetectorKind::kWarOnly);
  EXPECT_FALSE(knobs::parse_name("subblock4", d));
  CmPolicyKind p = CmPolicyKind::kSerialize;
  EXPECT_TRUE(knobs::parse_name("requester-loses", p));
  EXPECT_EQ(p, CmPolicyKind::kPolite);
  ProtocolMutation m = ProtocolMutation::kSkipWrittenMask;
  EXPECT_TRUE(knobs::parse_name("", m));
  EXPECT_EQ(m, ProtocolMutation::kNone);
  OltpMix mix = OltpMix::kA;
  EXPECT_TRUE(knobs::parse_name("custom", mix));
  EXPECT_EQ(mix, OltpMix::kCustom);
}

TEST(Cli, BadValuesExitTwoWithOneLine) {
  const std::pair<std::vector<std::string>, const char*> cases[] = {
      {{"--threads", "-1"}, "bad value '-1' for --threads \\(an integer in"},
      {{"--threads", "0"}, "bad value '0' for --threads"},
      {{"--seed", "12x"}, "bad value '12x' for --seed"},
      {{"--scale", "banana"}, "'banana' for --scale \\(a number >= 0"},
      {{"--oltp-theta", "abc"}, "bad value 'abc' for --oltp-theta"},
      {{"--oltp-theta", "nan"}, "bad value 'nan' for --oltp-theta"},
      {{"--oltp-payload", "12"}, "'12' for --oltp-payload \\(a multiple of 8"},
      {{"--cm-karma", "4294967296"}, "bad value '4294967296' for --cm-karma"},
      {{"--mutate", "drop-everything"}, "one of: none, drop-dirty-subblock"},
      {{"--trace-format", "xml"}, "bad value 'xml' for --trace-format"},
      {{"--threads"}, "missing value for --threads"},
      {{"--frobnicate"}, "unknown flag --frobnicate"},
  };
  for (const auto& [args, message] : cases) {
    EXPECT_EXIT((void)parse(args), ::testing::ExitedWithCode(2), message);
  }
}

// ---- TxTrace ----------------------------------------------------------------

TEST(TxTrace, RingKeepsTheMostRecentEvents) {
  TxTrace tr(4);
  for (std::uint32_t i = 0; i < 10; ++i) {
    tr.record({TxEventKind::kBegin, i, kInvalidCore, Cycle{i} * 10,
               AbortCause::kConflict, ConflictType::kWAR, false, 0});
  }
  EXPECT_EQ(tr.total_recorded(), 10u);
  const auto evs = tr.events();
  ASSERT_EQ(evs.size(), 4u);
  EXPECT_EQ(evs.front().core, 6u);
  EXPECT_EQ(evs.back().core, 9u);
  EXPECT_EQ(evs.back().cycle, 90u);
}

TEST(TxTrace, MachineIntegrationRecordsLifecycle) {
  SimConfig cfg;
  cfg.ncores = 2;
  Machine m(cfg, DetectorKind::kBaseline);
  TxTrace& tr = m.enable_trace(256);
  const Addr cell = m.galloc().alloc(64, 64);
  auto worker = [](GuestCtx& c, Addr a) -> Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await c.run_tx([&]() -> Task<void> {
        const std::uint64_t v = co_await c.load_u64(a);
        co_await c.store_u64(a, v + 1);
      });
    }
  };
  m.spawn(0, worker(m.ctx(0), cell));
  m.spawn(1, worker(m.ctx(1), cell));
  m.run();
  int begins = 0, commits = 0, aborts = 0, conflicts = 0;
  for (const auto& ev : tr.events()) {
    switch (ev.kind) {
      case TxEventKind::kBegin: ++begins; break;
      case TxEventKind::kCommit: ++commits; break;
      case TxEventKind::kAbort: ++aborts; break;
      case TxEventKind::kConflict: ++conflicts; break;
      default: break;
    }
  }
  EXPECT_EQ(commits, 10);
  EXPECT_EQ(begins, commits + aborts);
  EXPECT_EQ(aborts, conflicts) << "every abort here is conflict-caused";
  std::ostringstream os;
  tr.print(os);
  EXPECT_NE(os.str().find("commit"), std::string::npos);
}

TEST(TxTrace, DisabledTraceHasNoEffect) {
  SimConfig cfg;
  cfg.ncores = 1;
  Machine m(cfg, DetectorKind::kBaseline);
  EXPECT_EQ(m.trace(), nullptr);
}

// ---- logging ----------------------------------------------------------------

TEST(Log, LevelGateWorks) {
  set_log_level(LogLevel::kOff);
  EXPECT_EQ(log_level(), LogLevel::kOff);
  set_log_level(LogLevel::kTrace);
  EXPECT_EQ(log_level(), LogLevel::kTrace);
  ASFSIM_INFO("info message %d", 1);    // exercised, goes to stderr
  ASFSIM_TRACE("trace message %d", 2);
  set_log_level(LogLevel::kOff);
}

}  // namespace
}  // namespace asfsim
