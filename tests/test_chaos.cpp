// Chaos harness: clean controls stay green (with and without legal fault
// injection) and every protocol mutation is killed by at least one oracle —
// the same gate the chaos CI job enforces via asfsim_chaos (docs/robustness.md).
#include <gtest/gtest.h>

#include "fault/chaos.hpp"
#include "harness/knobs.hpp"

namespace asfsim {
namespace {

TEST(ChaosCell, CleanControlPassesBothOracles) {
  ChaosCell cell;  // subblock/4, seed 1, no faults, no mutation
  const ChaosCellResult r = run_chaos_cell(cell);
  EXPECT_EQ(r.verdict, ChaosVerdict::kClean) << r.detail;
  EXPECT_GT(r.commits, 0u);
}

TEST(ChaosCell, LegalFaultInjectionNeverTripsAnOracle) {
  // Spurious aborts, forced evictions, failed commits, and timing jitter are
  // all legal ASF behaviour: the retry loop must absorb them and the
  // committed history must still serialize.
  ChaosCell cell;
  cell.fault.spurious_abort_rate = 0.002;
  cell.fault.commit_abort_rate = 0.005;
  cell.fault.evict_rate = 0.001;
  cell.fault.probe_jitter = 3;
  cell.fault.sched_jitter = 2;
  const ChaosCellResult r = run_chaos_cell(cell);
  EXPECT_EQ(r.verdict, ChaosVerdict::kClean) << r.detail;
}

TEST(ChaosCell, BaselineDetectorControlIsClean) {
  ChaosCell cell;
  cell.detector = DetectorKind::kBaseline;
  cell.nsub = 1;
  const ChaosCellResult r = run_chaos_cell(cell);
  EXPECT_EQ(r.verdict, ChaosVerdict::kClean) << r.detail;
}

// Each of the three bookkeeping/liveness mutations added with the policy
// oracle must be killed by the specific oracle designed to see it (pinning
// the diagnosis, not just "some oracle fired").
TEST(ChaosCell, WrongSubblockIndexMathKilledByInvariantAuditor) {
  ChaosCell cell;  // subblock/4, seed 1
  cell.fault.mutation = ProtocolMutation::kWrongSubblockIndexMath;
  const ChaosCellResult r = run_chaos_cell(cell);
  EXPECT_EQ(r.verdict, ChaosVerdict::kInvariantViolation) << r.detail;
  EXPECT_NE(r.detail.find("sub-block bits disagree"), std::string::npos)
      << r.detail;
}

TEST(ChaosCell, StalePiggybackMaskKilledByInvariantAuditor) {
  ChaosCell cell;
  cell.fault.mutation = ProtocolMutation::kStalePiggybackMask;
  const ChaosCellResult r = run_chaos_cell(cell);
  EXPECT_EQ(r.verdict, ChaosVerdict::kInvariantViolation) << r.detail;
  EXPECT_NE(r.detail.find("piggyback lost"), std::string::npos) << r.detail;
}

TEST(ChaosCell, BackoffNeverSleepsKilledByPolicyOracle) {
  // Correctness oracles are blind to this one: the run still serializes and
  // completes. Only the backoff-progressivity policy check can see it.
  ChaosCell cell;
  cell.fault.mutation = ProtocolMutation::kBackoffNeverSleeps;
  const ChaosCellResult r = run_chaos_cell(cell);
  EXPECT_EQ(r.verdict, ChaosVerdict::kPolicyViolation) << r.detail;
  EXPECT_NE(r.detail.find("backoff never sleeps"), std::string::npos)
      << r.detail;
}

TEST(ChaosCell, BackoffPolicyOracleAcceptsRealBackoff) {
  // The same shape without the mutation must satisfy the progressivity
  // bound — i.e. the policy oracle has no false positives on this cell.
  ChaosCell cell;
  const ChaosCellResult r = run_chaos_cell(cell);
  EXPECT_EQ(r.verdict, ChaosVerdict::kClean) << r.detail;
}

TEST(Mutations, NewMutationNamesRoundTrip) {
  for (const ProtocolMutation m :
       {ProtocolMutation::kWrongSubblockIndexMath,
        ProtocolMutation::kStalePiggybackMask,
        ProtocolMutation::kBackoffNeverSleeps}) {
    ProtocolMutation parsed = ProtocolMutation::kNone;
    ASSERT_TRUE(knobs::parse_name(to_string(m), parsed)) << to_string(m);
    EXPECT_EQ(parsed, m);
  }
}

// The headline acceptance criterion: every --mutate variant must be caught
// by the serializability replay or the invariant auditor on at least one
// cell, while all clean controls stay green.
TEST(KillMatrix, EveryMutationIsKilled) {
  const KillMatrixReport report = run_kill_matrix(KillMatrixOptions{});
  EXPECT_TRUE(report.clean_controls_ok) << report.control_failure;
  ASSERT_EQ(report.outcomes.size(), all_mutations().size());
  for (const MutationOutcome& o : report.outcomes) {
    EXPECT_TRUE(o.killed) << to_string(o.mutation)
                          << " survived every chaos cell";
  }
  EXPECT_TRUE(report.all_green()) << report.summary();
}

TEST(KillMatrix, SummaryNamesEveryMutation) {
  const KillMatrixReport report = run_kill_matrix(KillMatrixOptions{});
  const std::string s = report.summary();
  for (const ProtocolMutation m : all_mutations()) {
    EXPECT_NE(s.find(to_string(m)), std::string::npos) << s;
  }
  EXPECT_NE(s.find("ALL GREEN"), std::string::npos) << s;
}

}  // namespace
}  // namespace asfsim
