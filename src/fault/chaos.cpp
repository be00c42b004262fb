#include "fault/chaos.hpp"

#include <algorithm>
#include <cstdio>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "core/conflict.hpp"
#include "guest/garray.hpp"
#include "guest/machine.hpp"

namespace asfsim {

const char* to_string(ChaosVerdict v) {
  switch (v) {
    case ChaosVerdict::kClean: return "clean";
    case ChaosVerdict::kInvariantViolation: return "invariant-violation";
    case ChaosVerdict::kReplayViolation: return "replay-violation";
    case ChaosVerdict::kRunFailed: return "run-failed";
    case ChaosVerdict::kPolicyViolation: return "policy-violation";
    case ChaosVerdict::kStarvation: return "starvation";
  }
  return "?";
}

namespace {

/// Thrown by the audit callback so the kernel run loop surfaces the
/// violation at the exact cycle it appeared.
struct InvariantViolation : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct LedgerOp {
  Cycle commit_cycle;
  std::uint64_t seq;
  std::uint32_t a, b, c;
  std::uint64_t va, vb, out;
};

struct Ledger {
  GArray64 cells;
  std::uint64_t ncells = 0;
  std::vector<LedgerOp> log;
};

constexpr std::uint64_t kCombineSalt = 0x9e3779b97f4a7c15ull;

std::uint64_t combine(std::uint64_t va, std::uint64_t vb) {
  return (va * 3 + vb * 5 + 1) ^ kCombineSalt;
}

// Same shape as tests/test_serializability.cpp: two random reads combined
// into a random write, with the observed values logged in commit order.
// 96 unpadded cells on 12 lines guarantee heavy false sharing, which is
// exactly the traffic the sub-block protocol rules exist to keep sound.
Task<void> ledger_worker(GuestCtx& c, Ledger* lg, int ntx) {
  for (int i = 0; i < ntx; ++i) {
    const auto a = static_cast<std::uint32_t>(c.rng().below(lg->ncells));
    const auto b = static_cast<std::uint32_t>(c.rng().below(lg->ncells));
    auto t = static_cast<std::uint32_t>(c.rng().below(lg->ncells));
    std::uint64_t va = 0, vb = 0, out = 0;
    co_await c.run_tx([&]() -> Task<void> {
      va = co_await lg->cells.get(c, a);
      vb = co_await lg->cells.get(c, b);
      out = combine(va, vb);
      co_await lg->cells.set(c, t, out);
    });
    lg->log.push_back({c.now(), lg->log.size(), a, b, t, va, vb, out});
    co_await c.work(15);
  }
}

}  // namespace

ChaosCellResult run_chaos_cell(const ChaosCell& cell) {
  ChaosCellResult res;
  SimConfig sim;
  sim.seed = cell.seed;
  sim.fault = cell.fault;
  sim.cm = cell.cm;
  if (cell.max_tx_retries >= 0) {
    sim.max_tx_retries = static_cast<std::uint32_t>(cell.max_tx_retries);
  }
  Machine m(sim, cell.detector, cell.nsub);

  Ledger lg;
  lg.ncells = cell.ncells;
  lg.cells = GArray64::alloc(m.galloc(), lg.ncells);
  std::vector<std::uint64_t> model(lg.ncells);
  for (std::uint64_t i = 0; i < lg.ncells; ++i) {
    lg.cells.poke(m, i, i * 11 + 1);
    model[i] = i * 11 + 1;
  }
  for (CoreId c = 0; c < m.config().ncores; ++c) {
    m.spawn(c, ledger_worker(m.ctx(c), &lg, cell.ntx));
  }

  auto audit = [&m] {
    if (std::string err = m.mem().check_invariants(); !err.empty()) {
      throw InvariantViolation(err);
    }
  };
  m.kernel().set_audit(cell.audit_interval, audit);

  try {
    m.run(cell.max_cycles);
    audit();  // once more at quiescence
  } catch (const InvariantViolation& e) {
    res.verdict = ChaosVerdict::kInvariantViolation;
    res.detail = e.what();
    res.commits = lg.log.size();
    return res;
  } catch (const std::exception& e) {
    res.verdict = ChaosVerdict::kRunFailed;
    res.detail = e.what();
    res.commits = lg.log.size();
    return res;
  }
  res.commits = lg.log.size();
  res.cycles = m.stats().total_cycles;
  char buf[160];

  // Starvation oracle (docs/contention.md §5): a policy with a non-zero
  // stated_abort_bound() promises no core ever suffers more consecutive
  // non-lock-wait aborts than the bound. Audited before the replay and the
  // completion check so a starved, cycle-truncated run reports the policy
  // breach rather than a generic run failure.
  const std::uint64_t bound =
      m.runtime().policy().stated_abort_bound(m.config().ncores);
  for (CoreId c = 0; c < m.config().ncores; ++c) {
    res.max_streak = std::max(res.max_streak, m.runtime().max_consec_aborts(c));
    if (bound != 0 && m.runtime().max_consec_aborts(c) > bound) {
      std::snprintf(buf, sizeof(buf),
                    "core %u suffered %u consecutive aborts; policy '%s' "
                    "states a bound of %llu",
                    static_cast<unsigned>(c),
                    m.runtime().max_consec_aborts(c),
                    to_string(m.runtime().policy().kind()),
                    static_cast<unsigned long long>(bound));
      res.verdict = ChaosVerdict::kStarvation;
      res.detail = buf;
      return res;
    }
  }

  // Strict-serializability replay of the committed history.
  std::stable_sort(lg.log.begin(), lg.log.end(),
                   [](const LedgerOp& x, const LedgerOp& y) {
                     if (x.commit_cycle != y.commit_cycle) {
                       return x.commit_cycle < y.commit_cycle;
                     }
                     return x.seq < y.seq;
                   });
  for (std::size_t i = 0; i < lg.log.size(); ++i) {
    const LedgerOp& op = lg.log[i];
    if (op.va != model[op.a] || op.vb != model[op.b] ||
        op.out != combine(op.va, op.vb)) {
      std::snprintf(buf, sizeof(buf),
                    "op %zu (commit cycle %llu) read cells %u/%u "
                    "inconsistently with the serial order",
                    i, static_cast<unsigned long long>(op.commit_cycle), op.a,
                    op.b);
      res.verdict = ChaosVerdict::kReplayViolation;
      res.detail = buf;
      return res;
    }
    model[op.c] = op.out;
  }
  for (std::uint64_t i = 0; i < lg.ncells; ++i) {
    if (lg.cells.peek(m, i) != model[i]) {
      std::snprintf(buf, sizeof(buf),
                    "final memory diverges from the serial replay at cell %llu",
                    static_cast<unsigned long long>(i));
      res.verdict = ChaosVerdict::kReplayViolation;
      res.detail = buf;
      return res;
    }
  }
  const std::uint64_t expect =
      std::uint64_t{m.config().ncores} * static_cast<std::uint64_t>(cell.ntx);
  if (lg.log.size() != expect) {
    std::snprintf(buf, sizeof(buf),
                  "committed %zu of %llu ledger operations", lg.log.size(),
                  static_cast<unsigned long long>(expect));
    res.verdict = ChaosVerdict::kRunFailed;
    res.detail = buf;
  }

  // Backoff-progressivity policy oracle (paper §V-A). Every retried abort
  // stalls for abort_latency PLUS a strictly positive software backoff, so
  // backoff_cycles must strictly exceed stalls * abort_latency. Lock-wait
  // aborts are exempt (they wait on the lock holder, not the backoff
  // manager). A backoff that never sleeps passes both correctness oracles —
  // requester-wins and the fallback path still serialize — so only this
  // liveness check can see it.
  if (res.verdict == ChaosVerdict::kClean) {
    const Stats& st = m.stats();
    const std::uint64_t lock_waits =
        st.aborts_by_cause[static_cast<std::size_t>(AbortCause::kLockWait)];
    const std::uint64_t stalls = st.tx_aborts - lock_waits;
    const Cycle floor = static_cast<Cycle>(stalls) * m.config().abort_latency;
    if (stalls > 0 && st.backoff_cycles <= floor) {
      std::snprintf(buf, sizeof(buf),
                    "%llu retried aborts stalled only %llu cycles "
                    "(abort-penalty floor is %llu): backoff never sleeps",
                    static_cast<unsigned long long>(stalls),
                    static_cast<unsigned long long>(st.backoff_cycles),
                    static_cast<unsigned long long>(floor));
      res.verdict = ChaosVerdict::kPolicyViolation;
      res.detail = buf;
    }
  }
  return res;
}

const std::vector<ProtocolMutation>& all_mutations() {
  // Every named value after kNone, in declaration order.
  static const std::vector<ProtocolMutation> kAll = [] {
    std::vector<ProtocolMutation> all;
    for (unsigned m = 1;
         std::string_view(to_string(ProtocolMutation(m))) != "?"; ++m) {
      all.push_back(ProtocolMutation(m));
    }
    return all;
  }();
  return kAll;
}

namespace {

struct CellShape {
  DetectorKind detector;
  std::uint32_t nsub;
  CmConfig cm{};  // requester-wins default: historical shapes unchanged
  std::int32_t max_tx_retries = -1;
  std::uint64_t ncells = 96;  // ChaosCell::ncells
  int ntx = -1;               // -1 = KillMatrixOptions::ntx
};

CmConfig cm_of(CmPolicyKind policy, std::uint32_t max_retries) {
  CmConfig cm;
  cm.policy = policy;
  cm.max_retries = max_retries;
  return cm;
}

/// Detectors on which each mutation's broken mechanism is actually
/// exercised (e.g. dropping piggybacks is a no-op for the baseline, which
/// never piggybacks).
std::vector<CellShape> shapes_for(ProtocolMutation m) {
  switch (m) {
    case ProtocolMutation::kSkipWrittenMask:
      return {{DetectorKind::kBaseline, 1}, {DetectorKind::kSubBlock, 4}};
    case ProtocolMutation::kDropDirtySubblock:
    case ProtocolMutation::kForgetInvalidatedSpecinfo:
    case ProtocolMutation::kSkipCommitValidation:
    // The two new bookkeeping bugs only exist where sub-block state exists
    // (rotation is the identity at nsub=1; the baseline never piggybacks).
    case ProtocolMutation::kWrongSubblockIndexMath:
    case ProtocolMutation::kStalePiggybackMask:
      return {{DetectorKind::kSubBlock, 4},
              {DetectorKind::kSubBlock, 8},
              {DetectorKind::kSubBlock, 16}};
    case ProtocolMutation::kBackoffNeverSleeps:
      // Detector-independent liveness policy: one sub-block shape plus the
      // baseline proves the oracle does not depend on sub-blocking.
      return {{DetectorKind::kSubBlock, 4}, {DetectorKind::kBaseline, 1}};
    case ProtocolMutation::kLostUpdateCommit:
      // The dropped write-back lives in the versioning layer, not the
      // detector: both shapes prove the replay oracle sees it either way.
      return {{DetectorKind::kBaseline, 1}, {DetectorKind::kSubBlock, 4}};
    case ProtocolMutation::kUnfairKarmaReset:
      // Only the timestamp policy consumes karma, and the classic
      // retry-count fallback must be off (max_tx_retries = 0) or it would
      // cap every streak below the stated bound. The 4-cell total-conflict
      // ledger concentrates the contention so the starving core's streak
      // actually exceeds the bound instead of diffusing over 96 cells.
      // Detector-independent — the bug lives in AsfRuntime::cm_priority.
      return {{DetectorKind::kSubBlock, 4,
               cm_of(CmPolicyKind::kTimestamp, 8), 0, 4, 120},
              {DetectorKind::kBaseline, 1,
               cm_of(CmPolicyKind::kTimestamp, 8), 0, 4, 120}};
    case ProtocolMutation::kFallbackLockLeak:
    case ProtocolMutation::kSerializeSkipsValidation:
      // Both bugs live on the serialize escalation path: a low retry
      // threshold makes the fallback engage often under ledger contention.
      return {{DetectorKind::kSubBlock, 4,
               cm_of(CmPolicyKind::kSerialize, 4)},
              {DetectorKind::kBaseline, 1,
               cm_of(CmPolicyKind::kSerialize, 4)}};
    case ProtocolMutation::kNone: break;
  }
  return {};
}

/// Which verdicts count as a kill for `m`. Correctness, liveness-policy,
/// and starvation oracles kill anything; a run failure is only accepted
/// for the fallback-lock leak, where global deadlock (every core parked on
/// a lock nobody releases) IS the observable symptom.
bool verdict_kills(ProtocolMutation m, ChaosVerdict v) {
  switch (v) {
    case ChaosVerdict::kInvariantViolation:
    case ChaosVerdict::kReplayViolation:
    case ChaosVerdict::kPolicyViolation:
    case ChaosVerdict::kStarvation:
      return true;
    case ChaosVerdict::kRunFailed:
      return m == ProtocolMutation::kFallbackLockLeak;
    case ChaosVerdict::kClean:
      break;
  }
  return false;
}

std::string cell_label(const CellShape& s, std::uint64_t seed) {
  std::string n = to_string(s.detector);
  if (s.detector == DetectorKind::kSubBlock) n += std::to_string(s.nsub);
  if (s.cm.policy != CmPolicyKind::kRequesterWins) {
    n += std::string("/") + to_string(s.cm.policy);
  }
  if (s.max_tx_retries == 0) n += "/nofb";
  return n + "/seed" + std::to_string(seed);
}

}  // namespace

bool KillMatrixReport::all_green() const {
  if (!clean_controls_ok) return false;
  for (const MutationOutcome& o : outcomes) {
    if (!o.killed) return false;
  }
  return !outcomes.empty();
}

std::string KillMatrixReport::summary() const {
  std::string out;
  for (const MutationOutcome& o : outcomes) {
    out += std::string(to_string(o.mutation)) + ": ";
    if (o.killed) {
      out += "KILLED by " + std::string(to_string(o.verdict)) + " on " +
             o.cell_label + " (" + o.detail + ")\n";
    } else {
      out += "SURVIVED — no oracle caught it\n";
    }
  }
  out += clean_controls_ok
             ? "clean controls: ok\n"
             : "clean controls: FAILED (" + control_failure + ")\n";
  out += all_green() ? "kill matrix: ALL GREEN" : "kill matrix: RED";
  return out;
}

KillMatrixReport run_kill_matrix(const KillMatrixOptions& opt) {
  KillMatrixReport report;

  // Clean controls: no mutation — with and without legal fault injection —
  // must pass both oracles on every shape. A failure here means an oracle
  // is unsound (false positive), which would make every "kill" meaningless.
  report.clean_controls_ok = true;
  const std::vector<CellShape> control_shapes = {
      {DetectorKind::kBaseline, 1},
      {DetectorKind::kSubBlock, 4},
      {DetectorKind::kSubBlock, 16},
      // Policy-aware controls (detector × policy): every non-default
      // contention policy must stay invisible to the correctness oracles
      // AND honour its own stated forward-progress bound on the same
      // ledger traffic the mutations run under.
      {DetectorKind::kSubBlock, 4, cm_of(CmPolicyKind::kPolite, 8)},
      {DetectorKind::kBaseline, 1, cm_of(CmPolicyKind::kPolite, 8)},
      {DetectorKind::kSubBlock, 4, cm_of(CmPolicyKind::kTimestamp, 8)},
      {DetectorKind::kBaseline, 1, cm_of(CmPolicyKind::kTimestamp, 8)},
      {DetectorKind::kSubBlock, 4, cm_of(CmPolicyKind::kSerialize, 4)},
      {DetectorKind::kBaseline, 1, cm_of(CmPolicyKind::kSerialize, 4)},
      // The bound-audit controls: timestamp with the classic fallback off
      // on the total-conflict ledger are exactly the kUnfairKarmaReset
      // shapes minus the mutation — they prove the starvation oracle's
      // bound is not trivially trippable.
      {DetectorKind::kSubBlock, 4, cm_of(CmPolicyKind::kTimestamp, 8), 0, 4,
       120},
      {DetectorKind::kBaseline, 1, cm_of(CmPolicyKind::kTimestamp, 8), 0, 4,
       120},
  };
  FaultConfig faulty;
  faulty.spurious_abort_rate = 0.002;
  faulty.evict_rate = 0.001;
  faulty.commit_abort_rate = 0.005;
  faulty.probe_jitter = 3;
  faulty.sched_jitter = 2;
  for (const CellShape& s : control_shapes) {
    for (const FaultConfig& fc : {FaultConfig{}, faulty}) {
      ChaosCell cell;
      cell.detector = s.detector;
      cell.nsub = s.nsub;
      cell.seed = opt.seeds.empty() ? 1 : opt.seeds.front();
      cell.fault = fc;
      cell.cm = s.cm;
      cell.max_tx_retries = s.max_tx_retries;
      cell.ncells = s.ncells;
      cell.ntx = s.ntx > 0 ? s.ntx : opt.ntx;
      cell.audit_interval = opt.audit_interval;
      const ChaosCellResult r = run_chaos_cell(cell);
      if (opt.verbose) {
        std::printf("control %s%s: %s\n", cell_label(s, cell.seed).c_str(),
                    fc.any_injection() ? "+faults" : "", to_string(r.verdict));
      }
      if (r.verdict != ChaosVerdict::kClean && report.clean_controls_ok) {
        report.clean_controls_ok = false;
        report.control_failure = cell_label(s, cell.seed) +
                                 (fc.any_injection() ? "+faults" : "") + ": " +
                                 std::string(to_string(r.verdict)) + " — " +
                                 r.detail;
      }
    }
  }

  // Mutation cells: walk (shape, seed) until an oracle kills the mutation.
  for (const ProtocolMutation mut : all_mutations()) {
    MutationOutcome outcome;
    outcome.mutation = mut;
    for (const CellShape& s : shapes_for(mut)) {
      for (const std::uint64_t seed : opt.seeds) {
        ChaosCell cell;
        cell.detector = s.detector;
        cell.nsub = s.nsub;
        cell.seed = seed;
        cell.fault.mutation = mut;
        cell.cm = s.cm;
        cell.max_tx_retries = s.max_tx_retries;
        cell.ncells = s.ncells;
        cell.ntx = s.ntx > 0 ? s.ntx : opt.ntx;
        cell.audit_interval = opt.audit_interval;
        const ChaosCellResult r = run_chaos_cell(cell);
        if (opt.verbose) {
          std::printf("mutate %s on %s: %s%s%s\n", to_string(mut),
                      cell_label(s, seed).c_str(), to_string(r.verdict),
                      r.detail.empty() ? "" : " — ", r.detail.c_str());
        }
        if (verdict_kills(mut, r.verdict)) {
          outcome.killed = true;
          outcome.verdict = r.verdict;
          outcome.cell_label = cell_label(s, seed);
          outcome.detail = r.detail;
        }
        if (outcome.killed) break;
      }
      if (outcome.killed) break;
    }
    report.outcomes.push_back(std::move(outcome));
  }
  return report;
}

}  // namespace asfsim
