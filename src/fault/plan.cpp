#include "fault/plan.hpp"

#include <cstdio>

namespace asfsim {

const char* to_string(ProtocolMutation m) {
  switch (m) {
    case ProtocolMutation::kNone: return "none";
    case ProtocolMutation::kDropDirtySubblock: return "drop-dirty-subblock";
    case ProtocolMutation::kForgetInvalidatedSpecinfo:
      return "forget-invalidated-specinfo";
    case ProtocolMutation::kSkipWrittenMask: return "skip-written-mask";
    case ProtocolMutation::kSkipCommitValidation:
      return "skip-commit-validation";
    case ProtocolMutation::kWrongSubblockIndexMath:
      return "wrong-subblock-index-math";
    case ProtocolMutation::kStalePiggybackMask:
      return "stale-piggyback-mask";
    case ProtocolMutation::kBackoffNeverSleeps:
      return "backoff-never-sleeps";
    case ProtocolMutation::kLostUpdateCommit:
      return "lost-update-commit";
    case ProtocolMutation::kUnfairKarmaReset:
      return "unfair-karma-reset";
    case ProtocolMutation::kFallbackLockLeak:
      return "fallback-lock-leak";
    case ProtocolMutation::kSerializeSkipsValidation:
      return "serialize-skips-validation";
  }
  return "?";
}

FaultPlan::FaultPlan(const FaultConfig& cfg, std::uint64_t seed,
                     std::uint32_t ncores)
    : cfg_(cfg) {
  rng_.reserve(ncores);
  for (std::uint32_t c = 0; c < ncores; ++c) {
    // Independent per-core streams: one core's injection history never
    // shifts another core's draws (splitmix64 inside Rng decorrelates the
    // nearby seeds).
    rng_.emplace_back(seed ^ 0xfa17'fa17'fa17'fa17ULL ^
                      (std::uint64_t{c} + 1) * 0x9e3779b97f4a7c15ULL);
  }
}

bool FaultPlan::spurious_abort(CoreId core) {
  if (cfg_.spurious_abort_rate <= 0.0) return false;
  if (!rng_[core].chance(cfg_.spurious_abort_rate)) return false;
  ++counters_.spurious_aborts;
  return true;
}

bool FaultPlan::commit_abort(CoreId core) {
  if (cfg_.commit_abort_rate <= 0.0) return false;
  if (!rng_[core].chance(cfg_.commit_abort_rate)) return false;
  ++counters_.commit_aborts;
  return true;
}

bool FaultPlan::forced_eviction(CoreId core) {
  if (cfg_.evict_rate <= 0.0) return false;
  if (!rng_[core].chance(cfg_.evict_rate)) return false;
  ++counters_.forced_evictions;
  return true;
}

Cycle FaultPlan::probe_jitter(CoreId core) {
  if (cfg_.probe_jitter == 0) return 0;
  const Cycle j = rng_[core].below(cfg_.probe_jitter + 1);
  if (j != 0) {
    ++counters_.probe_jitter_events;
    counters_.probe_jitter_cycles += j;
  }
  return j;
}

Cycle FaultPlan::sched_jitter(CoreId core) {
  if (cfg_.sched_jitter == 0) return 0;
  const Cycle j = rng_[core].below(cfg_.sched_jitter + 1);
  if (j != 0) {
    ++counters_.sched_jitter_events;
    counters_.sched_jitter_cycles += j;
  }
  return j;
}

std::string to_string(const FaultCounters& fc) {
  char buf[320];
  std::snprintf(
      buf, sizeof(buf),
      "injected faults: spurious aborts %llu, commit aborts %llu, forced "
      "evictions %llu; probe jitter %llu events / %llu cycles, sched jitter "
      "%llu events / %llu cycles",
      static_cast<unsigned long long>(fc.spurious_aborts),
      static_cast<unsigned long long>(fc.commit_aborts),
      static_cast<unsigned long long>(fc.forced_evictions),
      static_cast<unsigned long long>(fc.probe_jitter_events),
      static_cast<unsigned long long>(fc.probe_jitter_cycles),
      static_cast<unsigned long long>(fc.sched_jitter_events),
      static_cast<unsigned long long>(fc.sched_jitter_cycles));
  return buf;
}

}  // namespace asfsim
