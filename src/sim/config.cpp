#include "sim/config.hpp"

#include <tuple>

#include "harness/knobs.hpp"
#include "mem/addr.hpp"

namespace asfsim {

namespace {

// Paper Table II: the defaults are the published machine.
constexpr bool level_is(const CacheLevelConfig& c, std::uint32_t kib,
                        std::uint32_t ways, Cycle latency) {
  return c.size_bytes == kib * 1024 && c.line_bytes == 64 && c.ways == ways &&
         c.latency == latency;
}
static_assert(SimConfig{}.ncores == 8 && level_is(SimConfig{}.l1, 64, 2, 3) &&
                  level_is(SimConfig{}.l2, 512, 16, 15) &&
                  level_is(SimConfig{}.l3, 2048, 16, 50) &&
                  SimConfig{}.mem_latency == 210,
              "SimConfig defaults must stay paper Table II");

}  // namespace

std::string SimConfig::validate(std::uint32_t nsub) const {
  using knobs::Owner;
  for (const auto& [owner, obj, prefix] :
       {std::tuple<Owner, const void*, const char*>{Owner::kSim, this, ""},
        {Owner::kFault, &fault, "fault."},
        {Owner::kCm, &cm, "cm."},
        {Owner::kCacheLevel, &l1, "l1."},
        {Owner::kCacheLevel, &l2, "l2."},
        {Owner::kCacheLevel, &l3, "l3."}}) {
    if (std::string err = knobs::check(owner, obj, prefix); !err.empty()) {
      return err;
    }
  }
  // Cross-field checks.
  for (const auto& [name, c] :
       {std::pair<const char*, const CacheLevelConfig*>{"l1", &l1},
        {"l2", &l2},
        {"l3", &l3}}) {
    if (c->size_bytes % (c->line_bytes * c->ways) != 0) {
      return std::string(name) +
             ": size_bytes must be a multiple of line_bytes * ways";
    }
  }
  // Byte masks and sub-block math assume the global line size.
  if (l1.line_bytes != kLineBytes) {
    return "l1.line_bytes must be " + std::to_string(kLineBytes) +
           " (ByteMask width)";
  }
  static const knobs::Knob& nsub_row = knobs::row("nsub");
  if (!knobs::in_range(nsub_row, nsub)) {
    return "nsub must be " + knobs::expected(nsub_row) + ", got " +
           std::to_string(nsub);
  }
  if (nsub > l1.line_bytes) {
    return "nsub (" + std::to_string(nsub) + ") exceeds the line size (" +
           std::to_string(l1.line_bytes) + " bytes)";
  }
  if (max_tx_retries != 0 && max_capacity_aborts == 0) {
    return "max_capacity_aborts must be > 0 when the fallback is enabled";
  }
  // Contention-management contradictions: a knob combination whose stated
  // bound could never trip is rejected up front rather than silently run
  // (docs/contention.md §5).
  if (cm.max_retries == 0) {
    return cm.policy == CmPolicyKind::kSerialize
               ? "cm.max_retries must be > 0: the serialize fallback could "
                 "never engage"
               : "cm.max_retries must be > 0 (--cm-max-retries 0 makes the "
                 "serialize threshold unreachable; pick a policy bound >= 1)";
  }
  if (cm.policy == CmPolicyKind::kSerialize && max_capacity_aborts == 0) {
    return "max_capacity_aborts must be > 0 under --cm-policy serialize "
           "(the policy re-enables the fallback path)";
  }
  if (cm.policy == CmPolicyKind::kSerialize && watchdog_cycles != 0) {
    // Floor on the time the serialize path needs to produce its first
    // commit: max_retries aborted attempts, each costing at least the
    // abort penalty plus the minimum backoff sleep.
    const Cycle floor =
        static_cast<Cycle>(cm.max_retries + 1) * (abort_latency + backoff_base);
    if (watchdog_cycles < floor) {
      return "watchdog_cycles (" + std::to_string(watchdog_cycles) +
             ") is smaller than the serialize fallback could ever need (" +
             std::to_string(floor) +
             " = (cm.max_retries+1)*(abort_latency+backoff_base)); the "
             "watchdog would fire before the guaranteed-progress path engages";
    }
  }
  if (enable_ats && (ats_alpha <= 0.0 || ats_alpha > 1.0)) {
    return "ats_alpha must be in (0, 1]";
  }
  return {};
}

}  // namespace asfsim
