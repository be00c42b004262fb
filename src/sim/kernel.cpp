#include "sim/kernel.hpp"

#include <cassert>
#include <chrono>

#include "fault/plan.hpp"

namespace asfsim {

namespace {

// Validates before the constructor sizes any per-core array.
std::uint32_t checked_ncores(std::uint32_t ncores) {
  if (ncores == 0) throw std::invalid_argument("Kernel: ncores must be > 0");
  if (ncores > Kernel::kMaxCores) {
    throw std::invalid_argument("Kernel: ncores must be <= " +
                                std::to_string(Kernel::kMaxCores) +
                                " (core id is packed into the event key)");
  }
  return ncores;
}

}  // namespace

Kernel::Kernel(std::uint32_t ncores)
    : cores_(checked_ncores(ncores)), keys_(ncores, kIdleKey) {}

void Kernel::spawn(CoreId core, Task<void> root, Cycle start) {
  auto& slot = cores_.at(core);
  if (slot.spawned) throw std::logic_error("Kernel::spawn: core already used");
  slot.root = std::move(root);
  slot.spawned = true;
  schedule(core, slot.root.raw_handle(), start);
}

void Kernel::arm(CoreId core, Cycle at) {
  assert(keys_[core] == kIdleKey && "one pending event per core");
  if (fault_ != nullptr) at += fault_->sched_jitter(core);
  const Cycle cycle = at < now_ ? now_ : at;
  const std::uint64_t seq_word = (seq_counter_++ << kCoreBits) | core;
  keys_[core] = (EventKey{cycle} << 64) | seq_word;
}

void Kernel::schedule(CoreId core, std::coroutine_handle<> h, Cycle at) {
  assert(core < cores_.size());
  cores_[core].pending = h;  // hot path: every leaf await lands here
  arm(core, at);
}

void Kernel::schedule_callback(CoreId core, std::function<void()> fn,
                               Cycle at) {
  auto& slot = cores_.at(core);
  slot.pending = {};
  slot.callback = std::move(fn);
  arm(core, at);
}

Cycle Kernel::run(Cycle max_cycles) {
  // Wall-clock watchdog escape hatch only: the reading never feeds any
  // simulated state, it just bounds how long a runaway run may burn CPU.
  // asfsim-lint: allow(nondeterministic-source)
  const auto wall_start = std::chrono::steady_clock::now();
  progress_mark_ = now_;
  audit_mark_ = now_;
  for (;;) {
    // Pick the earliest pending event; FIFO among equal cycles. The keys
    // order exactly like (cycle, seq), so this is a compare-select min over
    // one dense array; idle cores hold kIdleKey and never win.
    EventKey best_key = kIdleKey;
    for (const EventKey k : keys_) best_key = k < best_key ? k : best_key;
    if (best_key == kIdleKey) {
      // No events: either everything finished, or we are deadlocked.
      for (CoreId c = 0; c < cores_.size(); ++c) {
        if (cores_[c].spawned && !cores_[c].finished) {
          throw DeadlockError(
              "Kernel::run: live guest threads but no pending events "
              "(guest-side deadlock, e.g. a barrier nobody reaches)");
        }
      }
      return now_;
    }
    const auto best = static_cast<CoreId>(static_cast<std::uint64_t>(best_key) &
                                          (kMaxCores - 1));
    const auto best_at = static_cast<Cycle>(best_key >> 64);

    auto& slot = cores_[best];
    if (best_at > now_) now_ = best_at;
    if (now_ > max_cycles) {
      throw CycleLimitError("Kernel::run: cycle limit exceeded (livelock?)");
    }
    if (watchdog_cycles_ != 0 && now_ - progress_mark_ > watchdog_cycles_) {
      std::string dump =
          watchdog_report_ ? watchdog_report_() : std::string{};
      throw LivelockError(
          "Kernel::run: livelock watchdog fired — no commit progress for " +
          std::to_string(now_ - progress_mark_) + " cycles (limit " +
          std::to_string(watchdog_cycles_) + ")" +
          (dump.empty() ? "" : "\n" + dump));
    }
    if (audit_interval_ != 0 && now_ - audit_mark_ >= audit_interval_) {
      audit_mark_ = now_;
      audit_fn_();  // throws to fail the run (chaos invariant audit)
    }
    if (wall_limit_s_ > 0.0 && (events_ & 0xfff) == 0) {
      // Same wall-clock guard: aborts the process run, never the simulation
      // state.
      // asfsim-lint: allow(nondeterministic-source)
      const auto wall_now = std::chrono::steady_clock::now();
      const std::chrono::duration<double> used = wall_now - wall_start;
      if (used.count() > wall_limit_s_) {
        throw WallClockError(
            "Kernel::run: wall-clock limit exceeded (" +
            std::to_string(used.count()) + "s > " +
            std::to_string(wall_limit_s_) + "s at cycle " +
            std::to_string(now_) + ")");
      }
    }
    keys_[best] = kIdleKey;
    ++events_;
    if (slot.pending) {
      const auto h = slot.pending;
      slot.pending = {};
      h.resume();  // guest runs until its next leaf suspension or completion
    } else {
      const auto cb = std::move(slot.callback);
      slot.callback = nullptr;
      cb();  // deferred action; it reschedules the guest itself
    }

    if (slot.spawned && !slot.finished && slot.root.done()) {
      slot.finished = true;
      slot.finish_cycle = now_;
      slot.root.rethrow_if_error();  // guest bugs surface immediately
    }
  }
}

}  // namespace asfsim
