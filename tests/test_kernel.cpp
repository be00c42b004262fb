// Unit tests: simulation kernel scheduling, determinism, failure modes.
#include <gtest/gtest.h>

#include <vector>

#include "sim/kernel.hpp"

namespace asfsim {
namespace {

/// Minimal leaf awaitable for kernel-only tests.
struct Sleep {
  Kernel* k;
  CoreId core;
  Cycle delay;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) {
    k->schedule(core, h, k->now() + delay);
  }
  void await_resume() const noexcept {}
};

Task<void> ticker(Kernel* k, CoreId core, int n, Cycle step,
                  std::vector<std::pair<CoreId, Cycle>>* log) {
  for (int i = 0; i < n; ++i) {
    co_await Sleep{k, core, step};
    log->emplace_back(core, k->now());
  }
}

Task<void> nop(Kernel* k, CoreId core) { co_await Sleep{k, core, 1}; }

/// Logs its core and the cycle of its first (and only) resume.
Task<void> mark(Kernel* k, CoreId core,
                std::vector<std::pair<CoreId, Cycle>>* log) {
  log->emplace_back(core, k->now());
  co_return;
}

Task<void> parked(Kernel*, CoreId) {
  struct Never {
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<>) {}  // no event scheduled
    void await_resume() const noexcept {}
  };
  co_await Never{};
}

TEST(Kernel, RequiresCores) { EXPECT_THROW(Kernel{0}, std::invalid_argument); }

TEST(Kernel, RejectsMoreCoresThanTheEventKeyHolds) {
  EXPECT_NO_THROW(Kernel{Kernel::kMaxCores});
  EXPECT_THROW(Kernel{Kernel::kMaxCores + 1}, std::invalid_argument);
}

TEST(Kernel, RunsToCompletionAndAdvancesTime) {
  Kernel k(2);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(0, ticker(&k, 0, 3, 10, &log));
  k.spawn(1, ticker(&k, 1, 2, 25, &log));
  const Cycle end = k.run();
  EXPECT_EQ(end, 50u);
  EXPECT_TRUE(k.core_done(0));
  EXPECT_TRUE(k.core_done(1));
  EXPECT_EQ(k.core_finish_cycle(0), 30u);
  EXPECT_EQ(k.core_finish_cycle(1), 50u);
  ASSERT_EQ(log.size(), 5u);
}

TEST(Kernel, InterleavingIsDeterministic) {
  auto run_once = [] {
    Kernel k(4);
    std::vector<std::pair<CoreId, Cycle>> log;
    for (CoreId c = 0; c < 4; ++c) {
      k.spawn(c, ticker(&k, c, 5, 7 + c, &log));
    }
    k.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Kernel, SameCycleEventsServeFifo) {
  Kernel k(2);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(0, ticker(&k, 0, 1, 10, &log));
  k.spawn(1, ticker(&k, 1, 1, 10, &log));
  k.run();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0].first, 0u) << "earlier-scheduled event first";
  EXPECT_EQ(log[1].first, 1u);
  EXPECT_EQ(log[0].second, log[1].second);
}

TEST(Kernel, SameCycleTiesServeFifoAcrossCoresAndCallbacks) {
  // Three roots are armed for cycle 10 in descending core-id order, with a
  // callback queued for the same cycle between the second and the third.
  // The core id packed into the event key must not reorder them: service
  // follows scheduling order.
  Kernel k(4);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(3, mark(&k, 3, &log), 10);
  k.spawn(2, mark(&k, 2, &log), 10);
  k.schedule_callback(0, [&] { log.emplace_back(0, k.now()); }, 10);
  k.spawn(1, mark(&k, 1, &log), 10);
  k.run();
  const std::vector<std::pair<CoreId, Cycle>> expect = {
      {3, 10}, {2, 10}, {0, 10}, {1, 10}};
  EXPECT_EQ(log, expect);
}

TEST(Kernel, DetectsGuestDeadlock) {
  Kernel k(1);
  k.spawn(0, parked(&k, 0));
  EXPECT_THROW(k.run(), DeadlockError);
}

TEST(Kernel, EnforcesCycleLimit) {
  Kernel k(1);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(0, ticker(&k, 0, 1000, 100, &log));
  EXPECT_THROW(k.run(500), CycleLimitError);
}

TEST(Kernel, RejectsDoubleSpawn) {
  Kernel k(1);
  k.spawn(0, nop(&k, 0));
  EXPECT_THROW(k.spawn(0, nop(&k, 0)), std::logic_error);
}

TEST(Kernel, GuestExceptionSurfaces) {
  struct Boom {};
  auto thrower = [](Kernel* k, CoreId core) -> Task<void> {
    co_await Sleep{k, core, 5};
    throw Boom{};
  };
  Kernel k(1);
  k.spawn(0, thrower(&k, 0));
  EXPECT_THROW(k.run(), Boom);
}

TEST(Kernel, CountsProcessedEvents) {
  Kernel k(1);
  std::vector<std::pair<CoreId, Cycle>> log;
  k.spawn(0, ticker(&k, 0, 4, 2, &log));
  k.run();
  // 1 initial resume + 4 sleep completions.
  EXPECT_EQ(k.events_processed(), 5u);
}

}  // namespace
}  // namespace asfsim
