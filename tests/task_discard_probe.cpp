// Compile-only probe for the discarded-Task check. Task<T> is
// `class [[nodiscard]]` and the tree builds with -Werror=unused-result, so a
// call statement that drops a Task (whose body then never runs) is a build
// error. With ASFSIM_DISCARD_TASK defined this TU drops one at each of the
// two sites below and must fail to build; without it the same TU awaits
// them and must build.
#include "guest/machine.hpp"

namespace asfsim {
namespace {

Task<void> step(GuestCtx& c, Addr a) { co_await c.store_u64(a, 1); }

}  // namespace

Task<void> dropper(GuestCtx& c, Addr a) {
  const std::uint64_t v = co_await c.load_u64(a);
#ifdef ASFSIM_DISCARD_TASK
  step(c, a);
  if (v == 0) step(c, a + 8);
#else
  co_await step(c, a);
  if (v == 0) co_await step(c, a + 8);
#endif
  co_await c.store_u64(a, v);
}

}  // namespace asfsim
