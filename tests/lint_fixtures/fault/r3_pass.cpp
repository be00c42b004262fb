// lint fixture: MUST pass. Guest-rule scope check — R3/R4 apply only under
// a workloads/ path. The fault subsystem (src/fault/) is host-side
// infrastructure: the chaos harness drives guest coroutines from host code
// (ledger setup via poke/peek, invariant audits, the watchdog report), so
// it may use allocation and raw-guest-access idioms freely. The global
// rule R1 still applies here — a co_await in a condition is a bug in any
// tree.
#include "workloads/workload.hpp"

namespace asfsim {

Task<void> chaos_ledger_worker(GuestCtx& c, Addr cells) {
  // Would flag global-alloc-in-tx inside workloads/; exempt here.
  const Addr scratch = c.galloc().alloc(64, 8);
  co_await c.store_u64(cells, scratch);
}

void chaos_cell_setup(Machine& m, Addr cells) {
  // Would flag raw-guest-access inside workloads/; exempt here. The chaos
  // harness initializes and replays ledger memory exactly this way.
  for (Addr i = 0; i < 8; ++i) {
    m.poke(cells + i * 8, 8, i * 11 + 1);
  }
  const std::uint64_t v = m.peek(cells, 8);
  m.poke(cells + 64, 8, v);
}

}  // namespace asfsim
