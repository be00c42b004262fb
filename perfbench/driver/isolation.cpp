// Layer-isolation cells: timed loops over public functions whose cost the
// end-to-end spans cannot separate, because they only run inside
// Machine::run. Inputs come from a seeded Rng at run time so the compiler
// cannot fold the work away; every result feeds a volatile sink.
#include <coroutine>
#include <vector>

#include "bench.hpp"
#include "core/classifier.hpp"
#include "core/subblock_detector.hpp"
#include "mem/cache.hpp"
#include "oltp/zipf.hpp"
#include "sim/kernel.hpp"
#include "sim/random.hpp"
#include "sim/task.hpp"

namespace perfbench {

using namespace asfsim;

namespace {

volatile std::uint64_t g_sink = 0;

constexpr int kReps = 5;

/// Median over kReps timed repetitions of `iters` calls of f(i), in ns per
/// call.
template <class F>
double ns_per_op(std::uint64_t iters, F&& f) {
  std::vector<double> reps;
  for (int r = 0; r < kReps; ++r) {
    std::uint64_t acc = 0;
    const double t0 = wall_now();
    for (std::uint64_t i = 0; i < iters; ++i) acc += f(i);
    const double t1 = wall_now();
    g_sink = acc;
    reps.push_back((t1 - t0) * 1e9 / static_cast<double>(iters));
  }
  return median(reps);
}

/// Reschedules its coroutine one cycle later: one kernel event per await.
struct Tick {
  Kernel* k;
  bool await_ready() const noexcept { return false; }
  void await_suspend(std::coroutine_handle<> h) const {
    k->schedule(0, h, k->now() + 1);
  }
  void await_resume() const noexcept {}
};

Task<void> ticker(Kernel& k, std::uint64_t n) {
  for (std::uint64_t i = 0; i < n; ++i) co_await Tick{&k};
}

SpecState random_spec(Rng& rng) {
  SpecState s;
  s.read_bytes = rng.next_u64();
  s.write_bytes = rng.next_u64() & rng.next_u64();
  s.bits.spec = static_cast<SubBlockMask>(rng.next_u64());
  s.bits.wr = static_cast<SubBlockMask>(s.bits.spec & rng.next_u64());
  return s;
}

}  // namespace

void run_isolation_cells(Result& r) {
  Rng rng(7);

  {  // mem: L1 tag lookup over 512 resident lines.
    SimConfig cfg;
    TagArray l1(cfg.l1);
    std::vector<Addr> lines;
    for (int i = 0; i < 512; ++i) {
      const Addr line = rng.below(1 << 22) << kLineShift;
      if (const auto v = l1.find_victim(line, [](Addr) { return false; });
          v != TagArray::kNoSlot) {
        l1.fill(v, line, Moesi::kShared);
      }
      lines.push_back(line);
    }
    r.metrics["mem.tag_lookup_ns"] = ns_per_op(2'000'000, [&](std::uint64_t i) {
      return static_cast<std::uint64_t>(l1.find(lines[i & 511]));
    });
  }

  {  // core: sub-block probe check (4 and 16 sub-blocks) and classifier.
    std::vector<SpecState> specs;
    std::vector<ByteMask> probes;
    for (int i = 0; i < 256; ++i) {
      specs.push_back(random_spec(rng));
      probes.push_back(ByteMask{0xff} << (8 * rng.below(8)));
    }
    for (const std::uint32_t n : {4u, 16u}) {
      SubBlockDetector det(n);
      r.metrics[n == 4 ? "core.probe_check_ns.nsub4"
                       : "core.probe_check_ns.nsub16"] =
          ns_per_op(1'000'000, [&](std::uint64_t i) {
            const ProbeCheck pc = det.check_probe(
                specs[i & 255], probes[(i >> 8) & 255], (i & 1) != 0);
            return std::uint64_t{pc.conflict} + pc.piggyback;
          });
    }
    r.metrics["core.classify_ns"] = ns_per_op(2'000'000, [&](std::uint64_t i) {
      const Classification c = classify_conflict(
          specs[i & 255], probes[(i >> 8) & 255], (i & 1) != 0);
      return static_cast<std::uint64_t>(c.is_false) +
             static_cast<std::uint64_t>(c.type);
    });
  }

  {  // sim: Kernel::spawn + one schedule/select/resume per event.
    constexpr std::uint64_t kEvents = 200'000;
    const double ns_per_run = ns_per_op(1, [&](std::uint64_t) {
      Kernel k(1);
      k.spawn(0, ticker(k, kEvents));
      return static_cast<std::uint64_t>(k.run());
    });
    r.metrics["sim.resume_ns"] = ns_per_run / static_cast<double>(kEvents);
  }

  {  // oltp: one zipf key draw (the contended-KV table shape).
    const ZipfGenerator zipf(512, 1.1);
    Rng zr(13);
    r.metrics["oltp.zipf_draw_ns"] =
        ns_per_op(2'000'000, [&](std::uint64_t) { return zipf.next(zr); });
  }
}

}  // namespace perfbench
