// Conflict-provenance pipeline: site registry resolution, collector
// aggregation, the opt-in stats-blob v4 section, zero-perturbation of the
// simulation when enabled, and exact reconciliation of per-site totals
// against the aggregate conflict counters (docs/observability.md).
#include <gtest/gtest.h>

#include <array>
#include <map>
#include <string>
#include <vector>

#include "harness/experiment.hpp"
#include "mem/addr.hpp"
#include "oltp/oltp_config.hpp"
#include "prov/collector.hpp"
#include "prov/site_registry.hpp"
#include "runner/job_spec.hpp"
#include "sim/random.hpp"
#include "stats/serialize.hpp"

namespace asfsim {
namespace {

// ---- site registry ----------------------------------------------------------

TEST(SiteRegistry, RegisterDedupesAndSanitizes) {
  prov::SiteRegistry reg;
  ASSERT_EQ(reg.sites().size(), 1u);  // slot 0 is always "(untagged)"
  EXPECT_EQ(reg.sites()[prov::kUntaggedSite].name, "(untagged)");

  const prov::SiteId a = reg.register_site("oltp.record", 24);
  EXPECT_NE(a, prov::kUntaggedSite);
  EXPECT_EQ(reg.register_site("oltp.record", 24), a);
  // First obj_size wins on re-registration.
  EXPECT_EQ(reg.register_site("oltp.record", 999), a);
  EXPECT_EQ(reg.sites()[a].obj_size, 24u);

  // Names are clamped to the blob/JSONL-safe charset; "" gets a placeholder.
  const prov::SiteId weird = reg.register_site("my site #1", 8);
  EXPECT_EQ(reg.sites()[weird].name, "my_site__1");
  EXPECT_EQ(reg.register_site("my_site__1", 8), weird);  // post-sanitize alias
  const prov::SiteId unnamed = reg.register_site("", 8);
  EXPECT_EQ(reg.sites()[unnamed].name, "(unnamed)");
}

TEST(SiteRegistry, ResolvesAddressesToSiteAndObjectIndex) {
  prov::SiteRegistry reg;
  const prov::SiteId rec = reg.register_site("rec", 24);
  reg.on_alloc(1000, 72, rec);  // objects 0..2 at [1000, 1072)

  EXPECT_EQ(reg.resolve(1000).site, rec);
  EXPECT_EQ(reg.resolve(1000).object, 0u);
  EXPECT_EQ(reg.resolve(1024).object, 1u);
  EXPECT_EQ(reg.resolve(1071).object, 2u);
  EXPECT_EQ(reg.resolve(999).site, prov::kUntaggedSite);
  EXPECT_EQ(reg.resolve(1072).site, prov::kUntaggedSite);
  EXPECT_EQ(reg.sites()[rec].objects, 3u);
  EXPECT_EQ(reg.sites()[rec].bytes, 72u);

  // A later extent at a LOWER address (per-core arenas interleave) must
  // still resolve: the registry re-sorts lazily, and object indexing
  // continues in allocation order, not address order.
  reg.on_alloc(500, 48, rec);  // objects 3..4 at [500, 548)
  EXPECT_EQ(reg.resolve(524).site, rec);
  EXPECT_EQ(reg.resolve(524).object, 4u);
  EXPECT_EQ(reg.resolve(1024).object, 1u);
  EXPECT_EQ(reg.sites()[rec].objects, 5u);
}

/// Reference for SiteRegistry::resolve: a linear scan over every extent,
/// with object indices counted in allocation order the way on_alloc does.
class LinearScanRegistry {
 public:
  explicit LinearScanRegistry(const prov::SiteRegistry& reg) : reg_(reg) {}

  void on_alloc(Addr base, std::uint64_t size, prov::SiteId site) {
    const std::uint64_t obj_size = reg_.sites()[site].obj_size;
    std::uint64_t& next = objects_[site];
    extents_.push_back({base, size, site, next});
    next += obj_size != 0 ? (size + obj_size - 1) / obj_size : 1;
  }

  [[nodiscard]] prov::SiteRegistry::Location resolve(Addr addr) const {
    for (const Extent& e : extents_) {
      if (addr < e.base || addr - e.base >= e.size) continue;
      const std::uint64_t obj_size = reg_.sites()[e.site].obj_size;
      return {e.site,
              e.first_object + (obj_size != 0 ? (addr - e.base) / obj_size : 0)};
    }
    return {};
  }

  [[nodiscard]] const auto& extents() const { return extents_; }

 private:
  struct Extent {
    Addr base;
    std::uint64_t size;
    prov::SiteId site;
    std::uint64_t first_object;
  };
  const prov::SiteRegistry& reg_;
  std::vector<Extent> extents_;
  std::map<prov::SiteId, std::uint64_t> objects_;
};

void expect_same(const prov::SiteRegistry& reg, const LinearScanRegistry& ref,
                 Addr addr) {
  const prov::SiteRegistry::Location got = reg.resolve(addr);
  const prov::SiteRegistry::Location want = ref.resolve(addr);
  EXPECT_EQ(got.site, want.site) << "addr " << addr;
  EXPECT_EQ(got.object, want.object) << "addr " << addr;
}

TEST(SiteRegistry, ResolveMatchesALinearScanUnderInterleavedArenas) {
  prov::SiteRegistry reg;
  LinearScanRegistry ref(reg);
  const std::array<prov::SiteId, 3> sites = {reg.register_site("a", 8),
                                             reg.register_site("b", 24),
                                             reg.register_site("var", 0)};
  // Five per-core arenas bump-allocate upward; a full arena refills from
  // the shared top, so appends interleave out of address order the way
  // GAllocator::alloc_local's do.
  constexpr std::uint64_t kChunk = 4096;
  Rng rng(42);
  Addr top = 0x10000;
  std::array<Addr, 5> next{};
  std::array<Addr, 5> end{};
  for (int i = 0; i < 4000; ++i) {
    const std::size_t a = rng.below(next.size());
    const prov::SiteId site = sites[rng.below(sites.size())];
    const std::uint64_t size = rng.chance(0.02) ? 0 : 8 * (1 + rng.below(12));
    Addr base = next[a] + 8 * rng.below(3);  // sometimes leave a gap
    if (base + size > end[a]) {
      base = top;
      end[a] = top + kChunk;
      top += kChunk;
    }
    next[a] = base + size;
    reg.on_alloc(base, size, site);
    ref.on_alloc(base, size, site);
    if (i % 7 != 0) continue;
    // Probe around a random recorded extent, plus one random address.
    const auto& e = ref.extents()[rng.below(ref.extents().size())];
    for (const Addr p : {e.base - 1, e.base, e.base + e.size / 2,
                         e.base + e.size - 1, e.base + e.size}) {
      expect_same(reg, ref, p);
    }
    expect_same(reg, ref, rng.range(0, top + kChunk));
  }
  for (const auto& e : ref.extents()) {
    expect_same(reg, ref, e.base);
    expect_same(reg, ref, e.base + e.size);
  }
}

TEST(SiteRegistry, ResolveEdgeCases) {
  prov::SiteRegistry reg;
  LinearScanRegistry ref(reg);
  const prov::SiteId s = reg.register_site("s", 16);
  const auto alloc = [&](Addr base, std::uint64_t size) {
    reg.on_alloc(base, size, s);
    ref.on_alloc(base, size, s);
  };
  EXPECT_EQ(reg.resolve(1000).site, prov::kUntaggedSite);  // empty registry

  alloc(1000, 32);  // objects 0..1
  alloc(2000, 0);   // zero-size: covers nothing
  alloc(2000, 16);  // object 2, at the zero-size extent's base
  alloc(500, 16);   // out of order, below everything: object 3
  alloc(1100, 16);  // out of order, in the gap: object 4
  const std::vector<Addr> probes = {0,    499,  500,  515,  516,  999,
                                    1000, 1031, 1032, 1099, 1100, 1115,
                                    1116, 1999, 2000, 2015, 2016, ~Addr{0}};
  for (const Addr p : probes) expect_same(reg, ref, p);
  EXPECT_EQ(reg.resolve(499).site, prov::kUntaggedSite);  // before the first
  EXPECT_EQ(reg.resolve(516).site, prov::kUntaggedSite);  // at base + size
  EXPECT_EQ(reg.resolve(1032).site, prov::kUntaggedSite);  // in a gap
  EXPECT_EQ(reg.resolve(2000).object, 2u);
  EXPECT_EQ(reg.resolve(1100).object, 4u);

  // Enough descending appends to merge the tail into the sorted extents
  // several times over; every earlier answer must survive the merges.
  for (Addr b = 496; b > 0; b -= 2) alloc(b, 2);
  for (const Addr p : probes) expect_same(reg, ref, p);
  for (const auto& e : ref.extents()) {
    expect_same(reg, ref, e.base);
    expect_same(reg, ref, e.base + e.size - 1);
    expect_same(reg, ref, e.base + e.size);
  }
}

// ---- collector --------------------------------------------------------------

TEST(ProvCollector, AggregatesBySiteLineAndPair) {
  prov::SiteRegistry reg;
  const prov::SiteId a = reg.register_site("a", 8);
  const prov::SiteId b = reg.register_site("b", 8);
  reg.on_alloc(0, 64, a);    // line 0: objects a0..a7
  reg.on_alloc(64, 64, b);   // line 64: objects b0..b7

  prov::ProvCollector col(reg, 4);  // 4 sub-blocks of 16 bytes

  // False WAR inside line 0: probe bytes [8,16) vs victim bytes [0,8) —
  // disjoint objects of site a sharing one sub-block.
  ConflictRecord f;
  f.line = 0;
  f.probe_bytes = byte_mask(8, 8);
  f.victim_bytes = byte_mask(0, 8);
  f.invalidating = true;
  f.is_false = true;
  f.type = ConflictType::kWAR;
  const auto at = col.on_conflict(f, 100);
  EXPECT_EQ(at.victim_site, a);
  EXPECT_EQ(at.victim_obj, 0u);
  EXPECT_EQ(at.victim_sub, 0u);
  EXPECT_EQ(at.req_site, a);
  EXPECT_EQ(at.req_obj, 1u);

  // True WAW on line 64: overlapping bytes [48,56) → victim named by the
  // overlap, sub-block 3.
  ConflictRecord t;
  t.line = 64;
  t.probe_bytes = byte_mask(48, 8);
  t.victim_bytes = byte_mask(48, 8);
  t.invalidating = true;
  t.is_false = false;
  t.type = ConflictType::kWAW;
  const auto at2 = col.on_conflict(t, 40);
  EXPECT_EQ(at2.victim_site, b);
  EXPECT_EQ(at2.victim_obj, 6u);
  EXPECT_EQ(at2.victim_sub, 3u);

  // Avoided credit on line 0 against site a.
  col.on_avoided(0, byte_mask(32, 8), byte_mask(0, 8));

  Stats s;
  col.flush(s);
  ASSERT_TRUE(s.prov_enabled);
  ASSERT_EQ(s.prov_site_names.size(), 3u);  // (untagged), a, b
  ASSERT_EQ(s.prov_site_table.size(), 3 * prov::kSiteStride);

  const auto* ra = &s.prov_site_table[a * prov::kSiteStride];
  EXPECT_EQ(ra[0], 8u);    // obj_size
  EXPECT_EQ(ra[1], 8u);    // objects
  EXPECT_EQ(ra[2], 64u);   // bytes
  EXPECT_EQ(ra[3], 1u);    // false WAR
  EXPECT_EQ(ra[6], 0u);    // true WAR
  EXPECT_EQ(ra[9], 1u);    // avoided
  EXPECT_EQ(ra[10], 100u); // wasted

  const auto* rb = &s.prov_site_table[b * prov::kSiteStride];
  EXPECT_EQ(rb[5 /* false WAW */], 0u);
  EXPECT_EQ(rb[8 /* true WAW */], 1u);
  EXPECT_EQ(rb[10], 40u);

  ASSERT_EQ(s.prov_hot_lines.size(), 2 * prov::kLineStride);
  // Equal totals (1 each): ascending line breaks the tie.
  EXPECT_EQ(s.prov_hot_lines[0], 0u);   // line
  EXPECT_EQ(s.prov_hot_lines[1], a);    // victim site
  EXPECT_EQ(s.prov_hot_lines[2], 1u);   // false
  EXPECT_EQ(s.prov_hot_lines[4], 64u);
  EXPECT_EQ(s.prov_hot_lines[7], 1u);   // true

  ASSERT_EQ(s.prov_pairs.size(), 2 * prov::kPairStride);
  EXPECT_EQ(s.prov_pairs[0], a);  // requester
  EXPECT_EQ(s.prov_pairs[1], a);  // victim
  EXPECT_EQ(s.prov_pairs[2], 1u);
}

// ---- stats blob v4 ----------------------------------------------------------

TEST(ProvStatsBlob, DisabledBlobKeepsV3HeaderAndNoProvSection) {
  Stats s;
  s.tx_commits = 7;
  const std::string blob = serialize_stats(s);
  EXPECT_EQ(blob.rfind("asfsim-stats v3", 0), 0u);
  EXPECT_EQ(blob.find("prov"), std::string::npos);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_FALSE(back.prov_enabled);
}

TEST(ProvStatsBlob, V4SectionRoundTrips) {
  Stats s;
  s.prov_enabled = true;
  s.prov_site_names = {"(untagged)", "oltp.record"};
  s.prov_site_table.assign(2 * prov::kSiteStride, 0);
  s.prov_site_table[prov::kSiteStride + 3] = 42;  // record false WARs
  s.prov_hot_lines = {4096, 1, 42, 0};
  s.prov_pairs = {1, 1, 42, 0};

  const std::string blob = serialize_stats(s);
  EXPECT_EQ(blob.rfind("asfsim-stats v4", 0), 0u);
  Stats back;
  ASSERT_TRUE(deserialize_stats(blob, back));
  EXPECT_TRUE(back.prov_enabled);
  EXPECT_EQ(back.prov_site_names, s.prov_site_names);
  EXPECT_EQ(back.prov_site_table, s.prov_site_table);
  EXPECT_EQ(back.prov_hot_lines, s.prov_hot_lines);
  EXPECT_EQ(back.prov_pairs, s.prov_pairs);

  // Truncating the section must fail loudly, not yield a half-read blob.
  Stats junk;
  EXPECT_FALSE(deserialize_stats(blob.substr(0, blob.size() - 4), junk));
}

// ---- end-to-end: provenance on a contended OLTP run -------------------------

ExperimentResult contended_oltp(DetectorKind det, std::uint32_t nsub,
                                bool provenance) {
  ExperimentConfig cfg;
  cfg.detector = det;
  cfg.nsub = nsub;
  cfg.params.scale = 0.25;
  cfg.params.oltp.theta = 1.2;
  cfg.params.oltp.read_ratio = 0.5;
  cfg.sim.provenance = provenance;
  return run_experiment("oltp", cfg);
}

TEST(ProvRun, EnablingProvenanceDoesNotPerturbTheSimulation) {
  const auto off = contended_oltp(DetectorKind::kSubBlock, 4, false);
  auto on = contended_oltp(DetectorKind::kSubBlock, 4, true);
  ASSERT_TRUE(off.ok()) << off.validation_error;
  ASSERT_TRUE(on.ok()) << on.validation_error;
  EXPECT_TRUE(on.stats.prov_enabled);
  EXPECT_GT(on.stats.prov_site_table.size(), 0u);

  // Strip the opt-in section; everything else must be byte-identical.
  on.stats.prov_enabled = false;
  on.stats.prov_site_names.clear();
  on.stats.prov_site_table.clear();
  on.stats.prov_hot_lines.clear();
  on.stats.prov_pairs.clear();
  EXPECT_EQ(serialize_stats(off.stats), serialize_stats(on.stats));
}

TEST(ProvRun, PerSiteTotalsReconcileExactlyWithAggregateCounters) {
  const auto r = contended_oltp(DetectorKind::kSubBlock, 4, true);
  ASSERT_TRUE(r.ok()) << r.validation_error;
  const Stats& s = r.stats;
  ASSERT_TRUE(s.prov_enabled);
  ASSERT_EQ(s.prov_site_table.size(),
            s.prov_site_names.size() * prov::kSiteStride);
  ASSERT_GT(s.conflicts_total, 0u);

  std::uint64_t nfalse = 0, ntrue = 0, avoided = 0;
  std::array<std::uint64_t, 3> false_by_type{}, true_by_type{};
  for (std::size_t i = 0; i < s.prov_site_names.size(); ++i) {
    const auto* row = &s.prov_site_table[i * prov::kSiteStride];
    for (int t = 0; t < 3; ++t) {
      nfalse += row[3 + t];
      ntrue += row[6 + t];
      false_by_type[t] += row[3 + t];
      true_by_type[t] += row[6 + t];
    }
    avoided += row[9];
  }
  EXPECT_EQ(nfalse, s.conflicts_false);
  EXPECT_EQ(nfalse + ntrue, s.conflicts_total);
  EXPECT_EQ(avoided, s.false_conflicts_avoided);
  for (int t = 0; t < 3; ++t) {
    EXPECT_EQ(false_by_type[t], s.false_by_type[t]) << "type " << t;
    EXPECT_EQ(true_by_type[t], s.true_by_type[t]) << "type " << t;
  }

  // The pair matrix is complete (unlike hot lines, which are top-32).
  std::uint64_t pair_false = 0, pair_true = 0;
  for (std::size_t i = 0; i < s.prov_pairs.size(); i += prov::kPairStride) {
    pair_false += s.prov_pairs[i + 2];
    pair_true += s.prov_pairs[i + 3];
  }
  EXPECT_EQ(pair_false, s.conflicts_false);
  EXPECT_EQ(pair_false + pair_true, s.conflicts_total);
}

TEST(ProvRun, RecordTableIsTheTopFalseConflictSiteUnderBaseline) {
  const auto r = contended_oltp(DetectorKind::kBaseline, 1, true);
  ASSERT_TRUE(r.ok()) << r.validation_error;
  const Stats& s = r.stats;
  ASSERT_GT(s.conflicts_false, 0u);

  std::size_t top = 0;
  std::uint64_t top_false = 0;
  for (std::size_t i = 0; i < s.prov_site_names.size(); ++i) {
    const auto* row = &s.prov_site_table[i * prov::kSiteStride];
    const std::uint64_t f = row[3] + row[4] + row[5];
    if (f > top_false) {
      top_false = f;
      top = i;
    }
  }
  // The unpadded record table manufactures the false sharing; the report
  // must name it, not the allocator or a control structure.
  EXPECT_EQ(s.prov_site_names[top], "oltp.record");
  EXPECT_GT(top_false, 0u);
}

// ---- jobspec identity -------------------------------------------------------

TEST(ProvJobSpec, ProvenanceAndHotWindowParticipateInTheHash) {
  ExperimentConfig base;
  const std::string h0 = runner::make_job_spec("oltp", base).hash_hex;

  ExperimentConfig p = base;
  p.sim.provenance = true;
  const std::string h1 = runner::make_job_spec("oltp", p).hash_hex;

  ExperimentConfig w = base;
  w.params.oltp.hot_window = 64;
  const std::string h2 = runner::make_job_spec("oltp", w).hash_hex;

  EXPECT_NE(h0, h1);
  EXPECT_NE(h0, h2);
  EXPECT_NE(h1, h2);
}

// ---- YCSB-D sliding hot window ----------------------------------------------

TEST(OltpHotWindow, ValidatedAndDeterministic) {
  OltpConfig c;
  c.hot_window = c.records;
  EXPECT_TRUE(c.validate().empty());
  c.hot_window = c.records + 1;
  EXPECT_FALSE(c.validate().empty());

  ExperimentConfig cfg;
  cfg.detector = DetectorKind::kSubBlock;
  cfg.nsub = 4;
  cfg.params.scale = 0.2;
  cfg.params.oltp.mix = OltpMix::kD;
  cfg.params.oltp.hot_window = 64;
  const auto a = run_experiment("oltp", cfg);
  const auto b = run_experiment("oltp", cfg);
  ASSERT_TRUE(a.ok()) << a.validation_error;
  EXPECT_GT(a.stats.tx_commits, 0u);
  EXPECT_EQ(serialize_stats(a.stats), serialize_stats(b.stats));

  // The window changes which keys collide, so it must change the outcome —
  // otherwise the knob silently fell out of the key-draw path.
  ExperimentConfig whole = cfg;
  whole.params.oltp.hot_window = 0;
  const auto c2 = run_experiment("oltp", whole);
  ASSERT_TRUE(c2.ok()) << c2.validation_error;
  EXPECT_NE(serialize_stats(a.stats), serialize_stats(c2.stats));
}

}  // namespace
}  // namespace asfsim
