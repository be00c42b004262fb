// Allocation-site registry: the address->provenance half of the conflict
// attribution pipeline (docs/observability.md, "Conflict provenance").
//
// Workloads declare *sites* — named families of guest objects with a fixed
// per-object size ("oltp.record", "gnode", "kmeans.new_centers") — and the
// GAllocator records every tagged allocation as an extent against its site.
// At conflict time the collector resolves a faulting byte address back to
// (site, object index) with one binary search over the sorted extents (plus
// a scan of the few out-of-order appends not yet merged in).
//
// The registry is entirely off the simulation hot path: it is only consulted
// when a conflict is actually detected (and conflicts already pay an abort),
// and it is not even constructed unless SimConfig::provenance is set.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "sim/types.hpp"

namespace asfsim::prov {

/// Dense site identifier. Site 0 is always "(untagged)": addresses that no
/// recorded extent covers (allocator padding, untagged legacy allocations).
using SiteId = std::uint32_t;
inline constexpr SiteId kUntaggedSite = 0;

/// Aggregate shape of one site, reported in the stats blob and the kSite
/// trace events.
struct SiteInfo {
  std::string name;
  std::uint64_t obj_size = 0;  // bytes per object (0 = variable/unknown)
  std::uint64_t objects = 0;   // objects allocated against this site
  std::uint64_t bytes = 0;     // total bytes allocated against this site
};

class SiteRegistry {
 public:
  SiteRegistry();

  /// Register (or look up) a site by name. Names are sanitized to the
  /// serializer-safe charset [A-Za-z0-9_.:()-]; registering an existing
  /// name returns its id (the first obj_size wins).
  SiteId register_site(std::string_view name, std::uint64_t obj_size);

  /// Record one tagged allocation. Extents must not overlap (the bump
  /// allocator guarantees this; arena refills are recorded untagged). An
  /// append above the last extent extends the sorted prefix; any other
  /// joins the tail, which is merged in once it holds kMaxTail + 1.
  void on_alloc(Addr base, std::uint64_t size, SiteId site);

  struct Location {
    SiteId site = kUntaggedSite;
    std::uint64_t object = 0;  // site-wide object index (allocation order)
  };

  /// Resolve a byte address to the covering site, or kUntaggedSite: one
  /// binary search over the sorted prefix, then a scan of the tail.
  [[nodiscard]] Location resolve(Addr addr) const;

  [[nodiscard]] const std::vector<SiteInfo>& sites() const { return sites_; }

 private:
  struct Extent {
    Addr base = 0;
    std::uint64_t size = 0;
    SiteId site = kUntaggedSite;
    std::uint64_t first_object = 0;  // object index of the extent's base
  };

  /// Out-of-order appends the tail holds before on_alloc merges it into
  /// the sorted prefix; resolve() scans at most this many linearly.
  static constexpr std::size_t kMaxTail = 64;

  void merge_tail();

  std::vector<SiteInfo> sites_;
  std::unordered_map<std::string, SiteId> by_name_;
  // Extents arrive in ascending-address order from each bump arena, but
  // per-core arenas interleave. extents_[0, sorted_) ascends by base; the
  // rest is a short tail of out-of-order appends in arrival order.
  std::vector<Extent> extents_;
  std::size_t sorted_ = 0;
};

}  // namespace asfsim::prov
