#include "prov/site_registry.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>

namespace asfsim::prov {

namespace {

bool site_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
         c == '(' || c == ')' || c == '-';
}

// Site names land in the stats blob (whitespace-delimited tokens) and in
// trace JSONL strings; clamp them to a charset both parsers accept verbatim.
std::string sanitize(std::string_view name) {
  std::string out(name.empty() ? std::string_view{"(unnamed)"} : name);
  for (char& c : out) {
    if (!site_char_ok(c)) c = '_';
  }
  return out;
}

}  // namespace

SiteRegistry::SiteRegistry() {
  sites_.push_back(SiteInfo{"(untagged)", 0, 0, 0});
  by_name_.emplace(sites_.back().name, kUntaggedSite);
}

SiteId SiteRegistry::register_site(std::string_view name,
                                   std::uint64_t obj_size) {
  std::string key = sanitize(name);
  const auto it = by_name_.find(key);
  if (it != by_name_.end()) return it->second;
  const SiteId id = static_cast<SiteId>(sites_.size());
  sites_.push_back(SiteInfo{key, obj_size, 0, 0});
  by_name_.emplace(std::move(key), id);
  return id;
}

void SiteRegistry::on_alloc(Addr base, std::uint64_t size, SiteId site) {
  assert(site < sites_.size());
  SiteInfo& info = sites_[site];
  const std::uint64_t first = info.objects;
  info.objects += info.obj_size != 0 ? (size + info.obj_size - 1) / info.obj_size
                                     : 1;
  info.bytes += size;
  if (size == 0) return;  // covers no address: nothing for resolve() to find
  const bool in_order = sorted_ == extents_.size() &&
                        (sorted_ == 0 || base >= extents_.back().base);
  extents_.push_back(Extent{base, size, site, first});
  if (in_order) {
    ++sorted_;
  } else if (extents_.size() - sorted_ > kMaxTail) {
    merge_tail();
  }
}

void SiteRegistry::merge_tail() {
  const auto by_base = [](const Extent& a, const Extent& b) {
    return a.base < b.base;
  };
  const auto mid = extents_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  std::sort(mid, extents_.end(), by_base);
  // Merges backward from the end: the cost is the tail plus the prefix
  // extents above its lowest base (the newest arena chunks), not the table.
  std::inplace_merge(extents_.begin(), mid, extents_.end(), by_base);
  sorted_ = extents_.size();
}

SiteRegistry::Location SiteRegistry::resolve(Addr addr) const {
  const auto covers = [addr](const Extent& e) {
    return addr >= e.base && addr - e.base < e.size;
  };
  const Extent* hit = nullptr;
  // First sorted extent with base > addr; the candidate is its predecessor.
  const auto mid = extents_.begin() + static_cast<std::ptrdiff_t>(sorted_);
  const auto it = std::upper_bound(
      extents_.begin(), mid, addr,
      [](Addr a, const Extent& e) { return a < e.base; });
  if (it != extents_.begin() && covers(*std::prev(it))) {
    hit = &*std::prev(it);
  } else {
    const auto t = std::find_if(mid, extents_.end(), covers);
    if (t != extents_.end()) hit = &*t;
  }
  if (hit == nullptr) return {};
  Location loc;
  loc.site = hit->site;
  const std::uint64_t obj_size = sites_[hit->site].obj_size;
  loc.object =
      hit->first_object + (obj_size != 0 ? (addr - hit->base) / obj_size : 0);
  return loc;
}

}  // namespace asfsim::prov
