// Test helpers over the stats blob rows (kStatsFields): a Stats in which
// every row is non-empty, a way to move one field off its value, and the
// FNV hash of the blob for every such variant.
#pragma once

#include <array>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <string_view>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "stats/serialize.hpp"

namespace asfsim::stats_rows {

inline void fill(std::uint64_t& v, std::uint64_t& next) { v = next++; }
inline void fill(bool& b, std::uint64_t&) { b = true; }
template <std::size_t N>
void fill(std::array<std::uint64_t, N>& a, std::uint64_t& next) {
  for (std::uint64_t& v : a) v = next++;
}
inline void fill(std::vector<std::uint64_t>& v, std::uint64_t& next) {
  v = {next, next + 1, next + 2, next + 3};
  next += 4;
}
inline void fill(std::vector<std::string>& names, std::uint64_t&) {
  names = {"site_a:alloc(64)"};
}
inline void fill(std::unordered_map<Addr, std::uint64_t>& by_line,
                 std::uint64_t& next) {
  by_line = {{0x1000, next}, {0x2040, next + 1}};
  next += 2;
}

/// Every row set to a distinct non-zero value, both opt-in sections on,
/// and each container shaped as deserialize_stats demands: 11 table values
/// per site, hot lines and pairs in strides of 4, equal per-core lengths.
inline Stats sample() {
  Stats s;
  std::uint64_t next = 1;
  std::apply([&](const auto&... f) { (fill(s.*f.member, next), ...); },
             kStatsFields);
  s.prov_site_table.resize(11 * s.prov_site_names.size(), 7);
  return s;
}

/// Moves a field off its value in a way that keeps the blob well-formed.
inline void bump(std::uint64_t& v) { v += 1; }
inline void bump(bool& b) { b = !b; }
template <std::size_t N>
void bump(std::array<std::uint64_t, N>& a) {
  a[0] += 1;
}
inline void bump(std::vector<std::uint64_t>& v) { v[0] += 1; }
inline void bump(std::vector<std::string>& names) { names[0] += "x"; }
inline void bump(std::unordered_map<Addr, std::uint64_t>& by_line) {
  by_line[0x1000] += 1;
}

inline std::string fnv1a_hex(std::string_view s) {
  std::uint64_t h = 1469598103934665603ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ull;
  }
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

/// Blob hash per variant: the default Stats, each header combination of
/// sample() (v3, v4, v5 with provenance off and on), and sample() with each
/// row bumped once.
inline std::map<std::string, std::string> blob_hashes() {
  std::map<std::string, std::string> out;
  const auto put = [&](const std::string& name, const Stats& s) {
    out[name] = fnv1a_hex(serialize_stats(s));
  };
  put("default", Stats{});
  for (const bool prov : {false, true}) {
    for (const bool cm : {false, true}) {
      Stats s = sample();
      s.prov_enabled = prov;
      s.cm_enabled = cm;
      put(std::string(cm ? "v5" : prov ? "v4" : "v3") +
              (prov ? " prov" : "") + (cm ? " cm" : ""),
          s);
    }
  }
  std::apply(
      [&](const auto&... f) {
        const auto bumped = [&](const auto& row) {
          Stats s = sample();
          bump(s.*row.member);
          put("bump " + std::string(row.key), s);
        };
        (bumped(f), ...);
      },
      kStatsFields);
  return out;
}

}  // namespace asfsim::stats_rows
