#include "stats/serialize.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <iterator>
#include <utility>
#include <vector>

#include "sim/aggregate.hpp"

namespace asfsim {

namespace {

// v2: appended the per-attempt profile fields (trace subsystem).
// v3: appended tx_latency_hist (per-transaction latency, OLTP reporting).
// v4: appended the opt-in conflict-provenance section. The v4 header is
// only written when the section is present (prov_enabled), so provenance-
// off blobs stay byte-identical to v3 — the kernel-identity goldens hash
// them — while on/off blobs differ only in the version digit and the
// appended section. Older blobs still fail deserialization cleanly; the
// result cache never serves them anyway (the code stamp changed with the
// code).
// v5: appended the opt-in contention-management section (--cm-stats). Like
// v4, the v5 header is only written when its section is present, so cm-off
// blobs remain byte-identical to v4 (or v3 when provenance is off too). A
// v5 blob always carries an explicit prov_enabled flag so the two opt-in
// sections compose in every combination.
constexpr std::string_view kHeaders[] = {
    "asfsim-stats v3", "asfsim-stats v4", "asfsim-stats v5"};

constexpr auto kKeys = std::apply(
    [](const auto&... row) { return std::array{row.key...}; }, kStatsFields);

constexpr std::size_t row_of(std::string_view key) {
  std::size_t i = 0;
  while (i < kKeys.size() && kKeys[i] != key) ++i;
  return i;
}

constexpr bool keys_distinct() {
  for (std::size_t i = 0; i < kKeys.size(); ++i) {
    if (row_of(kKeys[i]) != i) return false;
  }
  return true;
}

static_assert(kKeys.size() == aggregate_arity<Stats>(),
              "every Stats field needs exactly one row in kStatsFields "
              "(stats/serialize.hpp)");
static_assert(keys_distinct(), "two kStatsFields rows name one field");

// The section gates: the rows after each gate, up to the next one, belong
// to its section.
constexpr std::size_t kProvGate = row_of("prov_enabled");
constexpr std::size_t kCmGate = row_of("cm_enabled");
static_assert(kProvGate < kCmGate && kCmGate < kKeys.size());

/// Whether a blob with header `version` carries row i: the core rows
/// always; the provenance flag from v4 on (a v4 blob always has the section,
/// a v5 blob says whether it does); the provenance rows when that flag is
/// set; the cm flag and rows only in v5 (whose header means "cm section").
constexpr bool present(std::size_t i, int version, const Stats& s) {
  if (i < kProvGate) return true;
  if (i == kProvGate) return version >= 4;
  if (i < kCmGate) return s.prov_enabled;
  return version == 5;
}

// Charset of serialized site-name tokens; matches the sanitizer in
// prov/site_registry.cpp so round-trips are exact.
bool name_char_ok(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
         (c >= '0' && c <= '9') || c == '_' || c == '.' || c == ':' ||
         c == '(' || c == ')' || c == '-';
}

// ---- writer: one put() per field type, each emitting " value..." -------

void put(std::string& out, std::uint64_t v) {
  char buf[24] = {' '};
  out.append(buf, std::to_chars(buf + 1, std::end(buf), v).ptr);
}

void put(std::string& out, bool b) { put(out, std::uint64_t{b}); }

template <std::size_t N>
void put(std::string& out, const std::array<std::uint64_t, N>& values) {
  put(out, std::uint64_t{N});
  for (const std::uint64_t v : values) put(out, v);
}

void put(std::string& out, const std::vector<std::uint64_t>& values) {
  put(out, std::uint64_t{values.size()});
  for (const std::uint64_t v : values) put(out, v);
}

void put(std::string& out, const std::vector<std::string>& names) {
  put(out, std::uint64_t{names.size()});
  for (const std::string& name : names) {
    out += ' ';
    out += name;
  }
}

void put(std::string& out,
         const std::unordered_map<Addr, std::uint64_t>& by_line) {
  std::vector<std::pair<Addr, std::uint64_t>> sorted(by_line.begin(),
                                                     by_line.end());
  std::sort(sorted.begin(), sorted.end());
  put(out, std::uint64_t{2 * sorted.size()});
  for (const auto& [addr, count] : sorted) {
    put(out, addr);
    put(out, count);
  }
}

/// Cursor over the blob; every read checks syntax so corruption surfaces
/// as a false return from deserialize_stats, never as garbage stats. One
/// get() per field type, each the inverse of its put().
class Reader {
 public:
  explicit Reader(std::string_view blob) : rest_(blob) {}

  bool literal(std::string_view text) {
    if (rest_.substr(0, text.size()) != text) return false;
    rest_.remove_prefix(text.size());
    return true;
  }

  /// One row's `key value...` line, or nothing when the blob does not
  /// carry the row.
  template <class T>
  bool row(const StatsField<T>& f, Stats& out, bool is_present) {
    return !is_present ||
           (literal(f.key) && get(out.*f.member) && literal("\n"));
  }

  [[nodiscard]] bool done() const { return rest_.empty(); }

 private:
  bool get(std::uint64_t& v) {
    if (!literal(" ")) return false;
    if (rest_.empty() || rest_[0] < '0' || rest_[0] > '9') return false;
    if (rest_[0] == '0' && rest_.size() > 1 && rest_[1] >= '0' &&
        rest_[1] <= '9') {
      return false;  // leading zero: serialize_stats never writes one
    }
    v = 0;
    while (!rest_.empty() && rest_[0] >= '0' && rest_[0] <= '9') {
      const auto d = static_cast<std::uint64_t>(rest_[0] - '0');
      if (v > (~std::uint64_t{0} - d) / 10) return false;  // would wrap
      v = v * 10 + d;
      rest_.remove_prefix(1);
    }
    return true;
  }

  bool get(bool& b) {
    std::uint64_t v = 0;
    if (!get(v) || v > 1) return false;
    b = v == 1;
    return true;
  }

  template <std::size_t N>
  bool get(std::array<std::uint64_t, N>& values) {
    std::uint64_t n = 0;
    if (!get(n) || n != N) return false;
    for (std::uint64_t& v : values) {
      if (!get(v)) return false;
    }
    return true;
  }

  /// A sequence count. Each element needs >= 2 bytes of input (" 0"), so
  /// a count larger than that is corruption — rejected before anything is
  /// reserved, or a flipped count byte would turn into a giant allocation.
  bool count(std::uint64_t& n) { return get(n) && n <= rest_.size() / 2; }

  bool get(std::vector<std::uint64_t>& values) {
    std::uint64_t n = 0;
    if (!count(n)) return false;
    values.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      std::uint64_t v = 0;
      if (!get(v)) return false;
      values.push_back(v);
    }
    return true;
  }

  /// Whitespace-delimited name tokens (site names; restricted charset).
  bool get(std::vector<std::string>& names) {
    std::uint64_t n = 0;
    if (!count(n)) return false;
    names.reserve(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      if (!literal(" ")) return false;
      std::size_t len = 0;
      while (len < rest_.size() && name_char_ok(rest_[len])) ++len;
      if (len == 0) return false;
      names.emplace_back(rest_.substr(0, len));
      rest_.remove_prefix(len);
    }
    return true;
  }

  bool get(std::unordered_map<Addr, std::uint64_t>& by_line) {
    std::uint64_t n = 0;
    if (!count(n) || n % 2 != 0) return false;
    Addr prev = 0;
    for (std::uint64_t i = 0; i < n; i += 2) {
      Addr addr = 0;
      std::uint64_t v = 0;
      if (!get(addr) || !get(v)) return false;
      // Canonical blobs are sorted by address with no duplicates; anything
      // else is corruption (a duplicate would silently merge two entries).
      if (i > 0 && addr <= prev) return false;
      by_line.emplace(addr, v);
      prev = addr;
    }
    return true;
  }

  std::string_view rest_;
};

constexpr auto kRowIndices =
    std::make_index_sequence<std::tuple_size_v<decltype(kStatsFields)>>{};

}  // namespace

std::string serialize_stats(const Stats& s) {
  const int version = s.cm_enabled ? 5 : (s.prov_enabled ? 4 : 3);
  std::string out;
  out.reserve(2048);
  out += kHeaders[version - 3];
  out += '\n';
  [&]<std::size_t... I>(std::index_sequence<I...>) {
    const auto row = [&](const auto& f, bool is_present) {
      if (!is_present) return;
      out += f.key;
      put(out, s.*f.member);
      out += '\n';
    };
    (row(std::get<I>(kStatsFields), present(I, version, s)), ...);
  }(kRowIndices);
  return out;
}

bool deserialize_stats(std::string_view blob, Stats& out) {
  out = Stats{};
  Reader r(blob);
  int version = 0;
  for (int v = 3; v <= 5 && version == 0; ++v) {
    if (r.literal(kHeaders[v - 3])) version = v;
  }
  const bool rows_ok =
      version != 0 && r.literal("\n") &&
      [&]<std::size_t... I>(std::index_sequence<I...>) {
        // Left to right, so each gate row is read before present() asks.
        return (r.row(std::get<I>(kStatsFields), out,
                      present(I, version, out)) &&
                ...);
      }(kRowIndices);
  return rows_ok && r.done() &&
         // A v4 header is only written with the provenance section, a v5
         // header only with the cm section.
         (version != 4 || out.prov_enabled) &&
         (version != 5 || out.cm_enabled) &&
         // Stride/shape checks (prov/collector.hpp layout constants).
         out.prov_site_table.size() == out.prov_site_names.size() * 11 &&
         out.prov_hot_lines.size() % 4 == 0 && out.prov_pairs.size() % 4 == 0 &&
         // The three per-core cm vectors must agree on the core count.
         out.cm_wasted_by_core.size() == out.cm_max_consec_aborts.size() &&
         out.cm_first_commit_cycle.size() == out.cm_max_consec_aborts.size();
}

}  // namespace asfsim
