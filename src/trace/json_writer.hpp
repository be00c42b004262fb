// Append-only JSON writer shared by the trace sinks (JSONL and Perfetto) and
// the text reports' address columns. Everything is appended straight into a
// caller-owned std::string — no snprintf, no per-field temporaries — so a
// record costs what its bytes cost. Integers go through std::to_chars as
// plain decimal or "0x"-prefixed lowercase hex: the same bytes printf's
// "%llu" and "0x%llx" produce, which the trace-format goldens pin
// (tests/golden/trace_formats.golden). Keys and string values are copied
// verbatim, unescaped: every string a sink writes is a fixed label or a site
// name already clamped to [A-Za-z0-9_.:()-] (prov/site_registry.hpp).
#pragma once

#include <charconv>
#include <cstdint>
#include <string>
#include <string_view>

#include "trace/event.hpp"

namespace asfsim::trace {

/// Append `v` in decimal.
inline void append_u64(std::string& out, std::uint64_t v) {
  char buf[20];
  const auto r = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, r.ptr);
}

/// Append `v` as "0x" + lowercase hex digits ("0x0" for zero).
inline void append_hex(std::string& out, std::uint64_t v) {
  char buf[18] = {'0', 'x'};
  const auto r = std::to_chars(buf + 2, buf + sizeof(buf), v, 16);
  out.append(buf, r.ptr);
}

/// `v` as a "0x…" string.
[[nodiscard]] inline std::string hex_string(std::uint64_t v) {
  std::string s;
  append_hex(s, v);
  return s;
}

/// Writes JSON objects into `out`, placing the separating commas itself.
/// Objects nest: open() after key() opens the key's value.
class JsonWriter {
 public:
  explicit JsonWriter(std::string& out) : out_(out) {}

  JsonWriter& open() {
    out_ += '{';
    first_ = true;
    return *this;
  }
  JsonWriter& close() {
    out_ += '}';
    first_ = false;
    return *this;
  }

  /// `"k":`, after a comma unless it is the object's first key.
  JsonWriter& key(std::string_view k) {
    if (!first_) out_ += ',';
    first_ = false;
    out_ += '"';
    out_ += k;
    out_ += "\":";
    return *this;
  }

  JsonWriter& u64(std::string_view k, std::uint64_t v) {
    key(k);
    append_u64(out_, v);
    return *this;
  }

  /// `"k":"0x…"`.
  JsonWriter& hex(std::string_view k, std::uint64_t v) {
    key(k);
    out_ += '"';
    append_hex(out_, v);
    out_ += '"';
    return *this;
  }

  JsonWriter& boolean(std::string_view k, bool v) {
    key(k);
    out_ += v ? std::string_view{"true"} : std::string_view{"false"};
    return *this;
  }

  /// `"k":"<pieces…>"`: string pieces are copied, integers written in
  /// decimal.
  template <typename... Pieces>
  JsonWriter& str(std::string_view k, const Pieces&... pieces) {
    key(k);
    out_ += '"';
    (piece(pieces), ...);
    out_ += '"';
    return *this;
  }

 private:
  void piece(std::string_view s) { out_ += s; }
  void piece(std::uint64_t v) { append_u64(out_, v); }

  std::string& out_;
  bool first_ = true;
};

// Field groups both sinks write under the same keys.

/// The transaction footprint: read/write lines and sub-blocks.
inline void footprint_fields(JsonWriter& w, const TraceEvent& ev) {
  w.u64("read_lines", ev.read_lines)
      .u64("write_lines", ev.write_lines)
      .u64("read_subs", ev.read_subs)
      .u64("write_subs", ev.write_subs);
}

/// The conflict provenance keys, on --prov runs only.
inline void prov_fields(JsonWriter& w, const TraceEvent& ev) {
  if (!ev.has_prov) return;
  w.u64("victim_site", ev.victim_site)
      .u64("victim_obj", ev.victim_obj)
      .u64("victim_sub", ev.victim_sub)
      .u64("req_site", ev.req_site)
      .u64("req_obj", ev.req_obj);
}

}  // namespace asfsim::trace
