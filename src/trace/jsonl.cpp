#include "trace/jsonl.hpp"

#include <ostream>

#include "trace/json_writer.hpp"

namespace asfsim::trace {

namespace {

bool parse_kind(std::string_view s, TraceEventKind& out) {
  for (std::size_t i = 0; i < kTraceEventKinds; ++i) {
    const auto k = static_cast<TraceEventKind>(i);
    if (s == to_string(k)) {
      out = k;
      return true;
    }
  }
  return false;
}

bool parse_cause(std::string_view s, AbortCause& out) {
  for (const AbortCause c : {AbortCause::kConflict, AbortCause::kCapacity,
                             AbortCause::kUser, AbortCause::kLockWait}) {
    if (s == to_string(c)) {
      out = c;
      return true;
    }
  }
  return false;
}

bool parse_type(std::string_view s, ConflictType& out) {
  for (const ConflictType t :
       {ConflictType::kWAR, ConflictType::kRAW, ConflictType::kWAW}) {
    if (s == to_string(t)) {
      out = t;
      return true;
    }
  }
  return false;
}

/// Pull-parser over `{"key":value,...}` with uint / bool / string values —
/// exactly the grammar to_jsonl emits, rejected strictly otherwise.
class LineParser {
 public:
  explicit LineParser(std::string_view line) : rest_(line) {
    while (!rest_.empty() &&
           (rest_.back() == '\n' || rest_.back() == '\r')) {
      rest_.remove_suffix(1);
    }
  }

  bool open() { return eat('{'); }
  bool close() { return eat('}') && rest_.empty(); }
  [[nodiscard]] bool at_close() const {
    return !rest_.empty() && rest_[0] == '}';
  }

  /// Parse the next `"key":` pair header into `key`.
  bool key(std::string_view& key) {
    if (!comma_done_ && !eat(',')) return false;
    comma_done_ = false;
    if (!eat('"')) return false;
    const std::size_t q = rest_.find('"');
    if (q == std::string_view::npos) return false;
    key = rest_.substr(0, q);
    rest_.remove_prefix(q + 1);
    return eat(':');
  }

  bool u64(std::uint64_t& v) {
    if (rest_.empty() || rest_[0] < '0' || rest_[0] > '9') return false;
    if (rest_[0] == '0' && rest_.size() > 1 && rest_[1] >= '0' &&
        rest_[1] <= '9') {
      return false;  // leading zero: to_jsonl never writes one
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

  bool boolean(bool& v) {
    if (rest_.substr(0, 4) == "true") {
      v = true;
      rest_.remove_prefix(4);
      return true;
    }
    if (rest_.substr(0, 5) == "false") {
      v = false;
      rest_.remove_prefix(5);
      return true;
    }
    return false;
  }

  bool str(std::string_view& v) {
    if (!eat('"')) return false;
    const std::size_t q = rest_.find('"');
    if (q == std::string_view::npos) return false;
    v = rest_.substr(0, q);
    rest_.remove_prefix(q + 1);
    return true;
  }

  /// First pair carries no leading comma.
  void begin_object() { comma_done_ = true; }

 private:
  bool eat(char c) {
    if (rest_.empty() || rest_[0] != c) return false;
    rest_.remove_prefix(1);
    return true;
  }

  std::string_view rest_;
  bool comma_done_ = false;
};

}  // namespace

void to_jsonl(const TraceEvent& ev, std::string& out) {
  JsonWriter w(out);
  w.open().str("kind", to_string(ev.kind));
  switch (ev.kind) {
    case TraceEventKind::kBegin:
      w.u64("core", ev.core).u64("cycle", ev.cycle);
      break;
    case TraceEventKind::kCommit:
      w.u64("core", ev.core)
          .u64("cycle", ev.cycle)
          .u64("start", ev.span_begin)
          .u64("retries", ev.retries)
          .u64("wasted", ev.wasted);
      footprint_fields(w, ev);
      break;
    case TraceEventKind::kAbort:
      w.u64("core", ev.core)
          .u64("cycle", ev.cycle)
          .u64("start", ev.span_begin)
          .str("cause", to_string(ev.cause))
          .u64("wasted", ev.wasted);
      footprint_fields(w, ev);
      break;
    case TraceEventKind::kConflict:
      w.u64("core", ev.core)
          .u64("other", ev.other)
          .u64("cycle", ev.cycle)
          .u64("line", ev.line)
          .str("type", to_string(ev.type))
          .boolean("false", ev.is_false)
          .u64("probe_mask", ev.probe_mask)
          .u64("victim_mask", ev.victim_mask);
      prov_fields(w, ev);
      break;
    case TraceEventKind::kAvoided:
      w.u64("core", ev.core)
          .u64("other", ev.other)
          .u64("cycle", ev.cycle)
          .u64("line", ev.line)
          .u64("probe_mask", ev.probe_mask)
          .u64("victim_mask", ev.victim_mask);
      prov_fields(w, ev);
      break;
    case TraceEventKind::kFallback:
      w.u64("core", ev.core)
          .u64("cycle", ev.cycle)
          .u64("start", ev.span_begin)
          .u64("retries", ev.retries)
          .u64("wasted", ev.wasted);
      break;
    case TraceEventKind::kBackoff:
      w.u64("core", ev.core).u64("cycle", ev.cycle).u64("start", ev.span_begin);
      break;
    case TraceEventKind::kCounter:
      w.u64("cycle", ev.cycle)
          .u64("live_tx", ev.live_tx)
          .u64("commits", ev.commits)
          .u64("aborts", ev.aborts)
          .u64("bus_wait", ev.bus_wait);
      break;
    case TraceEventKind::kSite:
      w.u64("site", ev.site_id)
          .str("name", ev.site_name)
          .u64("obj_size", ev.site_obj_size)
          .u64("objects", ev.site_objects)
          .u64("bytes", ev.site_bytes);
      break;
    case TraceEventKind::kPolicy:
      w.u64("core", ev.core)
          .u64("other", ev.other)
          .u64("loser", ev.loser)
          .u64("cycle", ev.cycle)
          .u64("line", ev.line);
      break;
    case TraceEventKind::kFallbackAcquired:
      w.u64("core", ev.core)
          .u64("cycle", ev.cycle)
          .u64("start", ev.span_begin)
          .u64("retries", ev.retries);
      break;
  }
  w.close();
  out += '\n';
}

bool from_jsonl(std::string_view line, TraceEvent& out) {
  out = TraceEvent{};
  LineParser p(line);
  if (!p.open()) return false;
  p.begin_object();

  std::string_view key;
  std::string_view sval;
  if (!p.key(key) || key != "kind" || !p.str(sval) ||
      !parse_kind(sval, out.kind)) {
    return false;
  }

  while (!p.at_close()) {
    if (!p.key(key)) return false;
    if (key == "cause") {
      if (!p.str(sval) || !parse_cause(sval, out.cause)) return false;
    } else if (key == "type") {
      if (!p.str(sval) || !parse_type(sval, out.type)) return false;
    } else if (key == "false") {
      if (!p.boolean(out.is_false)) return false;
    } else if (key == "name") {
      if (!p.str(sval)) return false;
      out.site_name = std::string(sval);
    } else {
      std::uint64_t v = 0;
      if (!p.u64(v)) return false;
      if (key == "core") {
        out.core = static_cast<CoreId>(v);
      } else if (key == "other") {
        out.other = static_cast<CoreId>(v);
      } else if (key == "cycle") {
        out.cycle = v;
      } else if (key == "start") {
        out.span_begin = v;
      } else if (key == "line") {
        out.line = v;
      } else if (key == "probe_mask") {
        out.probe_mask = v;
      } else if (key == "victim_mask") {
        out.victim_mask = v;
      } else if (key == "retries") {
        out.retries = static_cast<std::uint32_t>(v);
      } else if (key == "wasted") {
        out.wasted = v;
      } else if (key == "read_lines") {
        out.read_lines = static_cast<std::uint32_t>(v);
      } else if (key == "write_lines") {
        out.write_lines = static_cast<std::uint32_t>(v);
      } else if (key == "read_subs") {
        out.read_subs = static_cast<std::uint32_t>(v);
      } else if (key == "write_subs") {
        out.write_subs = static_cast<std::uint32_t>(v);
      } else if (key == "live_tx") {
        out.live_tx = static_cast<std::uint32_t>(v);
      } else if (key == "commits") {
        out.commits = v;
      } else if (key == "aborts") {
        out.aborts = v;
      } else if (key == "bus_wait") {
        out.bus_wait = v;
      } else if (key == "victim_site") {
        out.victim_site = static_cast<std::uint32_t>(v);
        out.has_prov = true;
      } else if (key == "victim_obj") {
        out.victim_obj = v;
        out.has_prov = true;
      } else if (key == "victim_sub") {
        out.victim_sub = static_cast<std::uint32_t>(v);
        out.has_prov = true;
      } else if (key == "req_site") {
        out.req_site = static_cast<std::uint32_t>(v);
        out.has_prov = true;
      } else if (key == "req_obj") {
        out.req_obj = v;
        out.has_prov = true;
      } else if (key == "loser") {
        out.loser = static_cast<CoreId>(v);
      } else if (key == "site") {
        out.site_id = static_cast<std::uint32_t>(v);
      } else if (key == "obj_size") {
        out.site_obj_size = v;
      } else if (key == "objects") {
        out.site_objects = v;
      } else if (key == "bytes") {
        out.site_bytes = v;
      } else {
        return false;  // unknown key: not something to_jsonl wrote
      }
    }
  }
  return p.close();
}

void JsonlSink::on_event(const TraceEvent& ev) {
  buf_.clear();
  to_jsonl(ev, buf_);
  os_.write(buf_.data(), static_cast<std::streamsize>(buf_.size()));
}

void JsonlSink::finish(Cycle /*final_cycle*/) { os_.flush(); }

}  // namespace asfsim::trace
