#include "trace/perfetto_sink.hpp"

#include <ostream>

#include "trace/json_writer.hpp"

namespace asfsim::trace {

namespace {

/// The fields of a complete-event span on a core track after its name, up
/// to the open args object; the caller writes the args and closes both.
void span_fields(JsonWriter& w, std::string_view cname, const TraceEvent& ev) {
  w.str("ph", "X")
      .u64("pid", 0)
      .u64("tid", ev.core)
      .u64("ts", ev.span_begin)
      .u64("dur", ev.cycle - ev.span_begin)
      .str("cname", cname)
      .key("args")
      .open();
}

/// The fields of a thread-scoped instant on `ev.core`'s track after its
/// name, up to the open args object; the caller writes the args and closes
/// both.
void instant_fields(JsonWriter& w, const TraceEvent& ev) {
  w.str("ph", "i")
      .str("s", "t")
      .u64("pid", 0)
      .u64("tid", ev.core)
      .u64("ts", ev.cycle)
      .key("args")
      .open();
}

}  // namespace

PerfettoSink::PerfettoSink(std::ostream& os) : os_(os) {
  rec_ = "{\"traceEvents\":[\n";
  record()
      .open()
      .str("name", "process_name")
      .str("ph", "M")
      .u64("pid", 0)
      .key("args")
      .open()
      .str("name", "asfsim")
      .close()
      .close();
  write_out();
}

JsonWriter PerfettoSink::record() {
  if (!first_) rec_ += ",\n";
  first_ = false;
  return JsonWriter(rec_);
}

void PerfettoSink::write_out() {
  os_.write(rec_.data(), static_cast<std::streamsize>(rec_.size()));
  rec_.clear();
}

void PerfettoSink::ensure_core_track(CoreId core) {
  if (core >= core_seen_.size()) core_seen_.resize(core + 1, false);
  if (core_seen_[core]) return;
  core_seen_[core] = true;
  record()
      .open()
      .str("name", "thread_name")
      .str("ph", "M")
      .u64("pid", 0)
      .u64("tid", core)
      .key("args")
      .open()
      .str("name", "core ", core)
      .close()
      .close();
  record()
      .open()
      .str("name", "thread_sort_index")
      .str("ph", "M")
      .u64("pid", 0)
      .u64("tid", core)
      .key("args")
      .open()
      .u64("sort_index", core)
      .close()
      .close();
}

void PerfettoSink::counter(std::string_view name, Cycle ts,
                           std::uint64_t value) {
  record()
      .open()
      .str("name", name)
      .str("ph", "C")
      .u64("pid", 0)
      .u64("ts", ts)
      .key("args")
      .open()
      .u64("value", value)
      .close()
      .close();
}

void PerfettoSink::on_event(const TraceEvent& ev) {
  switch (ev.kind) {
    case TraceEventKind::kBegin:
      // Attempt starts are implied by the commit/abort spans; nothing to
      // draw (live_tx counts them).
      return;
    case TraceEventKind::kCommit: {
      ensure_core_track(ev.core);
      JsonWriter w = record();
      w.open().str("name", "tx");
      span_fields(w, "good", ev);
      w.u64("retries", ev.retries).u64("wasted", ev.wasted);
      footprint_fields(w, ev);
      w.close().close();
      break;
    }
    case TraceEventKind::kAbort: {
      ensure_core_track(ev.core);
      JsonWriter w = record();
      w.open().str("name", "abort (", to_string(ev.cause), ")");
      span_fields(w, "terrible", ev);
      w.str("cause", to_string(ev.cause)).u64("wasted", ev.wasted);
      footprint_fields(w, ev);
      w.close().close();
      break;
    }
    case TraceEventKind::kConflict:
    case TraceEventKind::kAvoided: {
      ensure_core_track(ev.core);
      JsonWriter w = record();
      w.open();
      if (ev.kind == TraceEventKind::kAvoided) {
        w.str("name", "avoided");
      } else {
        w.str("name", "conflict ", to_string(ev.type),
              ev.is_false ? " FALSE" : " true");
      }
      instant_fields(w, ev);
      w.u64("victim", ev.core)
          .u64("requester", ev.other)
          .hex("line", ev.line)
          .hex("probe_mask", ev.probe_mask)
          .hex("victim_mask", ev.victim_mask);
      prov_fields(w, ev);
      w.close().close();
      break;
    }
    case TraceEventKind::kFallback: {
      ensure_core_track(ev.core);
      JsonWriter w = record();
      w.open().str("name", "fallback");
      span_fields(w, "yellow", ev);
      w.u64("retries", ev.retries).u64("wasted", ev.wasted).close().close();
      break;
    }
    case TraceEventKind::kBackoff: {
      ensure_core_track(ev.core);
      JsonWriter w = record();
      w.open().str("name", "backoff");
      span_fields(w, "grey", ev);
      w.close().close();
      break;
    }
    case TraceEventKind::kCounter:
      counter("live_tx", ev.cycle, ev.live_tx);
      counter("tx_commits", ev.cycle, ev.commits);
      counter("tx_aborts", ev.cycle, ev.aborts);
      counter("abort_rate", ev.cycle, ev.aborts - prev_aborts_);
      counter("bus_wait_cycles", ev.cycle, ev.bus_wait);
      prev_aborts_ = ev.aborts;
      break;
    case TraceEventKind::kPolicy: {
      // Policy decisions are thread-scoped instants on the victim's track;
      // the loser arg tells which side of the conflict was ruled against.
      ensure_core_track(ev.core);
      JsonWriter w = record();
      w.open().str("name", "policy: ", ev.loser == ev.other
                                           ? "requester loses"
                                           : "victim loses");
      instant_fields(w, ev);
      w.u64("victim", ev.core)
          .u64("requester", ev.other)
          .u64("loser", ev.loser)
          .hex("line", ev.line)
          .close()
          .close();
      break;
    }
    case TraceEventKind::kFallbackAcquired: {
      ensure_core_track(ev.core);
      JsonWriter w = record();
      w.open().str("name", "fallback lock acquired");
      instant_fields(w, ev);
      w.u64("spin_start", ev.span_begin)
          .u64("retries", ev.retries)
          .close()
          .close();
      break;
    }
    case TraceEventKind::kSite: {
      // Site declarations become metadata-style instants on the process
      // track so the conflict args' site ids stay decodable in the UI.
      JsonWriter w = record();
      w.open()
          .str("name", "site ", ev.site_id, ": ", ev.site_name)
          .str("ph", "i")
          .str("s", "g")
          .u64("pid", 0)
          .u64("ts", ev.cycle)
          .key("args")
          .open()
          .u64("site", ev.site_id)
          .str("name", ev.site_name)
          .u64("obj_size", ev.site_obj_size)
          .u64("objects", ev.site_objects)
          .u64("bytes", ev.site_bytes)
          .close()
          .close();
      break;
    }
  }
  write_out();
}

void PerfettoSink::finish(Cycle /*final_cycle*/) {
  if (finished_) return;
  finished_ = true;
  os_ << "\n]}\n";
  os_.flush();
}

}  // namespace asfsim::trace
