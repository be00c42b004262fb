// Chrome/Perfetto trace-event JSON exporter.
//
// Emits the classic trace-event format (a {"traceEvents":[...]} object)
// that both chrome://tracing and ui.perfetto.dev load directly:
//   * one named thread track per simulated core ("M" metadata records);
//   * one "X" complete-event span per transaction attempt, colored by
//     outcome (commit / abort / fallback / backoff), carrying retries,
//     footprint and wasted cycles in args;
//   * "i" instant events on the victim's track for conflicts (requester,
//     line, byte masks, WAR/RAW/WAW, false-vs-true) and avoided false
//     conflicts;
//   * "C" counter tracks sampled every K cycles: live_tx, tx_commits,
//     tx_aborts, abort_rate (aborts per interval) and bus_wait_cycles.
// Timestamps are simulated cycles written as microseconds (1 cycle = 1us
// on the viewer's axis). Output is byte-deterministic for a fixed event
// stream. See docs/observability.md.
#pragma once

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/sink.hpp"

namespace asfsim::trace {

class JsonWriter;

class PerfettoSink final : public TraceSink {
 public:
  explicit PerfettoSink(std::ostream& os);
  void on_event(const TraceEvent& ev) override;
  void finish(Cycle final_cycle) override;

 private:
  /// Start the next record in rec_ (after the ",\n" separator).
  JsonWriter record();
  /// Write rec_ (every record of one event) to the stream and clear it.
  void write_out();
  void ensure_core_track(CoreId core);
  void counter(std::string_view name, Cycle ts, std::uint64_t value);

  std::ostream& os_;
  std::string rec_;  // reused across events
  std::vector<bool> core_seen_;
  std::uint64_t prev_aborts_ = 0;  // for the per-interval abort_rate track
  bool first_ = true;
  bool finished_ = false;
};

}  // namespace asfsim::trace
