// Exact, deterministic (de)serialization of Stats.
//
// Every Stats field is an unsigned integer (or a container of them), so the
// round trip is lossless. The output is canonical — fields in a fixed
// order, the per-line histogram sorted by address — which makes serialized
// reports directly comparable: two runs produced identical statistics iff
// their serializations are byte-identical. The runner's result cache and the
// determinism regression tests both rely on that property.
//
// Format: an `asfsim-stats v<N>` header line, then one `key value...` line
// per row of kStatsFields, in row order. The encoding follows the field's
// type: an integer as `key v`; a bool as `key 0|1`; an array or vector as
// `key <count> v0 v1 ...`; site names as `key <count> name0 name1 ...`;
// the per-line map as `key <2*count> addr0 n0 addr1 n1 ...` sorted by
// address. The header version and the opt-in sections it gates are
// described in serialize.cpp (and docs/observability.md).
// deserialize_stats rejects anything it does not fully recognize, so a
// stale or truncated blob reads as "not a report" (the cache treats that as
// a miss) rather than as zeroed statistics.
#pragma once

#include <string>
#include <string_view>
#include <tuple>

#include "stats/counters.hpp"

namespace asfsim {

/// One row of the stats blob: a Stats field and the key it is written as.
template <class T>
struct StatsField {
  std::string_view key;
  T Stats::*member;
};

#define ASFSIM_S(name) StatsField{#name, &Stats::name}

/// Every Stats field, in declaration order, which is also the blob's line
/// order. serialize.cpp static_asserts that no field lacks a row.
inline constexpr std::tuple kStatsFields{
    ASFSIM_S(tx_attempts),
    ASFSIM_S(tx_commits),
    ASFSIM_S(tx_aborts),
    ASFSIM_S(fallback_runs),
    ASFSIM_S(ats_serialized),
    ASFSIM_S(aborts_by_cause),
    ASFSIM_S(conflicts_total),
    ASFSIM_S(conflicts_false),
    ASFSIM_S(false_by_type),
    ASFSIM_S(true_by_type),
    ASFSIM_S(false_conflicts_avoided),
    ASFSIM_S(accesses),
    ASFSIM_S(tx_accesses),
    ASFSIM_S(l1_hits),
    ASFSIM_S(l2_hits),
    ASFSIM_S(l3_hits),
    ASFSIM_S(mem_fetches),
    ASFSIM_S(c2c_transfers),
    ASFSIM_S(probes_sent),
    ASFSIM_S(piggyback_messages),
    ASFSIM_S(dirty_refetches),
    ASFSIM_S(upgrades),
    ASFSIM_S(bus_wait_cycles),
    ASFSIM_S(false_surviving_at),
    ASFSIM_S(false_by_line),
    ASFSIM_S(tx_access_by_offset),
    ASFSIM_S(record_timeseries),
    ASFSIM_S(tx_start_cycles),
    ASFSIM_S(false_conflict_cycles),
    ASFSIM_S(total_cycles),
    ASFSIM_S(tx_busy_cycles),
    ASFSIM_S(tx_duration_hist),
    ASFSIM_S(tx_read_lines_hist),
    ASFSIM_S(tx_write_lines_hist),
    ASFSIM_S(wasted_cycles),
    ASFSIM_S(backoff_cycles),
    ASFSIM_S(tx_latency_hist),
    ASFSIM_S(prov_enabled),  // gates the provenance section
    ASFSIM_S(prov_site_names),
    ASFSIM_S(prov_site_table),
    ASFSIM_S(prov_hot_lines),
    ASFSIM_S(prov_pairs),
    ASFSIM_S(cm_enabled),  // gates the contention-management section
    ASFSIM_S(cm_max_consec_aborts),
    ASFSIM_S(cm_wasted_by_core),
    ASFSIM_S(cm_first_commit_cycle),
    ASFSIM_S(cm_policy_decisions),
    ASFSIM_S(cm_requester_losses),
    ASFSIM_S(cm_fallback_acquisitions),
};

#undef ASFSIM_S

[[nodiscard]] std::string serialize_stats(const Stats& s);

/// Parse a blob produced by serialize_stats into `out` (fully overwritten
/// on success). Returns false — leaving `out` unspecified — on any
/// mismatch: unknown/missing keys, bad counts, trailing garbage.
[[nodiscard]] bool deserialize_stats(std::string_view blob, Stats& out);

}  // namespace asfsim
