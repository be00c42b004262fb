// The knob table: every leaf field of ExperimentConfig, written once.
//
// kKnobs has one row per leaf field of ExperimentConfig and the structs it
// nests, flat and in JobSpec::canonical order (the canonical text
// interleaves the structs). A row holds the field's owner and accessor, its
// jobspec key or why it is not hashed, its optional flag with help, and its
// single-field range. The encoding follows the field type: integers and
// enums as %llu, doubles as %a, bools as 0/1, a cache level as one line.
// The table drives JobSpec::canonical, the flags and --help of every tool,
// and the single-field checks of SimConfig/OltpConfig::validate(). Every
// field is hashed by construction: knobs.cpp static_asserts, per struct,
// that its field count equals its rows.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "harness/experiment.hpp"
#include "mem/addr.hpp"
#include "sim/aggregate.hpp"

namespace asfsim::knobs {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// The structs whose fields are rows. A cache level (l1/l2/l3) is one kSim
/// row; its own fields are the kCacheLevel rows of kCacheLevelKnobs.
enum class Owner : std::uint8_t {
  kExperiment,
  kSim,
  kCacheLevel,
  kFault,
  kCm,
  kParams,
  kOltp,
};

/// Field type; enums are stored as one byte.
enum class Type : std::uint8_t { kU32, kU64, kF64, kBool, kEnum, kCacheLevel };

/// The per-row part of a knob, written with designated initializers.
struct Spec {
  const char* key = nullptr;       // jobspec key; default: the member name
  const char* unhashed = nullptr;  // why the field is not hashed (no key)
  const char* flag = nullptr;      // command-line flag, if any
  const char* help = nullptr;
  double lo = 0;  // single-field range [lo, hi]
  double hi = kInf;
  std::uint32_t multiple_of = 0;  // 0 = any
  bool pow2 = false;
};

struct Knob : Spec {
  Owner owner;
  Type type;
  void* (*at)(void* owner_object);  // the field inside its owner
  const char* name;                 // member name
  const char* (*enum_name)(unsigned value);  // kEnum: "?" past the end
  bool (*enum_parse)(std::string_view text, unsigned& value);
};

// Enum names: the inverse of to_string, plus the aliases "baseline",
// "waronly", "requester-loses", and "" for kNone / kCustom.
bool parse_name(std::string_view s, DetectorKind& out);
bool parse_name(std::string_view s, ProtocolMutation& out);
bool parse_name(std::string_view s, OltpMix& out);
bool parse_name(std::string_view s, CmPolicyKind& out);

template <class S>
constexpr Owner owner_of() {
  if constexpr (std::is_same_v<S, ExperimentConfig>) return Owner::kExperiment;
  if constexpr (std::is_same_v<S, SimConfig>) return Owner::kSim;
  if constexpr (std::is_same_v<S, CacheLevelConfig>) return Owner::kCacheLevel;
  if constexpr (std::is_same_v<S, FaultConfig>) return Owner::kFault;
  if constexpr (std::is_same_v<S, CmConfig>) return Owner::kCm;
  if constexpr (std::is_same_v<S, WorkloadParams>) return Owner::kParams;
  if constexpr (std::is_same_v<S, OltpConfig>) return Owner::kOltp;
}

template <class S, auto M>
constexpr Knob knob(const char* name, Spec spec) {
  using T = std::remove_cvref_t<decltype(std::declval<S&>().*M)>;
  Knob k{spec, owner_of<S>(), Type::kCacheLevel,
         [](void* o) -> void* { return &(static_cast<S*>(o)->*M); }, name,
         nullptr, nullptr};
  if (k.key == nullptr && k.unhashed == nullptr) k.key = name;
  if constexpr (std::is_same_v<T, std::uint32_t>) {
    k.type = Type::kU32;
  } else if constexpr (std::is_same_v<T, std::uint64_t>) {
    k.type = Type::kU64;
  } else if constexpr (std::is_same_v<T, double>) {
    k.type = Type::kF64;
  } else if constexpr (std::is_same_v<T, bool>) {
    k.type = Type::kBool;
  } else if constexpr (std::is_enum_v<T>) {
    static_assert(sizeof(T) == 1, "enum knobs are stored as one byte");
    k.type = Type::kEnum;
    k.enum_name = [](unsigned v) { return to_string(static_cast<T>(v)); };
    k.enum_parse = [](std::string_view s, unsigned& v) {
      T e{};
      if (!parse_name(s, e)) return false;
      v = static_cast<unsigned>(e);
      return true;
    };
  } else {
    static_assert(std::is_same_v<T, CacheLevelConfig>,
                  "knob fields are u32, u64, double, bool, one-byte enums "
                  "or cache levels");
  }
  return k;
}

// The row of S::f with its Spec.
#define ASFSIM_K(S, f, ...) knob<S, &S::f>(#f, Spec{__VA_ARGS__})

/// Every row, in JobSpec::canonical order.
inline constexpr Knob kKnobs[] = {
    ASFSIM_K(ExperimentConfig, detector, .help = "conflict detector"),
    ASFSIM_K(ExperimentConfig, nsub,
             .help = "sub-blocks per line of the sub-block detectors",
             .lo = 1, .hi = kMaxSubBlocks, .pow2 = true),
    ASFSIM_K(ExperimentConfig, timeseries),
    ASFSIM_K(ExperimentConfig, max_cycles),
    ASFSIM_K(WorkloadParams, threads, .flag = "--threads",
             .help = "guest threads, one simulated core each", .lo = 1,
             .hi = 1024),
    ASFSIM_K(WorkloadParams, seed, .flag = "--seed",
             .help = "deterministic seed"),
    ASFSIM_K(WorkloadParams, scale, .flag = "--scale",
             .help = "input-size multiplier"),
    ASFSIM_K(SimConfig, ncores, .lo = 1, .hi = 1024),
    ASFSIM_K(SimConfig, l1),
    ASFSIM_K(SimConfig, l2),
    ASFSIM_K(SimConfig, l3),
    ASFSIM_K(SimConfig, mem_latency),
    ASFSIM_K(SimConfig, cache2cache_latency),
    ASFSIM_K(SimConfig, upgrade_latency),
    ASFSIM_K(SimConfig, bus_occupancy),
    ASFSIM_K(SimConfig, probe_delay),
    ASFSIM_K(SimConfig, commit_latency),
    ASFSIM_K(SimConfig, abort_latency),
    ASFSIM_K(SimConfig, backoff_base, .lo = 1),
    ASFSIM_K(SimConfig, backoff_cap_shift),
    ASFSIM_K(SimConfig, enable_ats, .help = "adaptive transaction scheduling"),
    ASFSIM_K(SimConfig, ats_alpha),
    ASFSIM_K(SimConfig, ats_threshold),
    ASFSIM_K(SimConfig, max_tx_retries),
    ASFSIM_K(SimConfig, max_capacity_aborts),
    ASFSIM_K(SimConfig, watchdog_cycles, .flag = "--watchdog",
             .help = "abort after n cycles without a commit, 0 = off"),
    ASFSIM_K(FaultConfig, spurious_abort_rate, .key = "fault_spurious",
             .flag = "--fault-spurious",
             .help = "spurious aborts per tx access", .hi = 1),
    ASFSIM_K(FaultConfig, commit_abort_rate, .key = "fault_commit",
             .flag = "--fault-commit", .help = "injected aborts per commit",
             .hi = 1),
    ASFSIM_K(FaultConfig, evict_rate, .key = "fault_evict",
             .flag = "--fault-evict", .help = "forced evictions per tx access",
             .hi = 1),
    ASFSIM_K(FaultConfig, probe_jitter, .key = "fault_probe_jitter",
             .flag = "--fault-probe-jitter",
             .help = "max extra cycles per probe"),
    ASFSIM_K(FaultConfig, sched_jitter, .key = "fault_sched_jitter",
             .flag = "--fault-sched-jitter",
             .help = "max extra cycles per resume"),
    ASFSIM_K(FaultConfig, mutation, .flag = "--mutate",
             .help = "break one sub-block protocol rule"),
    ASFSIM_K(OltpConfig, records, .key = "oltp_records",
             .flag = "--oltp-records", .help = "oltp: table size in records",
             .lo = 2, .hi = 1 << 20),
    ASFSIM_K(OltpConfig, payload_bytes, .key = "oltp_payload_bytes",
             .flag = "--oltp-payload", .help = "oltp: payload bytes per record",
             .lo = 8, .hi = 512, .multiple_of = 8),
    ASFSIM_K(OltpConfig, tx_len, .key = "oltp_tx_len", .flag = "--oltp-tx-len",
             .help = "oltp: operations per transaction", .lo = 1, .hi = 64),
    ASFSIM_K(OltpConfig, tx_per_thread, .key = "oltp_tx_per_thread",
             .flag = "--oltp-tx",
             .help = "oltp: transactions per thread, times --scale", .lo = 1),
    ASFSIM_K(OltpConfig, theta, .key = "oltp_theta", .flag = "--oltp-theta",
             .help = "oltp: zipf skew, 0 = uniform", .hi = 4),
    ASFSIM_K(OltpConfig, read_ratio, .key = "oltp_read_ratio",
             .flag = "--oltp-read-ratio", .help = "oltp: share of reads",
             .hi = 1),
    ASFSIM_K(OltpConfig, rmw_ratio, .key = "oltp_rmw_ratio",
             .flag = "--oltp-rmw-ratio",
             .help = "oltp: share of read-modify-writes", .hi = 1),
    ASFSIM_K(OltpConfig, scan_ratio, .key = "oltp_scan_ratio",
             .flag = "--oltp-scan-ratio",
             .help = "oltp: share of scans; the rest are updates", .hi = 1),
    ASFSIM_K(OltpConfig, scan_len, .key = "oltp_scan_len",
             .flag = "--oltp-scan-len", .help = "oltp: records per scan",
             .lo = 1),
    ASFSIM_K(OltpConfig, mix, .key = "oltp_mix", .flag = "--oltp-mix",
             .help = "oltp: YCSB preset, overrides the ratios"),
    ASFSIM_K(OltpConfig, hot_window, .key = "oltp_hot_window",
             .flag = "--oltp-hot-window",
             .help = "oltp: YCSB-D sliding hot window, 0 = whole table"),
    ASFSIM_K(SimConfig, provenance, .flag = "--prov",
             .help = "attribute conflicts to allocation sites"),
    ASFSIM_K(CmConfig, policy, .key = "cm_policy", .flag = "--cm-policy",
             .help = "conflict-resolution policy"),
    ASFSIM_K(CmConfig, max_retries, .key = "cm_max_retries",
             .flag = "--cm-max-retries",
             .help = "serialize policy: aborts before the fallback lock"),
    ASFSIM_K(CmConfig, karma, .key = "cm_karma", .flag = "--cm-karma",
             .help = "timestamp policy: credit per abort"),
    ASFSIM_K(CmConfig, stats, .key = "cm_stats", .flag = "--cm-stats",
             .help = "per-core starvation/fairness accounting"),
    ASFSIM_K(SimConfig, seed,
             .unhashed = "run_experiment overrides it with params.seed"),
    ASFSIM_K(ExperimentConfig, wall_limit_s,
             .unhashed = "a host wall-clock budget never changes a result",
             .flag = "--job-timeout",
             .help = "per-job wall-clock limit in seconds, 0 = off"),
};

/// The fields of a cache level; a level is hashed as one line.
inline constexpr Knob kCacheLevelKnobs[] = {
    ASFSIM_K(CacheLevelConfig, size_bytes, .lo = 1),
    ASFSIM_K(CacheLevelConfig, line_bytes, .lo = 1, .pow2 = true),
    ASFSIM_K(CacheLevelConfig, ways, .lo = 1),
    ASFSIM_K(CacheLevelConfig, latency),
};

#undef ASFSIM_K

/// Struct members whose own fields are rows: (parent, child).
inline constexpr std::pair<Owner, Owner> kNested[] = {
    {Owner::kExperiment, Owner::kSim}, {Owner::kExperiment, Owner::kParams},
    {Owner::kSim, Owner::kFault},      {Owner::kSim, Owner::kCm},
    {Owner::kParams, Owner::kOltp},
};

/// Fields of the struct `o` that the tables account for.
constexpr std::size_t fields_with_rows(Owner o) {
  std::size_t n = 0;
  for (const Knob& k : kKnobs) n += k.owner == o;
  for (const Knob& k : kCacheLevelKnobs) n += k.owner == o;
  for (const auto& nested : kNested) n += nested.first == o;
  return n;
}

/// Compiles only when S (the struct `O` names) has one row per field.
template <class S, Owner O = owner_of<S>()>
constexpr bool rows_cover() {
  static_assert(aggregate_arity<S>() == fields_with_rows(O),
                "every config field needs exactly one row in the knob table "
                "(harness/knobs.hpp)");
  return true;
}

/// The field of row k inside `cfg` (not for kCacheLevel rows).
[[nodiscard]] void* field(const Knob& k, ExperimentConfig& cfg);
/// The row with this jobspec key or flag; aborts when there is none.
[[nodiscard]] const Knob& row(std::string_view key_or_flag);

/// The value of a u32/u64/bool/enum field.
[[nodiscard]] std::uint64_t integer(const Knob& k, const void* field);
/// Whether `v` passes row k's range and fits the field's type.
[[nodiscard]] bool in_range(const Knob& k, double v);
/// What a value of row k must be, e.g. "an integer in [1, 64]".
[[nodiscard]] std::string expected(const Knob& k);
/// The field's value as the command line spells it.
[[nodiscard]] std::string show(const Knob& k, const void* field);
/// Strict parse into the field: the whole token, no sign on integers, a
/// value that fits the field and passes the range. False on a bad value.
[[nodiscard]] bool parse(const Knob& k, void* field, std::string_view text);
/// The same integer parser for a tool's own flags: a value in [lo, hi].
[[nodiscard]] bool parse_integer(std::string_view text, std::uint64_t lo,
                                 std::uint64_t hi, std::uint64_t& out);
/// Empty when every row owned by `o` passes its range, reading the fields
/// from `obj` (a struct of that owner); else "<prefix><name> must be ...".
[[nodiscard]] std::string check(Owner o, const void* obj,
                                const std::string& prefix = "");

}  // namespace asfsim::knobs
