#include "harness/knobs.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <span>

namespace asfsim::knobs {

static_assert(rows_cover<ExperimentConfig>() && rows_cover<SimConfig>() &&
              rows_cover<CacheLevelConfig>() && rows_cover<FaultConfig>() &&
              rows_cover<CmConfig>() && rows_cover<WorkloadParams>() &&
              rows_cover<OltpConfig>());

namespace {

/// Inverts to_string over E's values 0, 1, ... (to_string returns "?" past
/// the last), after trying `aliases`.
template <class E>
bool parse_enum(std::string_view name, E& out,
                std::initializer_list<std::pair<std::string_view, E>> aliases) {
  for (const auto& [alias, value] : aliases) {
    if (name == alias) {
      out = value;
      return true;
    }
  }
  for (unsigned v = 0; std::string_view(to_string(E(v))) != "?"; ++v) {
    if (name == to_string(E(v))) {
      out = E(v);
      return true;
    }
  }
  return false;
}

constexpr double kU32Max = std::numeric_limits<std::uint32_t>::max();

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  return buf;
}

/// The whole token as T; a double must also be finite.
template <class T>
bool from_chars_whole(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && p == end && std::isfinite(double(out));
}

}  // namespace

bool parse_name(std::string_view s, DetectorKind& out) {
  return parse_enum(s, out, {{"baseline", DetectorKind::kBaseline},
                             {"waronly", DetectorKind::kWarOnly}});
}
bool parse_name(std::string_view s, ProtocolMutation& out) {
  return parse_enum(s, out, {{"", ProtocolMutation::kNone}});
}
bool parse_name(std::string_view s, OltpMix& out) {
  return parse_enum(s, out, {{"", OltpMix::kCustom}});
}
bool parse_name(std::string_view s, CmPolicyKind& out) {
  return parse_enum(s, out, {{"requester-loses", CmPolicyKind::kPolite}});
}

void* field(const Knob& k, ExperimentConfig& cfg) {
  switch (k.owner) {
    case Owner::kExperiment: return k.at(&cfg);
    case Owner::kSim: return k.at(&cfg.sim);
    case Owner::kFault: return k.at(&cfg.sim.fault);
    case Owner::kCm: return k.at(&cfg.sim.cm);
    case Owner::kParams: return k.at(&cfg.params);
    case Owner::kOltp: return k.at(&cfg.params.oltp);
    case Owner::kCacheLevel: break;
  }
  std::abort();
}

const Knob& row(std::string_view key_or_flag) {
  for (const Knob& k : kKnobs) {
    if ((k.key != nullptr && key_or_flag == k.key) ||
        (k.flag != nullptr && key_or_flag == k.flag)) {
      return k;
    }
  }
  std::abort();  // a tool asked for a row that does not exist
}

std::uint64_t integer(const Knob& k, const void* f) {
  switch (k.type) {
    case Type::kU32: return *static_cast<const std::uint32_t*>(f);
    case Type::kU64: return *static_cast<const std::uint64_t*>(f);
    case Type::kBool: return *static_cast<const bool*>(f) ? 1 : 0;
    case Type::kEnum: return *static_cast<const std::uint8_t*>(f);
    default: return 0;
  }
}

bool in_range(const Knob& k, double v) {
  if (!(v >= k.lo && v <= k.hi)) return false;  // also rejects NaN
  if (k.type == Type::kU32 && v > kU32Max) return false;
  if (k.multiple_of != 0 && std::fmod(v, k.multiple_of) != 0) return false;
  const auto u = static_cast<std::uint64_t>(v);
  return !k.pow2 || (u & (u - 1)) == 0;
}

std::string expected(const Knob& k) {
  if (k.type == Type::kEnum) {
    std::string s = "one of: ";
    for (unsigned v = 0; std::string_view(k.enum_name(v)) != "?"; ++v) {
      s += std::string(v == 0 ? "" : ", ") + k.enum_name(v);
    }
    return s;
  }
  const std::string what = k.pow2 ? "a power of two"
                           : k.multiple_of != 0
                               ? "a multiple of " + num(k.multiple_of)
                           : k.type == Type::kF64 ? "a number"
                                                  : "an integer";
  const double hi = k.type == Type::kU32 ? std::min(k.hi, kU32Max) : k.hi;
  if (hi == kInf) return what + " >= " + num(k.lo);
  return what + " in [" + num(k.lo) + ", " + num(hi) + "]";
}

std::string show(const Knob& k, const void* f) {
  switch (k.type) {
    case Type::kF64: return num(*static_cast<const double*>(f));
    case Type::kEnum: return k.enum_name(integer(k, f));
    default: return std::to_string(integer(k, f));
  }
}

bool parse(const Knob& k, void* f, std::string_view text) {
  if (k.type == Type::kEnum) {
    unsigned v = 0;
    if (!k.enum_parse(text, v)) return false;
    *static_cast<std::uint8_t*>(f) = static_cast<std::uint8_t>(v);
  } else if (k.type == Type::kF64) {
    double v = 0;
    if (!from_chars_whole(text, v) || !in_range(k, v)) return false;
    *static_cast<double*>(f) = v;
  } else {
    std::uint64_t v = 0;
    if (!from_chars_whole(text, v) || !in_range(k, double(v))) return false;
    if (k.type == Type::kU32) *static_cast<std::uint32_t*>(f) = v;
    if (k.type == Type::kU64) *static_cast<std::uint64_t*>(f) = v;
  }
  return true;
}

bool parse_integer(std::string_view text, std::uint64_t lo, std::uint64_t hi,
                   std::uint64_t& out) {
  std::uint64_t v = 0;
  if (!from_chars_whole(text, v) || v < lo || v > hi) return false;
  out = v;
  return true;
}

std::string check(Owner o, const void* obj, const std::string& prefix) {
  const std::span<const Knob> tables[] = {kKnobs, kCacheLevelKnobs};
  for (const auto& rows : tables) {
    for (const Knob& k : rows) {
      if (k.owner != o || k.type == Type::kEnum || k.type == Type::kBool ||
          k.type == Type::kCacheLevel) {
        continue;
      }
      const void* f = k.at(const_cast<void*>(obj));
      const double v = k.type == Type::kF64 ? *static_cast<const double*>(f)
                                            : double(integer(k, f));
      if (!in_range(k, v)) return prefix + k.name + " must be " + expected(k);
    }
  }
  return {};
}

}  // namespace asfsim::knobs
