// Test helpers over the knob table: every leaf field of ExperimentConfig,
// named by its path, with a way to move it off its current value.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "harness/knobs.hpp"

namespace asfsim::knob_fields {

/// Moves a field to another value: +1, the other bool, the next enum value.
inline void bump(knobs::Type t, void* f) {
  switch (t) {
    case knobs::Type::kU32: *static_cast<std::uint32_t*>(f) += 1; break;
    case knobs::Type::kU64: *static_cast<std::uint64_t*>(f) += 1; break;
    case knobs::Type::kF64: *static_cast<double*>(f) += 1; break;
    case knobs::Type::kBool: *static_cast<bool*>(f) ^= true; break;
    case knobs::Type::kEnum: *static_cast<std::uint8_t*>(f) += 1; break;
    case knobs::Type::kCacheLevel: break;
  }
}

inline std::string owner_path(knobs::Owner o) {
  switch (o) {
    case knobs::Owner::kSim: return "sim.";
    case knobs::Owner::kFault: return "sim.fault.";
    case knobs::Owner::kCm: return "sim.cm.";
    case knobs::Owner::kParams: return "params.";
    case knobs::Owner::kOltp: return "params.oltp.";
    default: return "";
  }
}

struct LeafField {
  std::string path;        // e.g. "sim.l1.ways", "params.oltp.theta"
  const knobs::Knob* row;  // its kKnobs row (a cache level's: the level)
  std::function<void(ExperimentConfig&)> bump;
};

/// Every leaf field, in table order; a cache level contributes four.
inline std::vector<LeafField> all() {
  std::vector<LeafField> out;
  for (const knobs::Knob& k : knobs::kKnobs) {
    const std::string path = owner_path(k.owner) + k.name;
    if (k.type != knobs::Type::kCacheLevel) {
      out.push_back({path, &k, [&k](ExperimentConfig& c) {
                       bump(k.type, knobs::field(k, c));
                     }});
      continue;
    }
    for (const knobs::Knob& sub : knobs::kCacheLevelKnobs) {
      out.push_back({path + "." + sub.name, &k,
                     [&k, &sub](ExperimentConfig& c) {
                       bump(sub.type, sub.at(knobs::field(k, c)));
                     }});
    }
  }
  return out;
}

}  // namespace asfsim::knob_fields
