#include "runner/job_spec.hpp"

#include <cstdio>

#include "harness/knobs.hpp"

namespace asfsim::runner {

std::uint64_t fnv1a64(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

JobSpec make_job_spec(const std::string& workload,
                      const ExperimentConfig& cfg) {
  JobSpec spec;
  spec.workload = workload;
  spec.config = cfg;
  // Mirror run_experiment: the effective sim seed is the params seed.
  spec.config.sim.seed = cfg.params.seed;

  std::string& s = spec.canonical;
  s.reserve(768);
  s += "asfsim-jobspec v5\n";
  s += "workload " + workload + "\n";
  char buf[96];
  for (const knobs::Knob& k : knobs::kKnobs) {
    if (k.key == nullptr) continue;
    const void* f = knobs::field(k, spec.config);
    int n = 0;
    if (k.type == knobs::Type::kF64) {
      // %a is exact (no rounding on round trip) and independent of print
      // precision, so double-valued knobs cannot alias across specs.
      n = std::snprintf(buf, sizeof(buf), "%s %a\n", k.key,
                        *static_cast<const double*>(f));
    } else if (k.type == knobs::Type::kCacheLevel) {
      const auto& c = *static_cast<const CacheLevelConfig*>(f);
      n = std::snprintf(buf, sizeof(buf), "%s %u %u %u %llu\n", k.key,
                        c.size_bytes, c.line_bytes, c.ways,
                        static_cast<unsigned long long>(c.latency));
    } else {
      n = std::snprintf(buf, sizeof(buf), "%s %llu\n", k.key,
                        static_cast<unsigned long long>(knobs::integer(k, f)));
    }
    s.append(buf, static_cast<std::size_t>(n));
  }

  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(fnv1a64(spec.canonical)));
  spec.hash_hex = buf;
  return spec;
}

}  // namespace asfsim::runner
