#include "oltp/oltp_config.hpp"

#include "harness/knobs.hpp"

namespace asfsim {

const char* to_string(OltpMix m) {
  switch (m) {
    case OltpMix::kCustom: return "custom";
    case OltpMix::kA: return "a";
    case OltpMix::kB: return "b";
    case OltpMix::kC: return "c";
    case OltpMix::kD: return "d";
    case OltpMix::kE: return "e";
    case OltpMix::kF: return "f";
  }
  return "?";
}

OltpConfig OltpConfig::resolved() const {
  OltpConfig c = *this;
  switch (mix) {
    case OltpMix::kCustom:
      break;
    case OltpMix::kA:  // 50r / 50u
      c.read_ratio = 0.5, c.rmw_ratio = 0.0, c.scan_ratio = 0.0;
      break;
    case OltpMix::kB:  // 95r / 5u
      c.read_ratio = 0.95, c.rmw_ratio = 0.0, c.scan_ratio = 0.0;
      break;
    case OltpMix::kC:  // read only
      c.read_ratio = 1.0, c.rmw_ratio = 0.0, c.scan_ratio = 0.0;
      break;
    case OltpMix::kD:  // 95r / 5 insert -> update (fixed-size table)
      c.read_ratio = 0.95, c.rmw_ratio = 0.0, c.scan_ratio = 0.0;
      break;
    case OltpMix::kE:  // 95 scan / 5 insert -> update
      c.read_ratio = 0.0, c.rmw_ratio = 0.0, c.scan_ratio = 0.95;
      break;
    case OltpMix::kF:  // 50r / 50rmw
      c.read_ratio = 0.5, c.rmw_ratio = 0.5, c.scan_ratio = 0.0;
      break;
  }
  return c;
}

std::string OltpConfig::validate() const {
  if (std::string err = knobs::check(knobs::Owner::kOltp, this); !err.empty()) {
    return err;
  }
  // Cross-field checks.
  if (read_ratio + rmw_ratio + scan_ratio > 1.0 + 1e-9) {
    return "read/rmw/scan ratios must sum to <= 1";
  }
  if (scan_len > records) return "scan_len must be in [1, records]";
  if (hot_window > records) return "hot_window must be in [0, records]";
  return {};
}

}  // namespace asfsim
