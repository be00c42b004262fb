#include "cm/cm_config.hpp"

namespace asfsim {

const char* to_string(CmPolicyKind k) {
  switch (k) {
    case CmPolicyKind::kRequesterWins:
      return "requester-wins";
    case CmPolicyKind::kPolite:
      return "polite";
    case CmPolicyKind::kTimestamp:
      return "timestamp";
    case CmPolicyKind::kSerialize:
      return "serialize";
  }
  return "?";
}

}  // namespace asfsim
