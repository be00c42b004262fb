// Compile-only probe for the knob table's completeness check. It mirrors
// CmConfig field for field and runs the same static_assert knobs.cpp runs
// for the real structs. With ASFSIM_EXTRA_FIELD defined the mirror has one
// field more than CmConfig has rows, so the TU must fail to build.
#include "harness/knobs.hpp"

namespace {

struct CmConfigMirror {
  asfsim::CmPolicyKind policy;
  std::uint32_t max_retries;
  std::uint32_t karma;
  bool stats;
#ifdef ASFSIM_EXTRA_FIELD
  bool unlisted;
#endif
};

static_assert(
    asfsim::knobs::rows_cover<CmConfigMirror, asfsim::knobs::Owner::kCm>());

}  // namespace
