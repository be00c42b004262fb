// asfsim_lint model-consistency pass: a cross-translation-unit check that
// keeps the simulator's serialized model in sync with its declared model.
// (Config fields need no such check: every one has a row in the knob table,
// harness/knobs.hpp, which the jobspec hash is generated from, and a
// static_assert there counts each config struct's fields.)
//
//   stats-blob-completeness   every Stats data member (stats/counters.hpp)
//                             must appear in BOTH serialize_stats and
//                             deserialize_stats (stats/serialize.cpp), or
//                             the stats blob round-trip silently drops it.
//
// Role files are recognized by path suffix and grouped by the path prefix
// before the suffix, so fixture copies under tests/lint_fixtures/model/...
// check against each other rather than against src/. Groups missing a role
// file are skipped silently (single-file invocations must not misfire).
#pragma once

#include <vector>

#include "rules.hpp"

namespace asfsim_lint {

/// Run the model-consistency rule over the whole scan set. Diagnostics are
/// anchored at the missing field's declaration, so suppressions sit on the
/// field itself.
std::vector<Diagnostic> check_model(const std::vector<ParsedFile>& files);

}  // namespace asfsim_lint
