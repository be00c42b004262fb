// Field count of an aggregate, for "one row per field" static_asserts: the
// knob table (harness/knobs.hpp) and the stats blob rows
// (stats/serialize.hpp) each assert that their row count equals the field
// count of the struct they cover, so adding a field without a row fails to
// build.
#pragma once

#include <cstddef>

namespace asfsim {

/// Converts to any field type; only ever probed, never called.
struct AnyField {
  template <class T>
  operator T() const;
};

/// Number of fields of the aggregate S: the longest S{AnyField...} that
/// compiles.
template <class S, class... Fields>
constexpr std::size_t aggregate_arity() {
  if constexpr (requires { S{Fields{}..., AnyField{}}; }) {
    return aggregate_arity<S, Fields..., AnyField>();
  } else {
    return sizeof...(Fields);
  }
}

}  // namespace asfsim
