#pragma once

#include <string>
#include <vector>

#include "logic/bit_stream.h"
#include "props/property.h"

namespace glva::props {

/// Named packed planes — the monitor's input. Non-owning: the streams
/// stay with the caller (check.cpp points straight at the digitized
/// ensemble planes). All planes must share one length.
struct PackedNamedPlanes {
  std::vector<std::string> names;
  std::vector<const logic::BitStream*> planes;
};

/// The production evaluator: computes the same per-sample verdict vector
/// as `evaluate_reference`, but word-parallel on the packed planes —
/// boolean combinators as word ops, G/F as carry-propagating suffix
/// scans, the bounded windows as doubling shift/OR (shift/AND) cascades
/// through the logic/word_kernels.h shift kernels, settle/noglitch from
/// run-constancy scans and a morphological opening. Bit-identical to the
/// reference by construction and pinned so by tests/test_props.cpp.
/// See docs/PROPERTIES.md for the compilation sketch and cost model.
///
/// Throws glva::InvalidArgument on an unknown atom or mismatched plane
/// lengths.
[[nodiscard]] logic::BitStream evaluate_packed(const Property& property,
                                               const PackedNamedPlanes& planes);

}  // namespace glva::props
