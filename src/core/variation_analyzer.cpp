#include "core/variation_analyzer.h"

#include "logic/combination_segments.h"
#include "util/errors.h"

namespace glva::core {

namespace {

void set_fov(VariationRecord& record) {
  record.fov_est = record.case_count > 0
                       ? static_cast<double>(record.variation_count) /
                             static_cast<double>(record.case_count)
                       : 0.0;
}

}  // namespace

VariationAnalysis analyze_variation(const CaseAnalysis& cases) {
  VariationAnalysis analysis;
  analysis.input_count = cases.input_count;
  analysis.records.resize(cases.cases.size());

  for (std::size_t c = 0; c < cases.cases.size(); ++c) {
    const CaseRecord& record = cases.cases[c];
    VariationRecord& out = analysis.records[c];
    out.combination = record.combination;
    out.case_count = record.case_count;

    bool previous = false;
    bool first = true;
    for (const bool bit : record.output_stream) {
      if (bit) ++out.high_count;
      if (!first && bit != previous) ++out.variation_count;
      previous = bit;
      first = false;
    }
    set_fov(out);
  }
  return analysis;
}

VariationAnalysis analyze_segments(const PackedDigitalData& data) {
  for (const logic::BitStream& input : data.inputs) {
    if (input.size() != data.sample_count()) {
      throw InvalidArgument(
          "analyze_segments: input/output stream lengths differ");
    }
  }
  // Validates the input count before 2^N records are sized.
  const std::vector<logic::CombinationSegment> segments =
      logic::combination_segments(data.inputs);

  const std::size_t n = data.input_count();
  const std::size_t combinations = std::size_t{1} << n;
  VariationAnalysis analysis;
  analysis.input_count = n;
  analysis.records.resize(combinations);
  // Each combination's last logged output bit (-1 before its first
  // segment): a combination resumed after a gap continues its logged
  // stream, so the first sample of the new segment compares against it.
  std::vector<signed char> last(combinations, -1);
  const logic::BitStream& output = data.output;
  for (const logic::CombinationSegment& segment : segments) {
    VariationRecord& record = analysis.records[segment.combination];
    record.case_count += segment.end - segment.begin;
    record.high_count += output.popcount(segment.begin, segment.end);
    record.variation_count +=
        output.transition_count(segment.begin, segment.end);
    signed char& previous = last[segment.combination];
    if (previous >= 0 && (previous != 0) != output[segment.begin]) {
      ++record.variation_count;
    }
    previous = output[segment.end - 1] ? 1 : 0;
  }
  for (std::size_t c = 0; c < combinations; ++c) {
    analysis.records[c].combination = c;
    set_fov(analysis.records[c]);
  }
  return analysis;
}

}  // namespace glva::core
