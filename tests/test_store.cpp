// Tests for the store/ streaming trace I/O subsystem: the TraceSink
// contract, the .glvt spill format (round-trip fuzz, golden bytes, error
// paths), fused sampler→ADC digitization, and the bit-identity of the
// three sink kinds through the full experiment pipeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#if defined(__unix__)
#include <sys/resource.h>
#endif

#include "circuits/circuit_repository.h"
#include "core/adc.h"
#include "core/ensemble.h"
#include "core/experiment.h"
#include "core/report.h"
#include "core/threshold_sweep.h"
#include "fuzz_util.h"
#include "sim/trace.h"
#include "sim/virtual_lab.h"
#include "store/digitizing_sink.h"
#include "store/glvt.h"
#include "store/memory_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"
#include "store/trace_sink.h"
#include "util/errors.h"
#include "util/stats.h"
#include "util/string_util.h"

namespace {

using namespace glva;
namespace fs = std::filesystem;

fs::path temp_path(const std::string& name) {
  return fs::path(::testing::TempDir()) / name;
}

/// Stream a materialized trace through any sink, row by row — the same
/// call sequence the TraceSampler produces.
void stream_trace(const sim::Trace& trace, store::TraceSink& sink) {
  sink.begin(trace.species_names());
  std::vector<double> row(trace.species_count());
  for (std::size_t k = 0; k < trace.sample_count(); ++k) {
    for (std::size_t s = 0; s < trace.species_count(); ++s) {
      row[s] = trace.series(s)[k];
    }
    sink.append(trace.times()[k], row);
  }
  sink.finish();
}

/// Deterministic synthetic trace mixing long constant runs (clamped-input
/// shape, RLE-friendly) with per-sample variation (raw sections).
sim::Trace synthetic_trace(std::size_t samples) {
  sim::Trace trace({"A", "B", "GFP"});
  std::vector<double> row(3);
  for (std::size_t k = 0; k < samples; ++k) {
    row[0] = (k / 10) % 2 == 0 ? 0.0 : 15.0;
    row[1] = static_cast<double>(k % 7);
    row[2] = k < samples / 2 ? 0.0 : 30.0;
    trace.append(static_cast<double>(k) * 0.5, row);
  }
  return trace;
}

void expect_traces_identical(const sim::Trace& a, const sim::Trace& b) {
  ASSERT_EQ(a.species_names(), b.species_names());
  ASSERT_EQ(a.sample_count(), b.sample_count());
  EXPECT_EQ(a.times(), b.times());
  for (std::size_t s = 0; s < a.species_count(); ++s) {
    EXPECT_EQ(a.series(s), b.series(s)) << "species " << s;
  }
}

/// Bit-pattern equality of two traces — unlike operator==, NaN-safe.
bool traces_bit_identical(const sim::Trace& a, const sim::Trace& b) {
  const auto same = [](const std::vector<double>& x,
                       const std::vector<double>& y) {
    return std::equal(x.begin(), x.end(), y.begin(), y.end(),
                      [](double p, double q) {
                        return std::bit_cast<std::uint64_t>(p) ==
                               std::bit_cast<std::uint64_t>(q);
                      });
  };
  if (a.species_names() != b.species_names() || !same(a.times(), b.times())) {
    return false;
  }
  for (std::size_t s = 0; s < a.species_count(); ++s) {
    if (!same(a.series(s), b.series(s))) return false;
  }
  return true;
}

void expect_extractions_identical(const core::ExtractionResult& a,
                                  const core::ExtractionResult& b) {
  EXPECT_EQ(a.expression(), b.expression());
  EXPECT_EQ(a.fitness(), b.fitness());
  ASSERT_EQ(a.variation.records.size(), b.variation.records.size());
  for (std::size_t c = 0; c < a.variation.records.size(); ++c) {
    const auto& ra = a.variation.records[c];
    const auto& rb = b.variation.records[c];
    EXPECT_EQ(ra.case_count, rb.case_count) << "combination " << c;
    EXPECT_EQ(ra.high_count, rb.high_count) << "combination " << c;
    EXPECT_EQ(ra.variation_count, rb.variation_count) << "combination " << c;
    EXPECT_EQ(ra.fov_est, rb.fov_est) << "combination " << c;
  }
  ASSERT_EQ(a.construction.outcomes.size(), b.construction.outcomes.size());
  for (std::size_t c = 0; c < a.construction.outcomes.size(); ++c) {
    EXPECT_EQ(a.construction.outcomes[c].verdict,
              b.construction.outcomes[c].verdict)
        << "combination " << c;
  }
}

std::string read_file_bytes(const fs::path& path) {
  std::ifstream file(path, std::ios::binary);
  EXPECT_TRUE(file.good()) << "cannot open " << path;
  std::ostringstream bytes;
  bytes << file.rdbuf();
  return bytes.str();
}

// --------------------------------------------------------------- SinkKind

TEST(SinkKind, NamesRoundTrip) {
  for (const auto kind : {store::SinkKind::kMemory, store::SinkKind::kSpill,
                          store::SinkKind::kDigitize}) {
    EXPECT_EQ(store::parse_sink_kind(store::sink_kind_name(kind)), kind);
  }
  EXPECT_EQ(store::parse_sink_kind("memory"), store::SinkKind::kMemory);
  EXPECT_THROW((void)store::parse_sink_kind("disk"), InvalidArgument);
}

// ------------------------------------------------------------- MemorySink

TEST(MemorySink, ReproducesStreamedTrace) {
  const sim::Trace trace = synthetic_trace(100);
  store::MemorySink sink;
  stream_trace(trace, sink);
  expect_traces_identical(trace, sink.trace());
}

// ------------------------------------------------------------ glvt codec

TEST(GlvtCodec, SectionRoundTripPreservesBitPatterns) {
  const std::vector<double> values = {
      0.0, -0.0, 1.5, 1.5, 1.5, 1.5, 1.5, 1.5,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(), -3.25, 42.0};
  std::string buffer;
  store::glvt::encode_section(values, buffer);
  std::size_t offset = 0;
  const std::vector<double> decoded =
      store::glvt::decode_section(buffer, offset, values.size());
  EXPECT_EQ(offset, buffer.size());
  ASSERT_EQ(decoded.size(), values.size());
  EXPECT_EQ(std::memcmp(decoded.data(), values.data(),
                        values.size() * sizeof(double)),
            0)
      << "round trip must preserve NaN and signed-zero bit patterns";
}

TEST(GlvtCodec, ConstantRunsCompress) {
  const std::vector<double> constant(1000, 15.0);
  std::string buffer;
  store::glvt::encode_section(constant, buffer);
  // One RLE run: tag + length + (count, bits) — far below 8000 raw bytes.
  EXPECT_LT(buffer.size(), 64u);
  std::size_t offset = 0;
  EXPECT_EQ(store::glvt::decode_section(buffer, offset, constant.size()),
            constant);
}

TEST(GlvtCodec, DecodeRejectsTruncationAndBadTags) {
  const std::vector<double> values = {1.0, 2.0, 3.0};
  std::string buffer;
  store::glvt::encode_section(values, buffer);

  std::string truncated = buffer.substr(0, buffer.size() - 3);
  std::size_t offset = 0;
  EXPECT_THROW((void)store::glvt::decode_section(truncated, offset, 3),
               StorageError);

  std::string bad_tag = buffer;
  bad_tag[0] = 7;  // neither kRaw nor kRle
  offset = 0;
  EXPECT_THROW((void)store::glvt::decode_section(bad_tag, offset, 3),
               StorageError);
}

// ------------------------------------------------------- spill round trip

TEST(Spill, RoundTripReproducesTraceBitForBit) {
  const sim::Trace trace = synthetic_trace(150);
  const fs::path path = temp_path("roundtrip.glvt");

  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.seed = 123;
  options.sampling_period = 0.5;
  store::SpillSink sink(path.string(), options);
  stream_trace(trace, sink);
  EXPECT_EQ(sink.sample_count(), 150u);
  EXPECT_EQ(sink.chunk_count(), 3u);  // 64 + 64 + 22

  store::SpillReader reader(path.string());
  EXPECT_EQ(reader.species_names(), trace.species_names());
  EXPECT_EQ(reader.sample_count(), 150u);
  EXPECT_EQ(reader.chunk_count(), 3u);
  EXPECT_EQ(reader.chunk_capacity(), 64u);
  EXPECT_EQ(reader.seed(), 123u);
  EXPECT_EQ(reader.sampling_period(), 0.5);

  expect_traces_identical(trace, reader.read_all());

  const store::SpillReader::Chunk last = reader.read_chunk(2);
  EXPECT_EQ(last.first_sample, 128u);
  EXPECT_EQ(last.times.size(), 22u);
}

TEST(Spill, RoundTripFuzzAcrossSizesAndChunkCapacities) {
  for (const std::size_t samples : {0u, 1u, 63u, 64u, 65u, 129u, 1000u}) {
    for (const std::uint32_t chunk : {64u, 128u, 4096u}) {
      const sim::Trace trace = synthetic_trace(samples);
      const fs::path path = temp_path("fuzz_" + std::to_string(samples) +
                                      "_" + std::to_string(chunk) + ".glvt");
      store::SpillSink::Options options;
      options.chunk_samples = chunk;
      store::SpillSink sink(path.string(), options);
      stream_trace(trace, sink);

      store::SpillReader reader(path.string());
      ASSERT_EQ(reader.sample_count(), samples);
      const std::size_t expected_chunks = (samples + chunk - 1) / chunk;
      ASSERT_EQ(reader.chunk_count(), expected_chunks);
      expect_traces_identical(trace, reader.read_all());
    }
  }
}

TEST(Spill, CsvStreamMatchesTraceToCsv) {
  const sim::Trace trace = synthetic_trace(150);
  const fs::path path = temp_path("csv.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  store::SpillSink sink(path.string(), options);
  stream_trace(trace, sink);

  store::SpillReader reader(path.string());
  std::ostringstream csv;
  reader.write_csv(csv);
  EXPECT_EQ(csv.str(), trace.to_csv());
}

TEST(Spill, ChunkSizeMustBeWordMultiple) {
  EXPECT_THROW(store::SpillSink("x.glvt", {.chunk_samples = 0}),
               InvalidArgument);
  EXPECT_THROW(store::SpillSink("x.glvt", {.chunk_samples = 100}),
               InvalidArgument);
}

// ------------------------------------------------------ spill error paths

TEST(Spill, RejectsBadMagic) {
  const fs::path path = temp_path("bad_magic.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);

  std::string bytes = read_file_bytes(path);
  bytes[0] = 'X';
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsUnsupportedVersion) {
  const fs::path path = temp_path("bad_version.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);

  std::string bytes = read_file_bytes(path);
  bytes[4] = 99;  // version field, above kVersion
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  bytes[4] = 0;  // below kMinVersion
  std::ofstream(path, std::ios::binary) << bytes;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsTruncatedFile) {
  const fs::path path = temp_path("truncated.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(200), sink);

  const std::string bytes = read_file_bytes(path);
  // Chop the chunk index off the end: the index no longer fits the file.
  std::ofstream(path, std::ios::binary)
      << bytes.substr(0, bytes.size() - 12);
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // A file cut inside the header is rejected too.
  std::ofstream(path, std::ios::binary) << bytes.substr(0, 20);
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsOversizedHeaderFields) {
  const fs::path path = temp_path("oversized.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);
  const std::string bytes = read_file_bytes(path);

  // A chunk_count near 2^61 would wrap a multiplicative fit check and
  // escape as std::length_error from reserve(); it must stay StorageError.
  std::string huge_chunks = bytes;
  for (std::size_t b = 0; b < 8; ++b) {
    huge_chunks[store::glvt::kChunkCountOffset + b] =
        static_cast<char>(b == 7 ? 0x20 : 0x00);  // 2^61
  }
  std::ofstream(path, std::ios::binary) << huge_chunks;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // A species-name length of 0xFFFFFFFF must be rejected before the
  // reader trusts it with an allocation.
  std::string huge_name = bytes;
  for (std::size_t b = 0; b < 4; ++b) {
    huge_name[store::glvt::kHeaderFixedBytesV2 + b] = '\xff';
  }
  std::ofstream(path, std::ios::binary) << huge_name;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // Nor may a species count of 0xFFFFFFFF reserve 4G names up front.
  std::string huge_count = bytes;
  for (std::size_t b = 0; b < 4; ++b) {
    huge_count[24 + b] = '\xff';  // species_count sits after the period
  }
  std::ofstream(path, std::ios::binary) << huge_count;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsUnfinishedFile) {
  const fs::path path = temp_path("unfinished.glvt");
  {
    store::SpillSink sink(path.string(), {.chunk_samples = 64});
    sink.begin({"A", "B"});
    sink.append(0.0, {1.0, 2.0});
    // No finish(): the header keeps its index_offset == 0 sentinel.
  }
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, RejectsCorruptChunkMagic) {
  const fs::path path = temp_path("bad_chunk.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  const sim::Trace trace = synthetic_trace(10);
  stream_trace(trace, sink);

  // The first chunk starts right after the header: fixed prefix + one
  // (u32 length + bytes) record per species name.
  std::size_t chunk_offset = store::glvt::kHeaderFixedBytesV2;
  for (const auto& name : trace.species_names()) {
    chunk_offset += sizeof(std::uint32_t) + name.size();
  }
  std::string bytes = read_file_bytes(path);
  bytes[chunk_offset] = '?';
  std::ofstream(path, std::ios::binary) << bytes;

  store::SpillReader reader(path.string());  // header and index still valid
  EXPECT_THROW((void)reader.read_chunk(0), StorageError);
}

/// Hand-build a v2 analog file of `synthetic_trace` rows cut into chunks
/// of `chunk_sizes` samples, with `header_samples` in the header — chunk
/// layouts SpillSink never writes. Times are stored as a raw section, so
/// no grid start time ties a chunk to its position.
void write_chunks_by_hand(const fs::path& path, std::uint32_t capacity,
                          const std::vector<std::uint32_t>& chunk_sizes,
                          std::uint64_t header_samples) {
  std::size_t total = 0;
  for (const std::uint32_t n : chunk_sizes) total += n;
  const sim::Trace trace = synthetic_trace(total);

  std::string bytes(store::glvt::kMagic, sizeof store::glvt::kMagic);
  store::glvt::append_u32(bytes, store::glvt::kVersion);
  store::glvt::append_u64(bytes, 0);      // seed
  store::glvt::append_f64(bytes, 0.5);    // sampling period
  store::glvt::append_u32(bytes, static_cast<std::uint32_t>(
                                     trace.species_count()));
  store::glvt::append_u32(bytes, capacity);
  store::glvt::append_u64(bytes, header_samples);
  store::glvt::append_u64(bytes, chunk_sizes.size());
  store::glvt::append_u64(bytes, 0);  // index_offset, patched below
  store::glvt::append_u32(bytes, 0);  // content kind: analog
  store::glvt::append_f64(bytes, 0.0);
  for (const auto& name : trace.species_names()) {
    store::glvt::append_u32(bytes, static_cast<std::uint32_t>(name.size()));
    bytes += name;
  }
  std::vector<std::uint64_t> offsets;
  std::size_t first = 0;
  const auto slice = [&](const std::vector<double>& column, std::size_t n) {
    return std::vector<double>(column.begin() + static_cast<long>(first),
                               column.begin() + static_cast<long>(first + n));
  };
  for (const std::uint32_t n : chunk_sizes) {
    offsets.push_back(bytes.size());
    store::glvt::append_u32(bytes, store::glvt::kChunkMagic);
    store::glvt::append_u32(bytes, n);
    store::glvt::encode_section(slice(trace.times(), n), bytes);
    for (std::size_t s = 0; s < trace.species_count(); ++s) {
      store::glvt::encode_section(slice(trace.series(s), n), bytes);
    }
    first += n;
  }
  const std::uint64_t index_offset = bytes.size();
  for (const std::uint64_t offset : offsets) {
    store::glvt::append_u64(bytes, offset);
  }
  std::string patch;
  store::glvt::append_u64(patch, index_offset);
  bytes.replace(store::glvt::kIndexOffsetOffset, patch.size(), patch);
  std::ofstream(path, std::ios::binary) << bytes;
}

/// Every analog read path must reject a file that breaks the chunk layout
/// — chunk `bad_chunk` is the one `read_chunk_into` trips on.
void expect_every_read_path_rejects(const fs::path& path,
                                    std::size_t bad_chunk) {
  store::SpillReader reader(path.string());
  store::SpillReader::Chunk chunk;
  EXPECT_THROW(reader.read_chunk_into(bad_chunk, chunk), StorageError);
  store::MemorySink memory;
  EXPECT_THROW(reader.replay(memory), StorageError);
  store::DigitizingSink runs({"A", "GFP"}, 10.0);
  EXPECT_THROW(reader.replay(runs), StorageError);
  store::DigitizingSink generic({"A", "GFP"}, 10.0);
  EXPECT_THROW(reader.replay(static_cast<store::TraceSink&>(generic)),
               StorageError);
  store::MemorySink rows;
  EXPECT_THROW(reader.replay_rows(rows), StorageError);
  EXPECT_THROW((void)reader.read_all(), StorageError);
  std::ostringstream csv;
  EXPECT_THROW(reader.write_csv(csv), StorageError);
}

TEST(Spill, RejectsHeaderCountTheChunksDoNotCover) {
  const fs::path path = temp_path("count_mismatch.glvt");
  {
    store::SpillSink sink(path.string(), {.chunk_samples = 64});
    stream_trace(synthetic_trace(150), sink);
  }
  std::string bytes = read_file_bytes(path);
  std::string patch;
  store::glvt::append_u64(patch, 100000);  // the chunks hold 150
  bytes.replace(store::glvt::kSampleCountOffset, patch.size(), patch);
  std::ofstream(path, std::ios::binary) << bytes;
  expect_every_read_path_rejects(path, 2);
}

TEST(Spill, RejectsShortInteriorChunk) {
  // Self-consistent apart from the layout: the header counts the 40 + 64
  // + 10 samples the chunks hold, but chunk 0 is not full, so every later
  // sample would land off its grid position and word boundary.
  const fs::path path = temp_path("short_interior.glvt");
  write_chunks_by_hand(path, 64, {40, 64, 10}, 114);
  expect_every_read_path_rejects(path, 0);

  write_chunks_by_hand(path, 64, {64, 40, 10}, 114);
  expect_every_read_path_rejects(path, 1);

  // The same samples laid out legally read back bit for bit.
  write_chunks_by_hand(path, 64, {64, 50}, 114);
  expect_traces_identical(synthetic_trace(114),
                          store::SpillReader(path.string()).read_all());
}

TEST(Spill, RejectsChunklessFileClaimingSamples) {
  const fs::path path = temp_path("chunkless.glvt");
  write_chunks_by_hand(path, 64, {}, 0);
  EXPECT_EQ(store::SpillReader(path.string()).read_all().sample_count(), 0u);
  write_chunks_by_hand(path, 64, {}, 5);
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

TEST(Spill, MissingFileRejected) {
  EXPECT_THROW(store::SpillReader{"/nonexistent/dir/missing.glvt"},
               StorageError);
}

// ----------------------------------------------------------- golden bytes

TEST(Spill, GoldenFileBytesAreStable) {
  const fs::path path = temp_path("golden_generated.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.seed = 123;
  options.sampling_period = 0.5;
  store::SpillSink sink(path.string(), options);
  stream_trace(synthetic_trace(150), sink);

  const std::string generated = read_file_bytes(path);
  const std::string golden =
      read_file_bytes(fs::path(GLVA_GOLDEN_DIR) / "spill_fixed.glvt");
  ASSERT_EQ(generated.size(), golden.size())
      << "regenerate tests/golden/spill_fixed.glvt if the .glvt format "
         "changed intentionally (and bump glvt::kVersion)";
  EXPECT_TRUE(generated == golden)
      << "byte-level .glvt drift — bump glvt::kVersion on format changes";
}

// ------------------------------------------------ v2 grid/words sections

TEST(GlvtCodec, UniformGridCollapsesToGridSection) {
  std::vector<double> times;
  for (std::size_t j = 0; j < 128; ++j) {
    times.push_back(static_cast<double>(64 + j) * 0.5);
  }
  std::string buffer;
  EXPECT_TRUE(store::glvt::encode_time_section(times, 64, 0.5, buffer));
  EXPECT_EQ(buffer.size(), 1u + 4u + 8u);  // tag + length + t0, per chunk

  std::vector<double> decoded;
  std::size_t offset = 0;
  store::glvt::decode_time_section_into(buffer, offset, times.size(), 64, 0.5,
                                        decoded);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(decoded, times);
}

TEST(GlvtCodec, OffGridTimesFallBackToSectionEncoding) {
  const std::vector<double> times = {0.0, 0.5, 1.01, 1.5};  // one off-grid
  std::string buffer;
  EXPECT_FALSE(store::glvt::encode_time_section(times, 0, 0.5, buffer));

  std::vector<double> decoded;
  std::size_t offset = 0;
  store::glvt::decode_time_section_into(buffer, offset, times.size(), 0, 0.5,
                                        decoded);
  EXPECT_EQ(decoded, times);
}

TEST(GlvtCodec, GridDecodeRejectsMismatchedStartTime) {
  std::vector<double> times;
  for (std::size_t j = 0; j < 64; ++j) {
    times.push_back(static_cast<double>(64 + j) * 0.5);
  }
  std::string buffer;
  ASSERT_TRUE(store::glvt::encode_time_section(times, 64, 0.5, buffer));

  // Decoding the same bytes as if the chunk sat elsewhere in the file must
  // fail the stored-t0 cross-check, not silently relabel the samples.
  std::vector<double> decoded;
  std::size_t offset = 0;
  EXPECT_THROW(store::glvt::decode_time_section_into(buffer, offset, 64, 128,
                                                     0.5, decoded),
               StorageError);

  // A truncated grid payload is rejected too.
  const std::string truncated = buffer.substr(0, buffer.size() - 4);
  offset = 0;
  EXPECT_THROW(store::glvt::decode_time_section_into(truncated, offset, 64,
                                                     64, 0.5, decoded),
               StorageError);
}

TEST(GlvtCodec, WordsSectionRoundTripAndErrors) {
  const std::vector<std::uint64_t> words = {0x0123456789ABCDEFull, 0xFFull};
  std::string buffer;
  store::glvt::encode_words_section(words.data(), words.size(), buffer);

  std::vector<std::uint64_t> decoded;
  std::size_t offset = 0;
  store::glvt::decode_words_section(buffer, offset, words.size(), decoded);
  EXPECT_EQ(offset, buffer.size());
  EXPECT_EQ(decoded, words);

  // Payload size disagreeing with the expected word count.
  offset = 0;
  std::vector<std::uint64_t> scratch;
  EXPECT_THROW(
      store::glvt::decode_words_section(buffer, offset, words.size() + 1,
                                        scratch),
      StorageError);

  // A non-kWords tag where a bit-plane section is required.
  std::string bad_tag = buffer;
  bad_tag[0] = 0;  // kRaw
  offset = 0;
  EXPECT_THROW(
      store::glvt::decode_words_section(bad_tag, offset, words.size(),
                                        scratch),
      StorageError);

  // Truncation inside the payload.
  const std::string truncated = buffer.substr(0, buffer.size() - 1);
  offset = 0;
  EXPECT_THROW(
      store::glvt::decode_words_section(truncated, offset, words.size(),
                                        scratch),
      StorageError);
}

// ------------------------------------------------ v1 backward compatibility

TEST(SpillV1, GoldenV1FixtureStillDecodesBitForBit) {
  const fs::path v1_path = fs::path(GLVA_GOLDEN_DIR) / "spill_fixed_v1.glvt";
  store::SpillReader reader(v1_path.string());
  EXPECT_EQ(reader.version(), 1u);
  EXPECT_EQ(reader.content_kind(), store::glvt::ContentKind::kAnalog);
  EXPECT_EQ(reader.threshold(), 0.0);
  EXPECT_EQ(reader.sample_count(), 150u);
  expect_traces_identical(synthetic_trace(150), reader.read_all());
}

TEST(SpillV1, V1WriterReproducesV1GoldenBytes) {
  // format_version = 1 must keep emitting the legacy layout byte for byte
  // (the compat contract the CI size-ratio smoke also leans on).
  const fs::path path = temp_path("v1_rewrite.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.seed = 123;
  options.sampling_period = 0.5;
  options.format_version = 1;
  store::SpillSink sink(path.string(), options);
  stream_trace(synthetic_trace(150), sink);

  EXPECT_TRUE(read_file_bytes(path) ==
              read_file_bytes(fs::path(GLVA_GOLDEN_DIR) /
                              "spill_fixed_v1.glvt"))
      << "v1 writer drifted from the checked-in v1 fixture";
}

TEST(SpillV1, V1ToV2UpgradeReplayMatchesV2Golden) {
  // Replaying the v1 fixture through a v2 sink is the upgrade path; its
  // bytes must equal the freshly written v2 golden exactly (same samples,
  // same parameters — only the container version differs).
  const fs::path v1_path = fs::path(GLVA_GOLDEN_DIR) / "spill_fixed_v1.glvt";
  store::SpillReader v1(v1_path.string());

  const fs::path upgraded = temp_path("upgraded_v2.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = v1.chunk_capacity();
  options.seed = v1.seed();
  options.sampling_period = v1.sampling_period();
  store::SpillSink sink(upgraded.string(), options);
  v1.replay(sink);

  EXPECT_TRUE(read_file_bytes(upgraded) ==
              read_file_bytes(fs::path(GLVA_GOLDEN_DIR) / "spill_fixed.glvt"));
}

TEST(SpillV1, V2GoldenIsGridCompressed) {
  const fs::path v2_path = fs::path(GLVA_GOLDEN_DIR) / "spill_fixed.glvt";
  store::SpillReader reader(v2_path.string());
  EXPECT_EQ(reader.version(), store::glvt::kVersion);
  // The whole point of kGrid: the same trace, meaningfully smaller (the
  // time column was most of the v1 file).
  EXPECT_LT(fs::file_size(v2_path),
            fs::file_size(fs::path(GLVA_GOLDEN_DIR) / "spill_fixed_v1.glvt"));
  expect_traces_identical(synthetic_trace(150), reader.read_all());
}

TEST(SpillV1, RejectsUnwritableFormatVersion) {
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.format_version = 3;
  EXPECT_THROW(store::SpillSink("x.glvt", options), InvalidArgument);
  options.format_version = 0;
  EXPECT_THROW(store::SpillSink("x.glvt", options), InvalidArgument);
}

// ---------------------------------------------------- v2 file error paths

TEST(SpillV2, RejectsCorruptGridStartTime) {
  // Write a genuinely grid-compressed v2 file (times on the sink's
  // sampling grid), then flip a byte of the first chunk's stored t0: the
  // header and index stay valid, the chunk decode must throw.
  const fs::path path = temp_path("bad_grid.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.sampling_period = 0.5;
  store::SpillSink sink(path.string(), options);
  stream_trace(synthetic_trace(100), sink);

  std::size_t chunk_offset = store::glvt::kHeaderFixedBytesV2;
  for (const std::string name : {"A", "B", "GFP"}) {
    chunk_offset += sizeof(std::uint32_t) + name.size();
  }
  // Chunk layout: magic u32, samples u32, then the time section's
  // tag u8 + payload length u32 + t0 f64.
  const std::size_t t0_offset = chunk_offset + 4 + 4 + 1 + 4;
  std::string bytes = read_file_bytes(path);
  ASSERT_EQ(static_cast<store::glvt::SectionEncoding>(
                bytes[chunk_offset + 8]),
            store::glvt::SectionEncoding::kGrid);
  bytes[t0_offset + 3] ^= 0x40;
  std::ofstream(path, std::ios::binary) << bytes;

  store::SpillReader reader(path.string());
  EXPECT_THROW((void)reader.read_chunk(0), StorageError);
}

TEST(SpillV2, RejectsBadContentKindAndThresholdFields) {
  const fs::path path = temp_path("bad_content.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);
  const std::string bytes = read_file_bytes(path);

  // An unknown content kind (the u32 right after index_offset).
  std::string bad_kind = bytes;
  bad_kind[store::glvt::kIndexOffsetOffset + 8] = 7;
  std::ofstream(path, std::ios::binary) << bad_kind;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);

  // A kBits file whose threshold field is zero is self-contradictory.
  std::string bits_no_threshold = bytes;
  bits_no_threshold[store::glvt::kIndexOffsetOffset + 8] = 1;  // kBits
  std::ofstream(path, std::ios::binary) << bits_no_threshold;
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

// ------------------------------------------------------- bit-plane spills

store::DigitizingSink::SpillOptions plane_spill(const fs::path& path) {
  store::DigitizingSink::SpillOptions spill;
  spill.path = path.string();
  spill.chunk_samples = 64;
  spill.seed = 9;
  spill.sampling_period = 0.5;
  return spill;
}

TEST(BitPlaneSpill, RoundTripMatchesInMemoryPlanes) {
  const sim::Trace trace = synthetic_trace(300);
  const fs::path path = temp_path("planes.glvt");
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0, plane_spill(path));
  EXPECT_EQ(sink.spill_path(), path.string());
  stream_trace(trace, sink);

  store::SpillReader reader(path.string());
  EXPECT_EQ(reader.version(), store::glvt::kVersion);
  EXPECT_EQ(reader.content_kind(), store::glvt::ContentKind::kBits);
  EXPECT_EQ(reader.threshold(), 15.0);
  EXPECT_EQ(reader.species_names(),
            (std::vector<std::string>{"A", "B", "GFP"}));
  EXPECT_EQ(reader.sample_count(), 300u);

  const std::vector<logic::BitStream> planes = reader.read_planes();
  ASSERT_EQ(planes.size(), 3u);
  for (std::size_t p = 0; p < 3; ++p) {
    EXPECT_EQ(planes[p], sink.planes()[p]) << "plane " << p;
  }

  // The analog APIs refuse a bit-plane file (and name the mismatch).
  EXPECT_THROW((void)reader.read_all(), StorageError);
  store::MemorySink memory;
  EXPECT_THROW(reader.replay(memory), StorageError);
  std::ostringstream csv;
  EXPECT_THROW(reader.write_csv(csv), StorageError);
}

TEST(BitPlaneSpill, RoundTripFuzzAcrossSizes) {
  // Ragged tails, exact word/chunk boundaries, empty stream.
  for (const std::size_t samples : {0u, 1u, 63u, 64u, 65u, 129u, 1000u}) {
    const sim::Trace trace = synthetic_trace(samples);
    const fs::path path =
        temp_path("planes_fuzz_" + std::to_string(samples) + ".glvt");
    store::DigitizingSink sink({"GFP", "A"}, 10.0, plane_spill(path));
    stream_trace(trace, sink);

    store::SpillReader reader(path.string());
    ASSERT_EQ(reader.sample_count(), samples);
    const std::vector<logic::BitStream> planes = reader.read_planes();
    ASSERT_EQ(planes.size(), 2u);
    EXPECT_EQ(planes[0], sink.planes()[0]) << samples << " samples";
    EXPECT_EQ(planes[1], sink.planes()[1]) << samples << " samples";
  }
}

TEST(BitPlaneSpill, LoadDigitizedMatchesTakeDigitized) {
  const sim::Trace trace = synthetic_trace(500);
  const fs::path path = temp_path("planes_load.glvt");
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0, plane_spill(path));
  stream_trace(trace, sink);
  const core::PackedDigitalData direct = core::take_digitized(sink, 2);

  store::SpillReader reader(path.string());
  const core::PackedDigitalData loaded = core::load_digitized(reader, 2, 15.0);
  ASSERT_EQ(loaded.inputs.size(), direct.inputs.size());
  EXPECT_EQ(loaded.inputs[0], direct.inputs[0]);
  EXPECT_EQ(loaded.inputs[1], direct.inputs[1]);
  EXPECT_EQ(loaded.output, direct.output);

  // A bit-exact threshold match is required — planes digitized at 15.0
  // must not be passed off as planes for any other threshold.
  EXPECT_THROW((void)core::load_digitized(reader, 2, 15.5), InvalidArgument);
  // Plane count must cover inputs + output.
  EXPECT_THROW((void)core::load_digitized(reader, 3, 15.0), InvalidArgument);
}

TEST(BitPlaneSpill, ReadPlanesRejectsAnalogFile) {
  const fs::path path = temp_path("analog_not_planes.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(synthetic_trace(10), sink);
  store::SpillReader reader(path.string());
  EXPECT_THROW((void)reader.read_planes(), StorageError);
}

TEST(BitPlaneSpill, RejectsCorruptWordsSection) {
  const fs::path path = temp_path("bad_words.glvt");
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0, plane_spill(path));
  stream_trace(synthetic_trace(100), sink);

  std::size_t chunk_offset = store::glvt::kHeaderFixedBytesV2;
  for (const std::string name : {"A", "B", "GFP"}) {
    chunk_offset += sizeof(std::uint32_t) + name.size();
  }
  std::string bytes = read_file_bytes(path);
  ASSERT_EQ(static_cast<store::glvt::SectionEncoding>(
                bytes[chunk_offset + 8]),
            store::glvt::SectionEncoding::kWords);
  bytes[chunk_offset + 8] = 0;  // kRaw where kWords is required
  std::ofstream(path, std::ios::binary) << bytes;

  store::SpillReader reader(path.string());
  EXPECT_THROW((void)reader.read_planes(), StorageError);
}

/// A file whose header promises `chunks` chunks of 2^31 samples of
/// `species` species while every index entry points at the one 64-sample
/// chunk it holds (~0.6 KB at 64 chunks of one species): the planes must
/// not be sized from the header before the chunks are read.
void write_crafted_capacity_file(const fs::path& path,
                                 store::glvt::ContentKind kind,
                                 std::uint32_t species = 1,
                                 std::uint64_t chunks = 64) {
  namespace glvt = store::glvt;
  constexpr std::uint32_t kCapacity = 1u << 31;
  std::string bytes(glvt::kMagic, sizeof glvt::kMagic);
  glvt::append_u32(bytes, glvt::kVersion);
  glvt::append_u64(bytes, 0);    // seed
  glvt::append_f64(bytes, 0.5);  // sampling period
  glvt::append_u32(bytes, species);
  glvt::append_u32(bytes, kCapacity);
  glvt::append_u64(bytes, (chunks - 1) * kCapacity + 64);
  glvt::append_u64(bytes, chunks);
  glvt::append_u64(bytes, 0);  // index_offset, patched below
  glvt::append_u32(bytes, static_cast<std::uint32_t>(kind));
  glvt::append_f64(bytes, 15.0);
  for (std::uint32_t s = 0; s < species; ++s) {
    glvt::append_u32(bytes, 3);
    bytes += "GFP";
  }
  const std::uint64_t chunk_offset = bytes.size();
  glvt::append_u32(bytes, glvt::kChunkMagic);
  glvt::append_u32(bytes, 64);
  if (kind == glvt::ContentKind::kBits) {
    const std::uint64_t word = ~std::uint64_t{0};
    glvt::encode_words_section(&word, 1, bytes);
  } else {
    glvt::encode_time_section(std::vector<double>(64, 0.0), 0, 0.5, bytes);
    glvt::encode_section(std::vector<double>(64, 20.0), bytes);
  }
  const std::uint64_t index_offset = bytes.size();
  for (std::uint64_t c = 0; c < chunks; ++c) {
    glvt::append_u64(bytes, chunk_offset);
  }
  std::string patch;
  glvt::append_u64(patch, index_offset);
  bytes.replace(glvt::kIndexOffsetOffset, patch.size(), patch);
  std::ofstream(path, std::ios::binary) << bytes;
}

/// Expect `read` to throw StorageError while the address space is capped
/// at 4 GiB, so that an oversized reserve fails as std::bad_alloc on any
/// host, however much memory it has or overcommits. The capped run forks
/// (a death test); sanitizer builds reserve terabytes of shadow memory up
/// front, so there `read` runs in process without the cap.
#if defined(__unix__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
#define GLVA_CAPPED_ADDRESS_SPACE 1
/// The death-test body: exit 0 when `read` throws StorageError under the
/// cap, 1 on any other outcome.
template <typename Read>
[[noreturn]] void exit_zero_when_rejected_within_4gib(Read& read) {
  const rlimit limit{rlim_t{4} << 30, rlim_t{4} << 30};
  setrlimit(RLIMIT_AS, &limit);
  try {
    read();
  } catch (const StorageError&) {
    std::_Exit(0);
  } catch (...) {
  }
  std::_Exit(1);
}
#endif

template <typename Read>
void expect_rejected_within_4gib(Read&& read) {
#if defined(GLVA_CAPPED_ADDRESS_SPACE)
  EXPECT_EXIT(exit_zero_when_rejected_within_4gib(read),
              ::testing::ExitedWithCode(0), "");
#else
  EXPECT_THROW(read(), StorageError);
#endif
}

TEST(BitPlaneSpill, CraftedChunkCapacityCannotReserveAheadOfTheChunks) {
  // At 2^37 claimed samples a header-sized reserve asks for 16 GiB per
  // plane and escapes as std::bad_alloc; the file must be rejected by
  // the chunk-index check instead.
  const fs::path path = temp_path("crafted_capacity_planes.glvt");
  write_crafted_capacity_file(path, store::glvt::ContentKind::kBits);
  expect_rejected_within_4gib(
      [&] { (void)store::SpillReader(path.string()).read_planes(); });
  expect_rejected_within_4gib([&] {
    store::SpillReader reader(path.string());
    (void)core::load_digitized(reader, 0, 15.0);
  });

  // Two chunks of 150000 species: a cap per plane would still reserve the
  // file's size once per species, about 150 GB in all.
  const fs::path wide = temp_path("crafted_capacity_wide.glvt");
  write_crafted_capacity_file(wide, store::glvt::ContentKind::kBits, 150000,
                              2);
  expect_rejected_within_4gib(
      [&] { (void)store::SpillReader(wide.string()).read_planes(); });

  // The same layout as an analog file, replayed into the digitizer, whose
  // planes are presized too.
  const fs::path analog = temp_path("crafted_capacity_analog.glvt");
  write_crafted_capacity_file(analog, store::glvt::ContentKind::kAnalog);
  expect_rejected_within_4gib([&] {
    store::DigitizingSink runs({"GFP", "GFP"}, 15.0);
    store::SpillReader(analog.string()).replay(runs);
  });
  store::SpillReader analog_reader(analog.string());
  store::DigitizingSink generic({"GFP"}, 15.0);
  EXPECT_THROW(analog_reader.replay(static_cast<store::TraceSink&>(generic)),
               StorageError);
}

// ------------------------------------------------------ async spill writer

TEST(AsyncSpill, SyncEnvEscapeHatchWritesIdenticalBytes) {
  const sim::Trace trace = synthetic_trace(1000);
  const fs::path async_path = temp_path("async.glvt");
  const fs::path sync_path = temp_path("sync.glvt");

  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.sampling_period = 0.5;
  {
    store::SpillSink sink(async_path.string(), options);
    stream_trace(trace, sink);
  }
  ::setenv("GLVA_SYNC_SPILL", "1", 1);
  {
    store::SpillSink sink(sync_path.string(), options);
    stream_trace(trace, sink);
  }
  ::unsetenv("GLVA_SYNC_SPILL");

  EXPECT_TRUE(read_file_bytes(async_path) == read_file_bytes(sync_path))
      << "GLVA_SYNC_SPILL must be a pure scheduling switch, not a format one";
}

TEST(AsyncSpill, WriterErrorSurfacesAsStorageError) {
  // /dev/full accepts the open and fails every flush with ENOSPC — the
  // canonical injection point for the latched-error contract. The error
  // may surface from an append (latched by the writer thread) or from
  // finish(); either way it must be StorageError, not a silent truncation.
  if (!fs::exists("/dev/full")) GTEST_SKIP() << "/dev/full not available";
  EXPECT_THROW(
      {
        store::SpillSink sink("/dev/full", {.chunk_samples = 64});
        stream_trace(synthetic_trace(20000), sink);
      },
      StorageError);
}

TEST(AsyncSpill, DestructionWithoutFinishLeavesRejectedFile) {
  // Exception-unwind path: the writer thread must join cleanly and the
  // unfinished file must keep its index_offset == 0 sentinel.
  const fs::path path = temp_path("abandoned.glvt");
  {
    store::SpillSink sink(path.string(), {.chunk_samples = 64});
    sink.begin({"A", "B"});
    for (std::size_t k = 0; k < 500; ++k) {
      sink.append(static_cast<double>(k), {1.0, 2.0});
    }
    // No finish().
  }
  EXPECT_THROW(store::SpillReader{path.string()}, StorageError);
}

// -------------------------------------------------------- DigitizingSink

TEST(DigitizingSink, MatchesDigitizePackedOverMaterializedTrace) {
  const sim::Trace trace = synthetic_trace(500);
  store::DigitizingSink sink({"A", "B", "GFP"}, 15.0);
  stream_trace(trace, sink);
  EXPECT_EQ(sink.sample_count(), 500u);

  const core::PackedDigitalData expected =
      core::digitize_packed(trace, {"A", "B"}, "GFP", 15.0);
  EXPECT_EQ(sink.planes()[0], expected.inputs[0]);
  EXPECT_EQ(sink.planes()[1], expected.inputs[1]);
  EXPECT_EQ(sink.planes()[2], expected.output);
}

TEST(DigitizingSink, ReplayFromSpillMatchesDirectDigitization) {
  const sim::Trace trace = synthetic_trace(300);
  const fs::path path = temp_path("replay.glvt");
  store::SpillSink sink(path.string(), {.chunk_samples = 64});
  stream_trace(trace, sink);

  store::SpillReader reader(path.string());
  store::DigitizingSink digitizer({"GFP", "A"}, 10.0);
  reader.replay(digitizer);

  EXPECT_EQ(digitizer.planes()[0],
            core::adc_packed(trace.series("GFP"), 10.0));
  EXPECT_EQ(digitizer.planes()[1], core::adc_packed(trace.series("A"), 10.0));
}

TEST(DigitizingSink, ValidatesArguments) {
  EXPECT_THROW(store::DigitizingSink({}, 15.0), InvalidArgument);
  EXPECT_THROW(store::DigitizingSink({"A"}, 0.0), InvalidArgument);
  EXPECT_THROW(
      store::DigitizingSink({"A"}, std::numeric_limits<double>::quiet_NaN()),
      InvalidArgument);
  store::DigitizingSink sink({"missing"}, 15.0);
  EXPECT_THROW(sink.begin({"A", "B"}), InvalidArgument);
  store::DigitizingSink ok({"A"}, 15.0);
  ok.begin({"A"});
  EXPECT_THROW((void)ok.take_plane(1), InvalidArgument);

  // append_words: one span per plane, each exactly ceil(samples / 64)
  // words, and a chunk must start on a word boundary.
  using Words = std::span<const std::uint64_t>;
  const std::vector<std::uint64_t> words = {~std::uint64_t{0},
                                            ~std::uint64_t{0}};
  store::DigitizingSink chunked({"B", "B"}, 15.0);
  chunked.begin({"A", "B"});
  std::vector<Words> planes(1, Words(words).first(1));
  EXPECT_THROW(chunked.append_words(64, planes), InvalidArgument);
  planes.push_back(Words(words));
  EXPECT_THROW(chunked.append_words(64, planes), InvalidArgument);
  planes[1] = planes[0];
  EXPECT_THROW(chunked.append_words(65, planes), InvalidArgument);
  chunked.append_words(10, planes);  // bits past the 10 samples are masked
  EXPECT_THROW(chunked.append_words(64, planes), InvalidArgument);
  chunked.finish();
  EXPECT_EQ(chunked.planes()[0], core::adc_packed(std::vector<double>(10, 20.0),
                                                  15.0));
  EXPECT_EQ(chunked.planes()[1], chunked.planes()[0]);

  // A ragged tail's stray high bits do not leak into the row path that
  // continues the pending word.
  store::DigitizingSink mixed({"A"}, 15.0);
  mixed.begin({"A"});
  mixed.append_words(3, std::vector<Words>(1, Words(words).first(1)));
  mixed.append(1.5, {0.0});
  mixed.finish();
  EXPECT_EQ(mixed.planes()[0],
            core::adc_packed(std::vector<double>{20.0, 20.0, 20.0, 0.0}, 15.0));
}

// ------------------------------------------------- block-path equivalence

/// Deliver rows [offset, offset + count) of a materialized trace as one
/// column-wise block.
void stream_block(const sim::Trace& trace, store::TraceSink& sink,
                  std::size_t offset, std::size_t count) {
  std::vector<std::span<const double>> columns(trace.species_count());
  for (std::size_t s = 0; s < trace.species_count(); ++s) {
    columns[s] = std::span<const double>(trace.series(s)).subspan(offset, count);
  }
  sink.append_block(
      std::span<const double>(trace.times()).subspan(offset, count), columns);
}

/// Stream a trace through `sink` as a sequence of blocks whose sizes cycle
/// through `block_sizes` (the tail block is whatever remains).
void stream_trace_blocks(const sim::Trace& trace, store::TraceSink& sink,
                         const std::vector<std::size_t>& block_sizes) {
  sink.begin(trace.species_names());
  std::size_t offset = 0;
  std::size_t next = 0;
  while (offset < trace.sample_count()) {
    const std::size_t count = std::min(block_sizes[next % block_sizes.size()],
                                       trace.sample_count() - offset);
    stream_block(trace, sink, offset, count);
    offset += count;
    ++next;
  }
  sink.finish();
}

/// A sink implementing only the row contract: append_block must fall back
/// to the base class's row-wise loop.
class RowOnlySink final : public store::TraceSink {
public:
  void begin(const std::vector<std::string>& species_names) override {
    trace_ = sim::Trace(species_names);
  }
  void append(double time, const std::vector<double>& values) override {
    trace_.append(time, values);
  }
  void finish() override {}
  [[nodiscard]] const sim::Trace& trace() const noexcept { return trace_; }

private:
  sim::Trace trace_;
};

// The block sizes the fuzz slices streams into (single rows, one-off-word
// boundaries, exact words, a whole chunk, a ragged cycle) — shared with
// the word-kernel suite through tests/fuzz_util.h.
const std::vector<std::vector<std::size_t>>& kBlockSlicings =
    testutil::block_slicings();

TEST(AppendBlock, MemorySinkMatchesRowPathAcrossBlockSizes) {
  for (const std::size_t samples : {1u, 150u, 1000u}) {
    const sim::Trace trace = synthetic_trace(samples);
    store::MemorySink rows;
    stream_trace(trace, rows);
    for (const auto& slicing : kBlockSlicings) {
      store::MemorySink blocks;
      stream_trace_blocks(trace, blocks, slicing);
      expect_traces_identical(rows.trace(), blocks.trace());
    }
  }
}

TEST(AppendBlock, SpillSinkWritesIdenticalBytesAcrossBlockSizes) {
  for (const std::uint32_t chunk : {64u, 4096u}) {
    const sim::Trace trace = synthetic_trace(333);
    store::SpillSink::Options options;
    options.chunk_samples = chunk;
    const fs::path row_path = temp_path("block_rows.glvt");
    store::SpillSink row_sink(row_path.string(), options);
    stream_trace(trace, row_sink);
    const std::string row_bytes = read_file_bytes(row_path);

    for (std::size_t v = 0; v < kBlockSlicings.size(); ++v) {
      const fs::path block_path =
          temp_path("block_" + std::to_string(chunk) + "_" +
                    std::to_string(v) + ".glvt");
      store::SpillSink block_sink(block_path.string(), options);
      stream_trace_blocks(trace, block_sink, kBlockSlicings[v]);
      EXPECT_EQ(read_file_bytes(block_path), row_bytes)
          << "chunk " << chunk << ", slicing " << v;
    }
  }
}

TEST(AppendBlock, BitPlaneSpillWritesIdenticalBytesAcrossBlockSizes) {
  const sim::Trace trace = synthetic_trace(333);
  const fs::path row_path = temp_path("planes_rows.glvt");
  store::DigitizingSink rows({"A", "GFP"}, 15.0, plane_spill(row_path));
  stream_trace(trace, rows);
  const std::string row_bytes = read_file_bytes(row_path);

  for (std::size_t v = 0; v < kBlockSlicings.size(); ++v) {
    const fs::path block_path =
        temp_path("planes_blocks_" + std::to_string(v) + ".glvt");
    store::DigitizingSink blocks({"A", "GFP"}, 15.0,
                                 plane_spill(block_path));
    stream_trace_blocks(trace, blocks, kBlockSlicings[v]);
    EXPECT_EQ(read_file_bytes(block_path), row_bytes) << "slicing " << v;
  }
}

TEST(AppendBlock, DigitizingSinkMatchesRowPathAcrossBlockSizes) {
  for (const std::size_t samples : {1u, 63u, 64u, 65u, 500u, 1000u}) {
    const sim::Trace trace = synthetic_trace(samples);
    store::DigitizingSink rows({"A", "B", "GFP"}, 15.0);
    stream_trace(trace, rows);
    for (std::size_t v = 0; v < kBlockSlicings.size(); ++v) {
      store::DigitizingSink blocks({"A", "B", "GFP"}, 15.0);
      stream_trace_blocks(trace, blocks, kBlockSlicings[v]);
      ASSERT_EQ(blocks.sample_count(), rows.sample_count());
      for (std::size_t p = 0; p < 3; ++p) {
        EXPECT_EQ(blocks.planes()[p], rows.planes()[p])
            << "samples " << samples << ", slicing " << v << ", plane " << p;
      }
    }
  }
}

TEST(AppendBlock, RowAndBlockDeliveriesInterleave) {
  const sim::Trace trace = synthetic_trace(200);
  store::DigitizingSink reference({"GFP"}, 15.0);
  stream_trace(trace, reference);

  store::DigitizingSink mixed({"GFP"}, 15.0);
  mixed.begin(trace.species_names());
  std::vector<double> row(trace.species_count());
  std::size_t offset = 0;
  // 10 single rows, then a 70-row block, then rows to 150, a tail block.
  const auto append_rows = [&](std::size_t count) {
    for (std::size_t k = 0; k < count; ++k, ++offset) {
      for (std::size_t s = 0; s < row.size(); ++s) {
        row[s] = trace.series(s)[offset];
      }
      mixed.append(trace.times()[offset], row);
    }
  };
  append_rows(10);
  stream_block(trace, mixed, offset, 70);
  offset += 70;
  append_rows(70);
  stream_block(trace, mixed, offset, trace.sample_count() - offset);
  mixed.finish();

  EXPECT_EQ(mixed.planes()[0], reference.planes()[0]);
}

TEST(AppendBlock, BaseClassFallbackDeliversRowwise) {
  const sim::Trace trace = synthetic_trace(150);
  RowOnlySink sink;
  stream_trace_blocks(trace, sink, {64, 3});
  expect_traces_identical(trace, sink.trace());
}

TEST(AppendBlock, RejectsColumnsShorterThanTheTimeColumn) {
  const sim::Trace trace = synthetic_trace(10);
  const std::span<const double> times(trace.times());
  std::vector<std::span<const double>> ragged(trace.species_count());
  for (std::size_t s = 0; s < trace.species_count(); ++s) {
    ragged[s] = std::span<const double>(trace.series(s))
                    .subspan(0, s == 1 ? 9 : 10);  // one short column
  }

  RowOnlySink base_fallback;
  base_fallback.begin(trace.species_names());
  EXPECT_THROW(base_fallback.append_block(times, ragged), InvalidArgument);

  store::MemorySink memory;
  memory.begin(trace.species_names());
  EXPECT_THROW(memory.append_block(times, ragged), InvalidArgument);

  store::DigitizingSink digitize({"B"}, 15.0);
  digitize.begin(trace.species_names());
  EXPECT_THROW(digitize.append_block(times, ragged), InvalidArgument);
}

// ------------------------------------------------------------ chunk replay

/// A trace holding every column shape the run-level replay handles, on
/// the sampler's grid (k · 0.5): `A` runs of 0 and exactly 15.0 (a run
/// value equal to a threshold), `Noisy` changing every sample (stored
/// raw), `Special` runs of NaN, -0.0, +0.0, exactly 10.0 and 20.0, `GFP`
/// RLE in the first half and raw in the second, and an untracked `Off`.
sim::Trace replay_trace(std::size_t samples) {
  const double specials[] = {std::numeric_limits<double>::quiet_NaN(), -0.0,
                             0.0, 10.0, 20.0};
  sim::Trace trace({"A", "Noisy", "Special", "GFP", "Off"});
  std::vector<double> row(5);
  for (std::size_t k = 0; k < samples; ++k) {
    row[0] = (k / 10) % 2 == 0 ? 0.0 : 15.0;
    row[1] = static_cast<double>((k * 7919) % 31);
    row[2] = specials[(k / 16) % 5];
    row[3] = k < samples / 2 ? (k / 100) % 2 == 0 ? 0.0 : 30.0
                             : static_cast<double>((k * 13) % 40);
    row[4] = static_cast<double>(k % 7);
    trace.append(static_cast<double>(k) * 0.5, row);
  }
  return trace;
}

TEST(Replay, BlockReplayMatchesRowReplay) {
  // The three replays into a digitizer — run-level (`replay` on a
  // DigitizingSink), generic (`replay` on it as a plain TraceSink) and
  // row-wise — must give the same planes and, through the spill tee, the
  // same bit-plane bytes, over v1/v2 files, several chunk capacities, a
  // ragged last chunk, raw next to RLE columns, a duplicate tracked id
  // and thresholds equal to stored run values.
  const std::vector<std::string> tracked = {"A", "Noisy", "Special", "GFP",
                                            "A"};
  for (const std::uint32_t version : {1u, 2u}) {
    for (const std::uint32_t capacity : {64u, 128u, 4096u}) {
      for (const std::size_t samples : {1000u, 8492u}) {
        const sim::Trace trace = replay_trace(samples);
        const std::string tag = "v" + std::to_string(version) + "_" +
                                std::to_string(capacity) + "_" +
                                std::to_string(samples);
        const fs::path path = temp_path("replay_" + tag + ".glvt");
        store::SpillSink::Options options;
        options.chunk_samples = capacity;
        options.sampling_period = 0.5;
        options.format_version = version;
        {
          store::SpillSink sink(path.string(), options);
          stream_trace(trace, sink);
        }
        store::SpillReader reader(path.string());

        store::MemorySink by_rows;
        reader.replay_rows(by_rows);
        store::MemorySink by_blocks;
        reader.replay(by_blocks);
        EXPECT_TRUE(traces_bit_identical(by_rows.trace(), by_blocks.trace()))
            << tag;
        EXPECT_TRUE(traces_bit_identical(trace, by_blocks.trace())) << tag;

        for (const double threshold : {10.0, 15.0}) {
          const std::string at = tag + "_" + util::format_double(threshold);
          const fs::path run_tee = temp_path("tee_runs_" + at + ".glvt");
          const fs::path generic_tee = temp_path("tee_generic_" + at + ".glvt");
          const fs::path row_tee = temp_path("tee_rows_" + at + ".glvt");
          store::DigitizingSink runs(tracked, threshold, plane_spill(run_tee));
          reader.replay(runs);
          store::DigitizingSink generic(tracked, threshold,
                                        plane_spill(generic_tee));
          reader.replay(static_cast<store::TraceSink&>(generic));
          store::DigitizingSink rows(tracked, threshold, plane_spill(row_tee));
          reader.replay_rows(rows);

          ASSERT_EQ(runs.sample_count(), samples) << at;
          for (std::size_t p = 0; p < tracked.size(); ++p) {
            const logic::BitStream expected =
                core::adc_packed(trace.series(tracked[p]), threshold);
            EXPECT_EQ(runs.planes()[p], expected) << at << ", plane " << p;
            EXPECT_EQ(generic.planes()[p], expected) << at << ", plane " << p;
            EXPECT_EQ(rows.planes()[p], expected) << at << ", plane " << p;
          }
          const std::string tee_bytes = read_file_bytes(run_tee);
          EXPECT_TRUE(tee_bytes == read_file_bytes(generic_tee)) << at;
          EXPECT_TRUE(tee_bytes == read_file_bytes(row_tee)) << at;
        }
      }
    }
  }
}

TEST(Replay, ChunkReplayOfGoldenFileIsByteIdentical) {
  // Replaying the checked-in golden spill chunk-by-chunk into a fresh
  // SpillSink with the golden's own parameters must reproduce the file
  // byte for byte — blocks cross the whole write path (chunking, RLE/raw
  // section choice, index, header patch) without perturbing a bit.
  const fs::path golden_path = fs::path(GLVA_GOLDEN_DIR) / "spill_fixed.glvt";
  store::SpillReader reader(golden_path.string());

  const fs::path replayed_path = temp_path("golden_replayed.glvt");
  store::SpillSink::Options options;
  options.chunk_samples = reader.chunk_capacity();
  options.seed = reader.seed();
  options.sampling_period = reader.sampling_period();
  store::SpillSink sink(replayed_path.string(), options);
  reader.replay(sink);

  EXPECT_TRUE(read_file_bytes(replayed_path) ==
              read_file_bytes(golden_path))
      << "block-path chunk replay drifted from the golden .glvt bytes";
}

// ------------------------------------------- experiment-level bit-identity

TEST(ExperimentSinks, AllThreeSinksProduceBitIdenticalAnalyses) {
  const auto spec = circuits::CircuitRepository::build("myers_and");
  core::ExperimentConfig config;
  config.total_time = 400.0;
  config.seed = 11;

  const auto memory = core::run_experiment(spec, config);

  config.sink = store::SinkKind::kSpill;
  config.spill_dir = (fs::path(::testing::TempDir()) / "exp_spill").string();
  const auto spill = core::run_experiment(spec, config);

  config.sink = store::SinkKind::kDigitize;
  const auto digitize = core::run_experiment(spec, config);

  expect_extractions_identical(memory.extraction, spill.extraction);
  expect_extractions_identical(memory.extraction, digitize.extraction);
  EXPECT_EQ(memory.verification.matches, spill.verification.matches);
  EXPECT_EQ(memory.verification.matches, digitize.verification.matches);
  EXPECT_EQ(memory.verification.wrong_state_count(),
            digitize.verification.wrong_state_count());

  // The spill path re-materializes the identical trace and leaves the
  // .glvt behind; the digitize path never materializes one.
  expect_traces_identical(memory.sweep.trace, spill.sweep.trace);
  EXPECT_EQ(digitize.sweep.trace.sample_count(), 0u);
  EXPECT_TRUE(fs::exists(fs::path(config.spill_dir) /
                         (spec.name + "-s11.glvt")));
}

TEST(ExperimentSinks, SpillRequiresDirectory) {
  const auto spec = circuits::CircuitRepository::build("myers_not");
  core::ExperimentConfig config;
  config.total_time = 100.0;
  config.sink = store::SinkKind::kSpill;
  EXPECT_THROW((void)core::run_experiment(spec, config), InvalidArgument);
}

// Wider than any catalog circuit: all three sinks run the 128-combination
// sweep through the one analysis path (the digitize sink used to refuse
// more than 6 inputs).
TEST(ExperimentSinks, SevenInputCircuitIsBitIdenticalAcrossSinks) {
  const circuits::CircuitSpec spec = testutil::nor_tree_spec(7);
  core::ExperimentConfig config;
  config.total_time = 128.0 * 60.0;
  config.seed = 5;

  const auto memory = core::run_experiment(spec, config);
  ASSERT_EQ(memory.extraction.variation.records.size(), 128u);

  config.sink = store::SinkKind::kDigitize;
  const auto digitize = core::run_experiment(spec, config);
  expect_extractions_identical(memory.extraction, digitize.extraction);
  EXPECT_EQ(memory.verification.wrong_state_count(),
            digitize.verification.wrong_state_count());

  config.sink = store::SinkKind::kSpill;
  config.spill_dir = (fs::path(::testing::TempDir()) / "wide_spill").string();
  expect_extractions_identical(memory.extraction,
                               core::run_experiment(spec, config).extraction);
}

TEST(ExperimentSinks, EnsembleSpillIsJobCountInvariantWithPerReplicateFiles) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  core::ExperimentConfig config;
  config.total_time = 300.0;
  config.seed = 42;
  config.sink = store::SinkKind::kSpill;
  config.spill_dir =
      (fs::path(::testing::TempDir()) / "ensemble_spill").string();

  const auto serial = core::run_ensemble(spec, config, 3, 1);
  const auto parallel = core::run_ensemble(spec, config, 3, 8);
  EXPECT_EQ(core::render_ensemble_summary(serial),
            core::render_ensemble_summary(parallel));

  for (std::size_t r = 0; r < 3; ++r) {
    EXPECT_TRUE(fs::exists(
        fs::path(config.spill_dir) /
        (spec.name + "-s42-r" + std::to_string(r) + ".glvt")))
        << "replicate " << r;
  }
}

TEST(ExperimentSinks, DigitizeSinkIsJobCountInvariant) {
  const auto spec = circuits::CircuitRepository::build("myers_and");
  core::ExperimentConfig config;
  config.total_time = 300.0;
  config.seed = 5;
  config.sink = store::SinkKind::kDigitize;

  const auto serial = core::run_ensemble(spec, config, 3, 1);
  const auto parallel = core::run_ensemble(spec, config, 3, 8);
  EXPECT_EQ(core::render_ensemble_summary(serial),
            core::render_ensemble_summary(parallel));
}

// ----------------------------------------------- ensemble confidence (CI)

TEST(EnsembleConfidence, MatchesReplicateStatistics) {
  const auto spec = circuits::CircuitRepository::build("myers_not");
  core::ExperimentConfig config;
  config.total_time = 300.0;
  config.seed = 3;

  // The replicates stream through the ordered commit observer — fold the
  // same statistics by hand and compare against the reduced ensemble.
  util::RunningStats pfobe;
  util::RunningStats wrong;
  const auto ensemble = core::run_ensemble(
      spec, config, 4, 1,
      [&](std::size_t, const core::ExperimentResult& replicate) {
        pfobe.add(replicate.extraction.fitness());
        wrong.add(
            static_cast<double>(replicate.verification.wrong_state_count()));
      });
  EXPECT_DOUBLE_EQ(ensemble.pfobe.mean, pfobe.mean());
  EXPECT_DOUBLE_EQ(ensemble.pfobe.stddev, pfobe.stddev());
  EXPECT_DOUBLE_EQ(ensemble.pfobe.half_width,
                   util::normal_ci95_half_width(pfobe.stddev(), 4));
  // mean_confidence is exactly this projection of a Welford accumulator.
  const core::MeanConfidence projected = core::mean_confidence(pfobe);
  EXPECT_DOUBLE_EQ(projected.mean, ensemble.pfobe.mean);
  EXPECT_DOUBLE_EQ(projected.stddev, ensemble.pfobe.stddev);
  EXPECT_DOUBLE_EQ(projected.half_width, ensemble.pfobe.half_width);
  EXPECT_DOUBLE_EQ(ensemble.wrong_states.mean, wrong.mean());
  EXPECT_DOUBLE_EQ(ensemble.pfobe.lower(),
                   ensemble.pfobe.mean - ensemble.pfobe.half_width);

  const std::string summary = core::render_ensemble_summary(ensemble);
  EXPECT_NE(summary.find("95% normal CI"), std::string::npos);
  const std::string csv = core::ensemble_confidence_csv(ensemble);
  EXPECT_NE(csv.find("pfobe_percent"), std::string::npos);
  EXPECT_NE(csv.find("wrong_states"), std::string::npos);
}

TEST(EnsembleConfidence, SingleReplicateHasZeroHalfWidth) {
  EXPECT_EQ(util::normal_ci95_half_width(1.5, 1), 0.0);
  EXPECT_GT(util::normal_ci95_half_width(1.5, 4), 0.0);
}

}  // namespace
