#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "util/errors.h"

/// The `.glvt` ("GLVA trace") on-disk format shared by `SpillSink`
/// (writer) and `SpillReader` (reader). One file is one uniformly sampled
/// multi-species trace, stored as a fixed header followed by fixed-capacity
/// chunks and a trailing chunk index:
///
///   header   magic "GLVT", version, seed, sampling_period,
///            species_count, chunk_capacity, sample_count, chunk_count,
///            index_offset, [v2: content_kind, threshold], species names
///   chunk i  "CHNK", samples n, then one *section* per column:
///            times, species 0, species 1, ... (each raw, RLE, or grid)
///   index    chunk_count × u64 absolute file offsets (at index_offset)
///
/// Every chunk except the last holds exactly `chunk_capacity` samples, so
/// chunk i starts at sample i · chunk_capacity — random access needs no
/// per-chunk bookkeeping beyond the offset index. `chunk_capacity` is a
/// multiple of 64 so replayed chunks stay word-aligned for the bit-packed
/// analysis stage. The three patched header fields (sample_count,
/// chunk_count, index_offset) are zero while the writer is live;
/// index_offset == 0 is the "unfinished or truncated" sentinel the reader
/// rejects. Scalars are stored in the host's native byte order (the
/// supported targets are little-endian); doubles are stored bit-exactly,
/// which is what makes a spilled trace byte-for-byte reproducible and a
/// re-materialized one bit-identical to the memory path.
///
/// Version 2 extends the header with a content kind and ADC threshold and
/// adds two section encodings: `kGrid` (a sampler-written uniform time
/// grid collapses to its start time — the whole column is implied by
/// `sample_index · sampling_period`) and `kWords` (packed 64-bit
/// `BitStream` words — the chunk payload of a *digitized* file, written by
/// `DigitizingSink` and handed back to the packed analyzer with no
/// re-thresholding). Version 1 files carry neither and still decode byte
/// for byte; writers can emit either version (`SpillSink::Options`).
///
/// See `docs/STORAGE.md` for the full layout diagram.
namespace glva::store::glvt {

inline constexpr char kMagic[4] = {'G', 'L', 'V', 'T'};
inline constexpr std::uint32_t kVersion = 2;
/// Oldest version the reader still decodes (byte-identically).
inline constexpr std::uint32_t kMinVersion = 1;
/// "CHNK" read as a little-endian u32.
inline constexpr std::uint32_t kChunkMagic = 0x4B4E4843u;
/// Default samples per chunk; must be a multiple of 64 (one chunk is then
/// an integral number of BitStream words when replayed into the digitizer).
inline constexpr std::uint32_t kDefaultChunkSamples = 4096;
/// Byte length of the v1 fixed header prefix (everything before the names).
inline constexpr std::size_t kHeaderFixedBytes = 56;
/// The v2 prefix appends content_kind (u32) and threshold (f64).
inline constexpr std::size_t kHeaderFixedBytesV2 = 68;
/// File offsets of the three fields patched on finish (same in v1 and v2:
/// the v2 additions sit after index_offset).
inline constexpr std::size_t kSampleCountOffset = 32;
inline constexpr std::size_t kChunkCountOffset = 40;
inline constexpr std::size_t kIndexOffsetOffset = 48;

/// What a v2 file's chunk sections carry. `kAnalog` files hold one f64
/// column per species (plus times); `kBits` files hold one packed bit
/// plane per tracked species, thresholded at the header's threshold — the
/// spilled form of `DigitizingSink`'s planes. v1 files are always analog.
enum class ContentKind : std::uint32_t { kAnalog = 0, kBits = 1 };

/// Per-section payload encodings. RLE runs over *bit-identical* doubles
/// (compared as their 8-byte patterns, so NaNs and signed zeros round-trip
/// exactly): clamped input species and low-copy-number amounts compress by
/// orders of magnitude. Times — a strictly increasing grid — never RLE;
/// in v1 they land raw (8 bytes/sample), in v2 a sampler-written uniform
/// grid collapses to `kGrid` (8 bytes/chunk). `kWords` is the packed
/// bit-plane payload of a `kBits` file; v2-only, like `kGrid`.
enum class SectionEncoding : std::uint8_t {
  kRaw = 0,
  kRle = 1,
  kGrid = 2,
  kWords = 3
};

// Little bump allocators over std::string (the chunk build buffer).
void append_u32(std::string& out, std::uint32_t value);
void append_u64(std::string& out, std::uint64_t value);
void append_f64(std::string& out, double value);

/// Encode one column section: encoding tag (u8) + payload byte count
/// (u32) + payload. Picks RLE — repeated (count u32, bits u64) runs —
/// whenever it is strictly smaller than the raw 8-byte-per-sample layout.
void encode_section(const std::vector<double>& values, std::string& out);

namespace detail {

/// Read one native-order scalar at `offset`, advancing it; throws
/// glva::StorageError("<what>: truncated section") past the buffer end.
template <typename T>
T read_pod(std::string_view buffer, std::size_t& offset, const char* what) {
  if (offset > buffer.size() || buffer.size() - offset < sizeof(T)) {
    throw StorageError(std::string(what) + ": truncated section");
  }
  T value{};
  std::memcpy(&value, buffer.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

/// Read a section's tag and payload byte count; returns the tag and sets
/// `payload_end`. Throws glva::StorageError when the header or the payload
/// it announces runs past the buffer.
std::uint8_t read_section_header(std::string_view buffer, std::size_t& offset,
                                 std::size_t& payload_end);

}  // namespace detail

/// Validating walk over one column section of exactly `count` samples,
/// advancing `offset` past it without materializing a single double: an
/// RLE section calls `on_run(position, length, value)` once per run, in
/// order (runs are non-empty and tile [0, count)); a raw section calls
/// `on_raw(payload)` once with its `count · 8` payload bytes (a view into
/// `buffer`, so not necessarily 8-byte aligned — copy before reading
/// doubles). Throws glva::StorageError on exactly what `decode_section`
/// rejects, with the same messages — the one place those checks live. A
/// run can be visited before a later run of the same section is rejected.
template <typename OnRun, typename OnRaw>
void walk_section(std::string_view buffer, std::size_t& offset,
                  std::size_t count, OnRun&& on_run, OnRaw&& on_raw) {
  std::size_t payload_end = 0;
  const std::uint8_t tag =
      detail::read_section_header(buffer, offset, payload_end);
  if (tag == static_cast<std::uint8_t>(SectionEncoding::kRaw)) {
    if (payload_end - offset != count * sizeof(double)) {
      throw StorageError("glvt section: raw payload size mismatch");
    }
    on_raw(buffer.substr(offset, payload_end - offset));
    offset = payload_end;
  } else if (tag == static_cast<std::uint8_t>(SectionEncoding::kRle)) {
    // Whole runs only, checked once: the loop then reads each run with no
    // per-field bounds check.
    constexpr std::size_t kRunBytes = sizeof(std::uint32_t) + sizeof(double);
    if ((payload_end - offset) % kRunBytes != 0) {
      throw StorageError("glvt section: payload size mismatch");
    }
    std::size_t position = 0;
    const char* const end = buffer.data() + payload_end;
    for (const char* at = buffer.data() + offset; at != end; at += kRunBytes) {
      std::uint32_t run = 0;
      double value = 0.0;
      std::memcpy(&run, at, sizeof run);
      std::memcpy(&value, at + sizeof run, sizeof value);
      if (run == 0 || run > count - position) {
        throw StorageError("glvt section: RLE run overflows sample count");
      }
      on_run(position, static_cast<std::size_t>(run), value);
      position += run;
    }
    offset = payload_end;
    if (position != count) {
      throw StorageError("glvt section: RLE runs do not cover the chunk");
    }
  } else {
    throw StorageError("glvt section: unknown encoding tag");
  }
  if (offset != payload_end) {
    throw StorageError("glvt section: payload size mismatch");
  }
}

/// Validate one column section of exactly `count` samples and append its
/// ADC bits — bit j = (value_j >= threshold), the comparison of
/// `core::adc`, so NaN reads 0 — to `words` as ceil(count / 64) words,
/// LSB-first with zero tail bits; advances `offset` past the section. One
/// pass, no decoded doubles: an RLE run costs one compare, runs on the
/// same side of the threshold merge, and each change of the bit is one
/// whole-word range fill; a raw section goes through the dispatched
/// `pack_threshold_block` in batches. Built on `walk_section`, so it
/// accepts and rejects exactly what `decode_section` does, with the same
/// messages; `words` grows only as runs (or a raw payload) are validated,
/// so a crafted `count` cannot allocate ahead of the bytes that back it.
/// On a throw, `words` may hold part of the section.
void threshold_section(std::string_view buffer, std::size_t& offset,
                       std::size_t count, double threshold,
                       std::vector<std::uint64_t>& words);

/// Decode one section of exactly `count` doubles from `buffer` starting at
/// `offset`; advances `offset` past the section. Throws glva::StorageError
/// on a truncated payload, an unknown encoding tag, or an RLE stream whose
/// run lengths do not sum to `count`. (`buffer` is a view so chunk bytes
/// can come from a read buffer or straight from a memory-mapped file.)
[[nodiscard]] std::vector<double> decode_section(std::string_view buffer,
                                                 std::size_t& offset,
                                                 std::size_t count);

/// Allocation-reusing form of `decode_section`: `values` is cleared and
/// refilled in place (raw sections land as one memcpy), so a chunked
/// replay that hands the same column vectors back per chunk decodes with
/// no per-chunk allocations after the first. Same error contract.
void decode_section_into(std::string_view buffer, std::size_t& offset,
                         std::size_t count, std::vector<double>& values);

/// Encode a v2 time column. When every value is bit-identical to
/// `(first_sample + j) · sampling_period` — exactly how `sim::TraceSampler`
/// computes its grid — the column collapses to a `kGrid` section whose
/// 8-byte payload is the chunk's start time t0 = first_sample ·
/// sampling_period (redundant with the chunk index, kept as a corruption
/// check); any other producer falls back to `encode_section`. Returns true
/// when the grid form was used (the ~10× size win `spill.bytes_saved`
/// counts).
bool encode_time_section(const std::vector<double>& times,
                         std::uint64_t first_sample, double sampling_period,
                         std::string& out);

/// Validate one time column of a chunk starting at sample `first_sample`
/// without materializing it, advancing `offset` past it: in a v2 file
/// (`version >= 2`) a `kGrid` section gets `decode_time_section_into`'s
/// checks (payload size, stored t0), every other section — v1 times and
/// v2 raw/RLE times — `walk_section`'s structural checks. Accepts exactly
/// what the matching decode accepts.
void check_time_section(std::string_view buffer, std::size_t& offset,
                        std::size_t count, std::uint64_t first_sample,
                        double sampling_period, std::uint32_t version);

/// Decode a v2 time column: a `kGrid` section is reconstructed as
/// `(first_sample + j) · sampling_period` without touching any per-sample
/// bytes (after validating the stored t0 bit-matches); raw/RLE sections
/// delegate to `decode_section_into`. Throws glva::StorageError on a
/// malformed grid payload or a t0 that disagrees with the chunk's
/// position — a mis-indexed or corrupt grid chunk, not a decodable one.
void decode_time_section_into(std::string_view buffer, std::size_t& offset,
                              std::size_t count, std::uint64_t first_sample,
                              double sampling_period,
                              std::vector<double>& values);

/// Encode one bit-plane section of a `kBits` chunk: a `kWords` tag and the
/// plane's packed words verbatim (`word_count` = ceil(samples / 64), tail
/// bits zero per the BitStream invariant) — one memcpy from
/// `BitStream::words()`, no per-sample work.
void encode_words_section(const std::uint64_t* words, std::size_t word_count,
                          std::string& out);

/// Decode one `kWords` section of exactly `word_count` words, *appending*
/// to `words` (planes accumulate across chunks; chunk capacities are
/// multiples of 64, so every chunk boundary is a word boundary). Throws
/// glva::StorageError on a non-kWords tag or a payload that is not exactly
/// `word_count · 8` bytes.
void decode_words_section(std::string_view buffer, std::size_t& offset,
                          std::size_t word_count,
                          std::vector<std::uint64_t>& words);

}  // namespace glva::store::glvt
