#include "store/glvt.h"

#include <algorithm>
#include <cstring>

#include "logic/word_pack.h"
#include "util/errors.h"

namespace glva::store::glvt {

namespace {

template <typename T>
void append_pod(std::string& out, T value) {
  char bytes[sizeof(T)];
  std::memcpy(bytes, &value, sizeof(T));
  out.append(bytes, sizeof(T));
}

std::uint64_t double_bits(double value) {
  std::uint64_t bits;
  std::memcpy(&bits, &value, sizeof bits);
  return bits;
}

/// When the section at `offset` is a `kGrid` time section, validate it
/// against the chunk position, advance past it and return true; otherwise
/// leave `offset` alone and return false.
bool skip_grid_section(std::string_view buffer, std::size_t& offset,
                       std::uint64_t first_sample, double sampling_period) {
  if (offset >= buffer.size() ||
      buffer[offset] != static_cast<char>(SectionEncoding::kGrid)) {
    return false;
  }
  ++offset;  // tag
  const auto payload_bytes =
      detail::read_pod<std::uint32_t>(buffer, offset, "glvt grid section");
  if (payload_bytes != sizeof(double)) {
    throw StorageError("glvt grid section: payload size mismatch");
  }
  const auto t0 = detail::read_pod<double>(buffer, offset, "glvt grid section");
  const double expected = static_cast<double>(first_sample) * sampling_period;
  if (double_bits(t0) != double_bits(expected)) {
    throw StorageError(
        "glvt grid section: start time disagrees with the chunk position");
  }
  return true;
}

}  // namespace

namespace detail {

std::uint8_t read_section_header(std::string_view buffer, std::size_t& offset,
                                 std::size_t& payload_end) {
  const auto tag = read_pod<std::uint8_t>(buffer, offset, "glvt section");
  const auto payload_bytes =
      read_pod<std::uint32_t>(buffer, offset, "glvt section");
  if (buffer.size() - offset < payload_bytes) {
    throw StorageError("glvt section: truncated payload");
  }
  payload_end = offset + payload_bytes;
  return tag;
}

}  // namespace detail

void append_u32(std::string& out, std::uint32_t value) {
  append_pod(out, value);
}
void append_u64(std::string& out, std::uint64_t value) {
  append_pod(out, value);
}
void append_f64(std::string& out, double value) { append_pod(out, value); }

void encode_section(const std::vector<double>& values, std::string& out) {
  // One pass to size the RLE alternative: runs of bit-identical doubles.
  std::size_t runs = 0;
  for (std::size_t k = 0; k < values.size();) {
    const std::uint64_t bits = double_bits(values[k]);
    std::size_t j = k + 1;
    while (j < values.size() && double_bits(values[j]) == bits) ++j;
    ++runs;
    k = j;
  }
  const std::size_t raw_bytes = values.size() * sizeof(double);
  const std::size_t rle_bytes = runs * (sizeof(std::uint32_t) + sizeof(double));

  if (rle_bytes < raw_bytes) {
    out.push_back(static_cast<char>(SectionEncoding::kRle));
    append_u32(out, static_cast<std::uint32_t>(rle_bytes));
    for (std::size_t k = 0; k < values.size();) {
      const std::uint64_t bits = double_bits(values[k]);
      std::size_t j = k + 1;
      while (j < values.size() && double_bits(values[j]) == bits) ++j;
      append_u32(out, static_cast<std::uint32_t>(j - k));
      append_u64(out, bits);
      k = j;
    }
  } else {
    out.push_back(static_cast<char>(SectionEncoding::kRaw));
    append_u32(out, static_cast<std::uint32_t>(raw_bytes));
    for (const double value : values) append_f64(out, value);
  }
}

void decode_section_into(std::string_view buffer, std::size_t& offset,
                         std::size_t count, std::vector<double>& values) {
  values.clear();
  walk_section(
      buffer, offset, count,
      [&](std::size_t position, std::size_t length, double value) {
        if (position == 0) values.reserve(count);  // runs fill `count`
        values.insert(values.end(), length, value);
      },
      [&](std::string_view payload) {
        // Doubles are stored bit-exactly in file order: one bulk copy.
        values.resize(count);
        std::memcpy(values.data(), payload.data(), payload.size());
      });
}

namespace {

/// Appends ADC bits to a word vector: whole words as they complete, the
/// partial last word on `finish`.
class WordAppender {
public:
  explicit WordAppender(std::vector<std::uint64_t>& words) : words_(words) {}

  /// Append `length` copies of one bit (`bits` all zeros or all ones):
  /// whole-word stores for everything past the pending word.
  void fill(std::size_t length, std::uint64_t bits) {
    if (length < kWordBits - bit_) {  // ends inside the pending word
      pending_ |= (bits & ((std::uint64_t{1} << length) - 1)) << bit_;
      bit_ += length;
      return;
    }
    words_.push_back(pending_ | bits << bit_);
    length -= kWordBits - bit_;
    if (length >= kWordBits) {
      words_.insert(words_.end(), length / kWordBits, bits);
    }
    bit_ = length % kWordBits;
    pending_ = bits & ((std::uint64_t{1} << bit_) - 1);
  }

  void finish() {
    if (bit_ != 0) words_.push_back(pending_);
  }

private:
  static constexpr std::size_t kWordBits = 64;
  std::vector<std::uint64_t>& words_;
  std::uint64_t pending_ = 0;  ///< the partial word the next bits continue
  std::size_t bit_ = 0;        ///< bits already in `pending_`
};

}  // namespace

void threshold_section(std::string_view buffer, std::size_t& offset,
                       std::size_t count, double threshold,
                       std::vector<std::uint64_t>& words) {
  constexpr std::size_t kWordBits = 64;
  WordAppender out(words);
  // Consecutive runs on the same side of the threshold merge into one
  // word-range fill, so a run costs one compare unless the bit flips.
  std::uint64_t level = 0;  // the bit of the samples held back
  std::size_t held = 0;     // samples at `level` not yet appended
  walk_section(
      buffer, offset, count,
      [&](std::size_t, std::size_t length, double value) {
        const std::uint64_t fill = value >= threshold ? ~std::uint64_t{0} : 0;
        if (fill != level) {
          out.fill(held, level);
          level = fill;
          held = 0;
        }
        held += length;
      },
      [&](std::string_view payload) {
        // Copied out in batches: mapped payload bytes need not be 8-byte
        // aligned.
        constexpr std::size_t kBatchWords = 8;
        double batch[kBatchWords * kWordBits];
        const std::size_t full = count / kWordBits;
        const std::size_t rem = count % kWordBits;
        const std::size_t start = words.size();
        words.resize(start + full + (rem != 0 ? 1 : 0));
        std::uint64_t* dest = words.data() + start;
        const logic::simd::KernelSet& kernels = logic::simd::active();
        for (std::size_t w = 0; w < full;) {
          const std::size_t take = std::min(kBatchWords, full - w);
          std::memcpy(batch, payload.data() + w * kWordBits * sizeof(double),
                      take * kWordBits * sizeof(double));
          kernels.pack_threshold_block(batch, take, threshold, dest + w);
          w += take;
        }
        if (rem != 0) {
          std::memcpy(batch,
                      payload.data() + full * kWordBits * sizeof(double),
                      rem * sizeof(double));
          dest[full] = logic::pack_threshold_bits(batch, rem, threshold);
        }
      });
  out.fill(held, level);
  out.finish();
}

std::vector<double> decode_section(std::string_view buffer,
                                   std::size_t& offset, std::size_t count) {
  std::vector<double> values;
  decode_section_into(buffer, offset, count, values);
  return values;
}

bool encode_time_section(const std::vector<double>& times,
                         std::uint64_t first_sample, double sampling_period,
                         std::string& out) {
  bool grid = sampling_period > 0.0 && !times.empty();
  for (std::size_t j = 0; grid && j < times.size(); ++j) {
    // Bit comparison, not ==: the grid claim must survive replay exactly,
    // and a NaN or -0.0 anywhere must force the fallback.
    const double expected =
        static_cast<double>(first_sample + j) * sampling_period;
    grid = double_bits(times[j]) == double_bits(expected);
  }
  if (!grid) {
    encode_section(times, out);
    return false;
  }
  out.push_back(static_cast<char>(SectionEncoding::kGrid));
  append_u32(out, sizeof(double));
  append_f64(out, static_cast<double>(first_sample) * sampling_period);
  return true;
}

void check_time_section(std::string_view buffer, std::size_t& offset,
                        std::size_t count, std::uint64_t first_sample,
                        double sampling_period, std::uint32_t version) {
  if (version >= 2 &&
      skip_grid_section(buffer, offset, first_sample, sampling_period)) {
    return;
  }
  walk_section(
      buffer, offset, count, [](std::size_t, std::size_t, double) {},
      [](std::string_view) {});
}

void decode_time_section_into(std::string_view buffer, std::size_t& offset,
                              std::size_t count, std::uint64_t first_sample,
                              double sampling_period,
                              std::vector<double>& values) {
  if (!skip_grid_section(buffer, offset, first_sample, sampling_period)) {
    decode_section_into(buffer, offset, count, values);
    return;
  }
  values.clear();
  values.reserve(count);
  for (std::size_t j = 0; j < count; ++j) {
    values.push_back(static_cast<double>(first_sample + j) * sampling_period);
  }
}

void encode_words_section(const std::uint64_t* words, std::size_t word_count,
                          std::string& out) {
  out.push_back(static_cast<char>(SectionEncoding::kWords));
  const std::size_t payload_bytes = word_count * sizeof(std::uint64_t);
  append_u32(out, static_cast<std::uint32_t>(payload_bytes));
  const std::size_t start = out.size();
  out.resize(start + payload_bytes);
  std::memcpy(out.data() + start, words, payload_bytes);
}

void decode_words_section(std::string_view buffer, std::size_t& offset,
                          std::size_t word_count,
                          std::vector<std::uint64_t>& words) {
  const auto tag =
      detail::read_pod<std::uint8_t>(buffer, offset, "glvt words section");
  if (tag != static_cast<std::uint8_t>(SectionEncoding::kWords)) {
    throw StorageError("glvt words section: unexpected encoding tag");
  }
  const auto payload_bytes =
      detail::read_pod<std::uint32_t>(buffer, offset, "glvt words section");
  if (payload_bytes != word_count * sizeof(std::uint64_t)) {
    throw StorageError("glvt words section: payload size mismatch");
  }
  if (buffer.size() - offset < payload_bytes) {
    throw StorageError("glvt words section: truncated payload");
  }
  const std::size_t start = words.size();
  words.resize(start + word_count);
  std::memcpy(words.data() + start, buffer.data() + offset, payload_bytes);
  offset += payload_bytes;
}

}  // namespace glva::store::glvt
