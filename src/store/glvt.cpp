#include "store/glvt.h"

#include <cstring>

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
