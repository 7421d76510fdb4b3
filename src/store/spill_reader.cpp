#include "store/spill_reader.h"

#include <algorithm>
#include <cstring>
#include <span>

#if defined(__unix__) || defined(__APPLE__)
#define GLVA_SPILL_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>
#endif

#include "store/glvt.h"
#include "store/memory_sink.h"
#include "util/csv.h"
#include "util/errors.h"
#include "util/string_util.h"

namespace glva::store {

namespace {

std::string read_bytes(std::ifstream& file, std::size_t count,
                       const char* what) {
  std::string buffer(count, '\0');
  file.read(buffer.data(), static_cast<std::streamsize>(count));
  if (static_cast<std::size_t>(file.gcount()) != count) {
    throw StorageError(std::string("SpillReader: truncated ") + what);
  }
  return buffer;
}

template <typename T>
T take(std::string_view buffer, std::size_t& offset) {
  T value;
  std::memcpy(&value, buffer.data() + offset, sizeof(T));
  offset += sizeof(T);
  return value;
}

}  // namespace

SpillReader::SpillReader(std::string path) : path_(std::move(path)) {
  file_.open(path_, std::ios::binary);
  if (!file_) {
    throw StorageError("SpillReader: cannot open spill file: " + path_);
  }
  file_.seekg(0, std::ios::end);
  const auto file_size = static_cast<std::uint64_t>(file_.tellg());
  file_.seekg(0);

  if (file_size < glvt::kHeaderFixedBytes) {
    throw StorageError("SpillReader: truncated header: " + path_);
  }
  const std::string header =
      read_bytes(file_, glvt::kHeaderFixedBytes, "header");
  std::size_t offset = 0;
  if (std::memcmp(header.data(), glvt::kMagic, sizeof glvt::kMagic) != 0) {
    throw StorageError("SpillReader: not a .glvt file (bad magic): " + path_);
  }
  offset += sizeof glvt::kMagic;
  version_ = take<std::uint32_t>(header, offset);
  if (version_ < glvt::kMinVersion || version_ > glvt::kVersion) {
    throw StorageError("SpillReader: unsupported .glvt version " +
                       std::to_string(version_) + ": " + path_);
  }
  seed_ = take<std::uint64_t>(header, offset);
  sampling_period_ = take<double>(header, offset);
  const auto species_count = take<std::uint32_t>(header, offset);
  chunk_capacity_ = take<std::uint32_t>(header, offset);
  sample_count_ = take<std::uint64_t>(header, offset);
  const auto chunk_count = take<std::uint64_t>(header, offset);
  index_offset_ = take<std::uint64_t>(header, offset);

  if (version_ >= 2) {
    // The v2 header tail: what the chunks carry, and the ADC threshold a
    // bit-plane file was digitized at.
    if (file_size < glvt::kHeaderFixedBytesV2) {
      throw StorageError("SpillReader: truncated header: " + path_);
    }
    const std::string tail = read_bytes(
        file_, glvt::kHeaderFixedBytesV2 - glvt::kHeaderFixedBytes, "header");
    std::size_t tail_offset = 0;
    const auto content = take<std::uint32_t>(tail, tail_offset);
    if (content > static_cast<std::uint32_t>(glvt::ContentKind::kBits)) {
      throw StorageError("SpillReader: unknown content kind: " + path_);
    }
    content_kind_ = static_cast<glvt::ContentKind>(content);
    threshold_ = take<double>(tail, tail_offset);
    if (content_kind_ == glvt::ContentKind::kBits && !(threshold_ > 0.0)) {
      throw StorageError(
          "SpillReader: bit-plane file with a non-positive threshold: " +
          path_);
    }
  }

  if (index_offset_ == 0) {
    throw StorageError(
        "SpillReader: unfinished or truncated spill file (no chunk index): " +
        path_);
  }
  if (chunk_capacity_ == 0 || chunk_capacity_ % 64 != 0) {
    throw StorageError("SpillReader: corrupt chunk capacity: " + path_);
  }
  // Division, not multiplication: a crafted chunk_count near 2^61 would
  // wrap `chunk_count * 8` and slip past the fit check, then blow up in
  // reserve() below with the wrong exception type.
  if (index_offset_ > file_size ||
      (file_size - index_offset_) % sizeof(std::uint64_t) != 0 ||
      chunk_count != (file_size - index_offset_) / sizeof(std::uint64_t)) {
    throw StorageError("SpillReader: chunk index does not fit the file: " +
                       path_);
  }
  // open_chunk ties the last chunk to sample_count; a file without chunks
  // has nothing to tie, so its count must already be zero.
  if (chunk_count == 0 && sample_count_ != 0) {
    throw StorageError(
        "SpillReader: chunk samples do not cover the header count: " + path_);
  }

  // Every name spends at least its 4-byte length: bound the reserve by
  // the file before trusting the count with an allocation.
  if (species_count > file_size / sizeof(std::uint32_t)) {
    throw StorageError("SpillReader: corrupt species count: " + path_);
  }
  species_names_.reserve(species_count);
  for (std::uint32_t s = 0; s < species_count; ++s) {
    const std::string len_bytes =
        read_bytes(file_, sizeof(std::uint32_t), "species name");
    std::size_t len_offset = 0;
    const auto len = take<std::uint32_t>(len_bytes, len_offset);
    // Bound the allocation before read_bytes trusts the length field.
    if (len > file_size) {
      throw StorageError("SpillReader: corrupt species-name length: " +
                         path_);
    }
    species_names_.push_back(read_bytes(file_, len, "species name"));
  }

  file_.seekg(static_cast<std::streamoff>(index_offset_));
  const std::string index =
      read_bytes(file_, chunk_count * sizeof(std::uint64_t), "chunk index");
  offset = 0;
  chunk_offsets_.reserve(chunk_count);
  for (std::uint64_t c = 0; c < chunk_count; ++c) {
    const auto chunk_offset = take<std::uint64_t>(index, offset);
    if (chunk_offset >= index_offset_) {
      throw StorageError("SpillReader: chunk offset past the index: " + path_);
    }
    chunk_offsets_.push_back(chunk_offset);
  }

#if GLVA_SPILL_MMAP
  // Map the (validated) file read-only: chunk decodes then run zero-copy
  // out of the page cache. Failure is not an error — reads fall back to
  // the ifstream path byte for byte.
  if (file_size > 0) {
    const int fd = ::open(path_.c_str(), O_RDONLY);
    if (fd >= 0) {
      void* map = ::mmap(nullptr, static_cast<std::size_t>(file_size),
                         PROT_READ, MAP_PRIVATE, fd, 0);
      ::close(fd);  // the mapping outlives the descriptor
      if (map != MAP_FAILED) {
        map_ = static_cast<const char*>(map);
        map_size_ = static_cast<std::size_t>(file_size);
      }
    }
  }
#endif
}

SpillReader::~SpillReader() {
#if GLVA_SPILL_MMAP
  if (map_ != nullptr) ::munmap(const_cast<char*>(map_), map_size_);
#endif
}

std::pair<std::uint64_t, std::uint64_t> SpillReader::chunk_span(
    std::size_t index) const {
  const std::uint64_t begin = chunk_offsets_[index];
  const std::uint64_t end = index + 1 < chunk_offsets_.size()
                                ? chunk_offsets_[index + 1]
                                : index_offset_;
  if (end <= begin) {
    throw StorageError("SpillReader: corrupt chunk index: " + path_);
  }
  return {begin, end};
}

std::string_view SpillReader::chunk_bytes(std::size_t index) {
  const auto [begin, end] = chunk_span(index);
  if (map_ != nullptr) {
    return std::string_view(map_ + begin, static_cast<std::size_t>(end - begin));
  }
  file_.clear();
  file_.seekg(static_cast<std::streamoff>(begin));
  chunk_buffer_.resize(static_cast<std::size_t>(end - begin));
  file_.read(chunk_buffer_.data(),
             static_cast<std::streamsize>(chunk_buffer_.size()));
  if (static_cast<std::size_t>(file_.gcount()) != chunk_buffer_.size()) {
    throw StorageError("SpillReader: truncated chunk");
  }
  return chunk_buffer_;
}

std::uint32_t SpillReader::open_chunk(std::size_t index, std::string_view bytes,
                                      std::size_t& offset) const {
  offset = 0;
  if (bytes.size() < 2 * sizeof(std::uint32_t) ||
      take<std::uint32_t>(bytes, offset) != glvt::kChunkMagic) {
    throw StorageError("SpillReader: bad chunk magic: " + path_);
  }
  const auto samples = take<std::uint32_t>(bytes, offset);
  // Chunk i starts at sample i · chunk_capacity, so every chunk but the
  // last must be exactly full — a short interior chunk would shift every
  // later sample off its grid position and its word boundary.
  const bool last = index + 1 == chunk_offsets_.size();
  if (samples == 0 || samples > chunk_capacity_ ||
      (!last && samples != chunk_capacity_)) {
    throw StorageError("SpillReader: corrupt chunk sample count: " + path_);
  }
  if (last && static_cast<std::uint64_t>(index) * chunk_capacity_ + samples !=
                  sample_count_) {
    throw StorageError(
        "SpillReader: chunk samples do not cover the header count: " + path_);
  }
  return samples;
}

std::size_t SpillReader::plane_reserve_samples(std::size_t planes) const {
  // The header count, capped at what the chunk index can hold and at one
  // plane word per 8 bytes below the index, shared by all planes (a
  // kWords payload spends exactly that): a crafted count, capacity or
  // species count is then rejected by chunk_span/open_chunk, not by an
  // oversized reserve. A trace that compresses better than that grows
  // its planes as its chunks validate instead.
  const std::uint64_t chunk_samples =
      static_cast<std::uint64_t>(chunk_offsets_.size()) * chunk_capacity_;
  const std::uint64_t byte_samples =
      index_offset_ / sizeof(std::uint64_t) / std::max<std::size_t>(planes, 1) *
      64;
  return static_cast<std::size_t>(
      std::min({sample_count_, chunk_samples, byte_samples}));
}

void SpillReader::require_content(glvt::ContentKind want,
                                  const char* api) const {
  if (content_kind_ == want) return;
  if (want == glvt::ContentKind::kAnalog) {
    throw StorageError(std::string("SpillReader::") + api +
                       ": bit-plane file holds no analog samples "
                       "(use read_planes): " +
                       path_);
  }
  throw StorageError(std::string("SpillReader::") + api +
                     ": analog file holds no bit planes "
                     "(replay into a DigitizingSink instead): " +
                     path_);
}

void SpillReader::read_chunk_into(std::size_t index, Chunk& chunk) {
  require_content(glvt::ContentKind::kAnalog, "read_chunk");
  if (index >= chunk_offsets_.size()) {
    throw InvalidArgument("SpillReader::read_chunk: index out of range");
  }
  const std::string_view bytes = chunk_bytes(index);
  std::size_t offset = 0;
  const std::uint32_t samples = open_chunk(index, bytes, offset);

  chunk.first_sample =
      static_cast<std::uint64_t>(index) * chunk_capacity_;
  if (version_ >= 2) {
    glvt::decode_time_section_into(bytes, offset, samples, chunk.first_sample,
                                   sampling_period_, chunk.times);
  } else {
    glvt::decode_section_into(bytes, offset, samples, chunk.times);
  }
  chunk.series.resize(species_names_.size());
  for (std::size_t s = 0; s < species_names_.size(); ++s) {
    glvt::decode_section_into(bytes, offset, samples, chunk.series[s]);
  }
  if (offset != bytes.size()) {
    throw StorageError("SpillReader: trailing bytes in chunk: " + path_);
  }
}

SpillReader::Chunk SpillReader::read_chunk(std::size_t index) {
  Chunk chunk;
  read_chunk_into(index, chunk);
  return chunk;
}

void SpillReader::replay(TraceSink& sink) {
  require_content(glvt::ContentKind::kAnalog, "replay");
  sink.begin(species_names_);
  Chunk chunk;  // decode buffers reused across every chunk
  std::vector<std::span<const double>> columns(species_names_.size());
  for (std::size_t c = 0; c < chunk_offsets_.size(); ++c) {
    read_chunk_into(c, chunk);
    for (std::size_t s = 0; s < columns.size(); ++s) {
      columns[s] = chunk.series[s];
    }
    sink.append_block(chunk.times, columns);
  }
  sink.finish();
}

void SpillReader::replay(DigitizingSink& sink) {
  require_content(glvt::ContentKind::kAnalog, "replay");
  sink.begin(species_names_);
  sink.reserve(plane_reserve_samples(sink.tracked_columns().size()));
  // One word buffer per tracked column, reused across chunks (a column
  // tracked twice is thresholded once and backs both planes).
  const std::vector<std::size_t>& tracked = sink.tracked_columns();
  std::vector<char> is_tracked(species_names_.size(), 0);
  for (const std::size_t column : tracked) is_tracked[column] = 1;
  std::vector<std::vector<std::uint64_t>> words(species_names_.size());
  std::vector<std::span<const std::uint64_t>> planes(tracked.size());
  for (std::size_t c = 0; c < chunk_offsets_.size(); ++c) {
    const std::string_view bytes = chunk_bytes(c);
    std::size_t offset = 0;
    const std::uint32_t samples = open_chunk(c, bytes, offset);
    glvt::check_time_section(bytes, offset, samples,
                             static_cast<std::uint64_t>(c) * chunk_capacity_,
                             sampling_period_, version_);
    for (std::size_t s = 0; s < species_names_.size(); ++s) {
      if (is_tracked[s] == 0) {
        // Validated like every other section, then dropped.
        glvt::walk_section(
            bytes, offset, samples, [](std::size_t, std::size_t, double) {},
            [](std::string_view) {});
        continue;
      }
      words[s].clear();
      glvt::threshold_section(bytes, offset, samples, sink.threshold(),
                              words[s]);
    }
    if (offset != bytes.size()) {
      throw StorageError("SpillReader: trailing bytes in chunk: " + path_);
    }
    for (std::size_t i = 0; i < tracked.size(); ++i) {
      planes[i] = words[tracked[i]];
    }
    sink.append_words(samples, planes);
  }
  sink.finish();
}

void SpillReader::replay_rows(TraceSink& sink) {
  // The pre-block-path replay, preserved as the reference the block path
  // must be bit-identical to and the baseline `bench_trace_io` measures
  // against: buffered ifstream reads (no mapping), a freshly allocated
  // decode per chunk, and one append per sample row. (Time decode is
  // version-dispatched like the block path — a v2 grid column must
  // reconstruct identically whichever replay runs.)
  require_content(glvt::ContentKind::kAnalog, "replay_rows");
  sink.begin(species_names_);
  std::vector<double> row(species_names_.size());
  for (std::size_t c = 0; c < chunk_offsets_.size(); ++c) {
    const auto [begin, end] = chunk_span(c);
    file_.clear();
    file_.seekg(static_cast<std::streamoff>(begin));
    const std::string buffer =
        read_bytes(file_, static_cast<std::size_t>(end - begin), "chunk");
    std::size_t offset = 0;
    const std::uint32_t samples = open_chunk(c, buffer, offset);
    std::vector<double> times;
    if (version_ >= 2) {
      glvt::decode_time_section_into(
          buffer, offset, samples,
          static_cast<std::uint64_t>(c) * chunk_capacity_, sampling_period_,
          times);
    } else {
      glvt::decode_section_into(buffer, offset, samples, times);
    }
    std::vector<std::vector<double>> series;
    series.reserve(species_names_.size());
    for (std::size_t s = 0; s < species_names_.size(); ++s) {
      series.push_back(glvt::decode_section(buffer, offset, samples));
    }
    if (offset != buffer.size()) {
      throw StorageError("SpillReader: trailing bytes in chunk: " + path_);
    }

    for (std::size_t k = 0; k < times.size(); ++k) {
      for (std::size_t s = 0; s < row.size(); ++s) {
        row[s] = series[s][k];
      }
      sink.append(times[k], row);
    }
  }
  sink.finish();
}

sim::Trace SpillReader::read_all() {
  MemorySink sink;
  replay(sink);
  return sink.take();
}

std::vector<logic::BitStream> SpillReader::read_planes() {
  require_content(glvt::ContentKind::kBits, "read_planes");
  const std::size_t total_words =
      (plane_reserve_samples(species_names_.size()) + 63) / 64;
  std::vector<std::vector<std::uint64_t>> words(species_names_.size());
  for (auto& plane : words) plane.reserve(total_words);

  for (std::size_t c = 0; c < chunk_offsets_.size(); ++c) {
    // Planes concatenate across chunks: open_chunk's layout check is what
    // keeps every chunk boundary on a word boundary.
    const std::string_view bytes = chunk_bytes(c);
    std::size_t offset = 0;
    const std::uint32_t samples = open_chunk(c, bytes, offset);
    const std::size_t chunk_words = (samples + 63) / 64;
    for (std::size_t s = 0; s < species_names_.size(); ++s) {
      glvt::decode_words_section(bytes, offset, chunk_words, words[s]);
    }
    if (offset != bytes.size()) {
      throw StorageError("SpillReader: trailing bytes in chunk: " + path_);
    }
  }

  std::vector<logic::BitStream> planes;
  planes.reserve(words.size());
  for (auto& plane : words) {
    // from_words re-masks the tail word, so a corrupt tail cannot break
    // the BitStream zero-tail invariant downstream kernels rely on.
    planes.push_back(logic::BitStream::from_words(
        static_cast<std::size_t>(sample_count_), std::move(plane)));
  }
  return planes;
}

void SpillReader::write_csv(std::ostream& out) {
  require_content(glvt::ContentKind::kAnalog, "write_csv");
  {
    util::CsvWriter header;
    std::vector<std::string> fields{"time"};
    fields.insert(fields.end(), species_names_.begin(), species_names_.end());
    header.add_row(fields);
    out << header.str();
  }
  Chunk chunk;  // decode buffers reused across every chunk
  for (std::size_t c = 0; c < chunk_offsets_.size(); ++c) {
    read_chunk_into(c, chunk);
    util::CsvWriter rows;
    std::vector<std::string> row;
    for (std::size_t k = 0; k < chunk.times.size(); ++k) {
      row.clear();
      row.reserve(1 + species_names_.size());
      row.push_back(util::format_double(chunk.times[k]));
      for (std::size_t s = 0; s < species_names_.size(); ++s) {
        row.push_back(util::format_double(chunk.series[s][k]));
      }
      rows.add_row(row);
    }
    out << rows.str();
  }
}

}  // namespace glva::store
