#include "store/digitizing_sink.h"

#include <algorithm>

#include "logic/word_pack.h"
#include "obs/metrics.h"
#include "util/errors.h"

namespace glva::store {

DigitizingSink::DigitizingSink(std::vector<std::string> species_ids,
                               double threshold)
    : species_ids_(std::move(species_ids)), threshold_(threshold) {
  if (!(threshold_ > 0.0)) {
    throw InvalidArgument("DigitizingSink: threshold must be positive");
  }
  if (species_ids_.empty()) {
    throw InvalidArgument("DigitizingSink: no species to track");
  }
}

DigitizingSink::DigitizingSink(std::vector<std::string> species_ids,
                               double threshold, SpillOptions spill)
    : DigitizingSink(std::move(species_ids), threshold) {
  if (spill.path.empty()) {
    throw InvalidArgument("DigitizingSink: spill path must not be empty");
  }
  if (spill.chunk_samples == 0 || spill.chunk_samples % 64 != 0) {
    throw InvalidArgument(
        "DigitizingSink: spill chunk_samples must be a positive multiple "
        "of 64");
  }
  spill_ = std::move(spill);
}

void DigitizingSink::begin(const std::vector<std::string>& species_names) {
  columns_.clear();
  columns_.reserve(species_ids_.size());
  min_row_width_ = 0;
  for (const auto& id : species_ids_) {
    std::size_t column = species_names.size();
    for (std::size_t s = 0; s < species_names.size(); ++s) {
      if (species_names[s] == id) {
        column = s;
        break;
      }
    }
    if (column == species_names.size()) {
      throw InvalidArgument("DigitizingSink: unknown species '" + id + "'");
    }
    columns_.push_back(column);
    min_row_width_ = std::max(min_row_width_, column + 1);
  }
  planes_.assign(species_ids_.size(), logic::BitStream());
  pending_.assign(species_ids_.size(), 0);
  samples_ = 0;
  tail_committed_ = false;

  if (!spill_.path.empty()) {
    spill_offsets_.clear();
    spilled_samples_ = 0;
    spill_file_.open(spill_.path, std::ios::binary | std::ios::in |
                                      std::ios::out | std::ios::trunc);
    if (!spill_file_) {
      throw StorageError("DigitizingSink: cannot open spill file: " +
                         spill_.path);
    }
    // The v2 bit-plane header: same prefix as an analog file, content
    // kind kBits, and the ADC threshold the planes were digitized at —
    // the self-description a replay needs to refuse a ThVAL mismatch.
    std::string header;
    header.append(glvt::kMagic, sizeof glvt::kMagic);
    glvt::append_u32(header, glvt::kVersion);
    glvt::append_u64(header, spill_.seed);
    glvt::append_f64(header, spill_.sampling_period);
    glvt::append_u32(header, static_cast<std::uint32_t>(species_ids_.size()));
    glvt::append_u32(header, spill_.chunk_samples);
    glvt::append_u64(header, 0);  // sample_count, patched in finish()
    glvt::append_u64(header, 0);  // chunk_count, patched in finish()
    glvt::append_u64(header, 0);  // index_offset, patched in finish()
    glvt::append_u32(header,
                     static_cast<std::uint32_t>(glvt::ContentKind::kBits));
    glvt::append_f64(header, threshold_);
    for (const auto& id : species_ids_) {
      glvt::append_u32(header, static_cast<std::uint32_t>(id.size()));
      header.append(id);
    }
    spill_file_.write(header.data(),
                      static_cast<std::streamsize>(header.size()));
    if (!spill_file_) {
      throw StorageError("DigitizingSink: header write failed: " +
                         spill_.path);
    }
    spill_write_offset_ = header.size();
  }
}

void DigitizingSink::spill_chunks(bool final) {
  if (spill_.path.empty()) return;
  // Only whole committed words spill (pending bits stay in their
  // registers); the tail chunk on `final` picks up the ragged end after
  // finish() commits it.
  const std::uint64_t committed =
      final ? samples_ : samples_ - samples_ % logic::BitStream::kWordBits;
  for (;;) {
    const std::uint64_t available = committed - spilled_samples_;
    if (available == 0) break;
    std::uint64_t take = std::min<std::uint64_t>(available,
                                                 spill_.chunk_samples);
    if (take < spill_.chunk_samples && !final) break;
    const std::size_t first_word =
        static_cast<std::size_t>(spilled_samples_ / 64);
    const std::size_t chunk_words = static_cast<std::size_t>((take + 63) / 64);

    spill_chunk_.clear();
    glvt::append_u32(spill_chunk_, glvt::kChunkMagic);
    glvt::append_u32(spill_chunk_, static_cast<std::uint32_t>(take));
    for (const logic::BitStream& plane : planes_) {
      glvt::encode_words_section(plane.words().data() + first_word,
                                 chunk_words, spill_chunk_);
    }
    spill_offsets_.push_back(spill_write_offset_);
    spill_file_.write(spill_chunk_.data(),
                      static_cast<std::streamsize>(spill_chunk_.size()));
    if (!spill_file_) {
      throw StorageError("DigitizingSink: chunk write failed: " + spill_.path);
    }
    spill_write_offset_ += spill_chunk_.size();
    spilled_samples_ += take;

    static obs::Counter& bytes_written =
        obs::counter("store.spill.bytes_written");
    static obs::Counter& chunks_flushed =
        obs::counter("store.spill.chunks_flushed");
    bytes_written.add(spill_chunk_.size());
    chunks_flushed.increment();
  }
}

void DigitizingSink::commit_words() {
  for (std::size_t i = 0; i < planes_.size(); ++i) {
    planes_[i].append_word(pending_[i]);
    pending_[i] = 0;
  }
}

void DigitizingSink::append(double /*time*/,
                            const std::vector<double>& values) {
  if (values.size() < min_row_width_) {
    throw InvalidArgument(
        "DigitizingSink::append: value row narrower than the tracked "
        "species columns");
  }
  const std::size_t bit = samples_ % logic::BitStream::kWordBits;
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    pending_[i] |=
        static_cast<std::uint64_t>(values[columns_[i]] >= threshold_) << bit;
  }
  ++samples_;
  if (samples_ % logic::BitStream::kWordBits == 0) {
    commit_words();
    spill_chunks(false);
  }
}

void DigitizingSink::append_block(
    std::span<const double> times,
    std::span<const std::span<const double>> series) {
  constexpr std::size_t kWordBits = logic::BitStream::kWordBits;
  if (series.size() < min_row_width_) {
    throw InvalidArgument(
        "DigitizingSink::append_block: block narrower than the tracked "
        "species columns");
  }
  for (const std::size_t column : columns_) {
    if (series[column].size() != times.size()) {
      throw InvalidArgument(
          "DigitizingSink::append_block: column length differs from time "
          "column");
    }
  }
  const std::size_t n = times.size();
  std::size_t k = 0;
  while (k < n) {
    const std::size_t bit = samples_ % kWordBits;
    if (bit != 0 || n - k < kWordBits) {
      // Fill the pending word up to the next boundary (or the block end).
      const std::size_t m = std::min(kWordBits - bit, n - k);
      for (std::size_t i = 0; i < columns_.size(); ++i) {
        const std::span<const double> column = series[columns_[i]];
        pending_[i] |=
            logic::pack_threshold_bits(column.data() + k, m, threshold_) << bit;
      }
      samples_ += m;
      k += m;
      if (samples_ % kWordBits == 0) commit_words();
    } else {
      // Word-aligned bulk: one pack_threshold_block call fills each batch
      // (64 comparisons per word), committed to the plane with one bulk
      // insert.
      constexpr std::size_t kBatchWords = 64;  // 4096 samples per commit
      std::uint64_t batch[kBatchWords];
      const std::size_t words = (n - k) / kWordBits;
      for (std::size_t i = 0; i < columns_.size(); ++i) {
        const double* base = series[columns_[i]].data() + k;
        for (std::size_t w = 0; w < words;) {
          const std::size_t take = std::min(kBatchWords, words - w);
          logic::pack_threshold_block(base + w * kWordBits, take, threshold_,
                                      batch);
          planes_[i].append_words(std::span<const std::uint64_t>(batch, take));
          w += take;
        }
      }
      samples_ += words * kWordBits;
      k += words * kWordBits;
    }
  }
  spill_chunks(false);
}

void DigitizingSink::reserve(std::size_t samples) {
  for (logic::BitStream& plane : planes_) plane.reserve(samples);
}

void DigitizingSink::append_words(
    std::size_t samples,
    std::span<const std::span<const std::uint64_t>> planes) {
  constexpr std::size_t kWordBits = logic::BitStream::kWordBits;
  if (samples_ % kWordBits != 0) {
    throw InvalidArgument(
        "DigitizingSink::append_words: stream is not on a word boundary");
  }
  const std::size_t full = samples / kWordBits;
  const std::size_t rem = samples % kWordBits;
  if (planes.size() != planes_.size()) {
    throw InvalidArgument(
        "DigitizingSink::append_words: one word span per plane required");
  }
  for (const std::span<const std::uint64_t> words : planes) {
    if (words.size() != full + (rem != 0 ? 1 : 0)) {
      throw InvalidArgument(
          "DigitizingSink::append_words: word count does not match the "
          "samples");
    }
  }
  for (std::size_t i = 0; i < planes_.size(); ++i) {
    planes_[i].append_words(planes[i].first(full));
    // Masked: bits past `samples` must not leak into later appends.
    pending_[i] =
        rem != 0 ? planes[i][full] & ((std::uint64_t{1} << rem) - 1) : 0;
  }
  samples_ += samples;
  spill_chunks(false);
}

void DigitizingSink::finish() {
  if (tail_committed_) return;
  const std::size_t rem = samples_ % logic::BitStream::kWordBits;
  if (rem != 0) {
    for (std::size_t i = 0; i < planes_.size(); ++i) {
      planes_[i].append_bits(pending_[i], rem);
      pending_[i] = 0;
    }
  }
  tail_committed_ = true;
  if (samples_ > 0) {
    static obs::Counter& samples = obs::counter("store.digitize.samples");
    samples.add(samples_);
  }

  if (!spill_.path.empty()) {
    spill_chunks(true);
    const std::uint64_t index_offset = spill_write_offset_;
    std::string index;
    for (const std::uint64_t offset : spill_offsets_) {
      glvt::append_u64(index, offset);
    }
    spill_file_.write(index.data(),
                      static_cast<std::streamsize>(index.size()));
    // Same crash-safety patch order as SpillSink: counts first,
    // index_offset (the finished-file sentinel) last.
    std::string patch;
    glvt::append_u64(patch, static_cast<std::uint64_t>(samples_));
    glvt::append_u64(patch, static_cast<std::uint64_t>(spill_offsets_.size()));
    spill_file_.seekp(static_cast<std::streamoff>(glvt::kSampleCountOffset));
    spill_file_.write(patch.data(), static_cast<std::streamsize>(patch.size()));
    patch.clear();
    glvt::append_u64(patch, index_offset);
    spill_file_.seekp(static_cast<std::streamoff>(glvt::kIndexOffsetOffset));
    spill_file_.write(patch.data(), static_cast<std::streamsize>(patch.size()));
    spill_file_.flush();
    if (!spill_file_) {
      throw StorageError("DigitizingSink: finalize failed: " + spill_.path);
    }
    spill_file_.close();
  }
}

logic::BitStream DigitizingSink::take_plane(std::size_t i) {
  if (i >= planes_.size()) {
    throw InvalidArgument("DigitizingSink::take_plane: index out of range");
  }
  return std::move(planes_[i]);
}

}  // namespace glva::store
