// Robustness/fuzz tests: malformed and adversarial inputs must produce
// clean glva exceptions — never crashes, hangs, or silent garbage. Seeds
// are fixed so any failure is reproducible.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/adc.h"
#include "fuzz_util.h"
#include "logic/word_pack.h"
#include "math/expr_parser.h"
#include "sbml/reader.h"
#include "sbml/validate.h"
#include "sbol/sbol_io.h"
#include "sim/rng.h"
#include "store/digitizing_sink.h"
#include "store/glvt.h"
#include "store/memory_sink.h"
#include "store/spill_reader.h"
#include "store/spill_sink.h"
#include "util/csv.h"
#include "util/errors.h"
#include "xml/xml_parser.h"

namespace {

using namespace glva;

/// Random byte strings biased toward XML-ish characters.
std::string random_noise(sim::Rng& rng, std::size_t max_len) {
  static const char kAlphabet[] =
      "<>/=\"' abcdefgzXML&;#x0123!?-[]\n\tsbml:model";
  const std::size_t len = rng.below(max_len);
  std::string s;
  s.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    s += kAlphabet[rng.below(sizeof(kAlphabet) - 1)];
  }
  return s;
}

/// Mutate a valid document by deleting/duplicating/flipping a span.
std::string mutate(sim::Rng& rng, std::string doc) {
  if (doc.empty()) return doc;
  const std::size_t pos = rng.below(doc.size());
  const std::size_t span = 1 + rng.below(8);
  switch (rng.below(3)) {
    case 0:
      doc.erase(pos, span);
      break;
    case 1:
      doc.insert(pos, doc.substr(pos, span));
      break;
    default:
      for (std::size_t i = pos; i < std::min(doc.size(), pos + span); ++i) {
        doc[i] = static_cast<char>('!' + rng.below(90));
      }
      break;
  }
  return doc;
}

constexpr const char* kValidSbml = R"(<?xml version="1.0" encoding="UTF-8"?>
<sbml xmlns="http://www.sbml.org/sbml/level3/version1/core" level="3" version="1">
  <model id="m">
    <listOfCompartments><compartment id="cell" size="1" constant="true"/></listOfCompartments>
    <listOfSpecies>
      <species id="In" compartment="cell" initialAmount="0" boundaryCondition="true" constant="false" hasOnlySubstanceUnits="true"/>
      <species id="Out" compartment="cell" initialAmount="0" boundaryCondition="false" constant="false" hasOnlySubstanceUnits="true"/>
    </listOfSpecies>
    <listOfParameters><parameter id="k" value="0.5" constant="true"/></listOfParameters>
    <listOfReactions>
      <reaction id="prod" reversible="false">
        <listOfProducts><speciesReference species="Out" stoichiometry="1" constant="true"/></listOfProducts>
        <kineticLaw><math xmlns="http://www.w3.org/1998/Math/MathML"><ci>k</ci></math></kineticLaw>
      </reaction>
    </listOfReactions>
  </model>
</sbml>)";

TEST(Fuzz, XmlParserNeverCrashesOnNoise) {
  sim::Rng rng(90001);
  std::size_t parsed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const std::string noise = random_noise(rng, 200);
    try {
      const auto node = xml::parse_document(noise);
      ++parsed;  // syntactically valid by chance — fine
      (void)node;
    } catch (const ParseError&) {
      // expected
    }
  }
  // Pure noise essentially never parses.
  EXPECT_LT(parsed, 5u);
}

TEST(Fuzz, SbmlReaderSurvivesMutatedDocuments) {
  sim::Rng rng(90002);
  std::size_t accepted = 0;
  for (int trial = 0; trial < 1000; ++trial) {
    const std::string doc = mutate(rng, kValidSbml);
    try {
      const auto model = sbml::read_sbml(doc);
      ++accepted;  // structurally tolerable mutation
      (void)model;
    } catch (const ParseError&) {
    } catch (const ValidationError&) {
    }
  }
  // Some single-char mutations (attribute values, ignorable content) stay
  // readable; most break the document.
  EXPECT_LT(accepted, 700u);
}

TEST(Fuzz, SbmlReaderAcceptsTheUnmutatedBaseline) {
  const auto model = sbml::read_sbml(kValidSbml);
  EXPECT_EQ(model.species.size(), 2u);
  EXPECT_TRUE(sbml::is_valid(sbml::validate(model)));
}

TEST(Fuzz, ExpressionParserNeverCrashes) {
  sim::Rng rng(90003);
  static const char kExprChars[] = "0123456789.+-*/^()abcxyz_, hilmnex";
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t len = rng.below(40);
    std::string text;
    for (std::size_t i = 0; i < len; ++i) {
      text += kExprChars[rng.below(sizeof(kExprChars) - 1)];
    }
    try {
      const auto expr = math::parse_expression(text);
      // If it parsed, printing and reparsing must agree.
      const auto round = math::parse_expression(expr->to_string());
      EXPECT_TRUE(true);
      (void)round;
    } catch (const ParseError&) {
    } catch (const InvalidArgument&) {
    }
  }
}

TEST(Fuzz, SbolReaderSurvivesMutations) {
  const std::string valid = sbol::write_design(
      [] {
        sbol::Design design;
        design.id = "d";
        design.parts = {{"In", sbol::PartType::kSmallMolecule, ""},
                        {"P", sbol::PartType::kProtein, ""},
                        {"pIn", sbol::PartType::kPromoter, ""},
                        {"r", sbol::PartType::kRbs, ""},
                        {"c", sbol::PartType::kCds, ""},
                        {"t", sbol::PartType::kTerminator, ""}};
        design.units = {{"tu", {"pIn", "r", "c", "t"}, "P", ""}};
        design.interactions = {
            {"i1", sbol::InteractionKind::kRepression, "In", "pIn"},
            {"i2", sbol::InteractionKind::kGeneticProduction, "tu", "P"}};
        design.inputs = {"In"};
        design.output = "P";
        return design;
      }());
  sim::Rng rng(90004);
  for (int trial = 0; trial < 800; ++trial) {
    try {
      const auto design = sbol::read_design(mutate(rng, valid));
      design.check();
    } catch (const ParseError&) {
    } catch (const ValidationError&) {
    }
  }
  SUCCEED();
}

TEST(Fuzz, CsvParserNeverCrashes) {
  sim::Rng rng(90005);
  static const char kCsvChars[] = "a,\"\n\r;x1";
  for (int trial = 0; trial < 2000; ++trial) {
    const std::size_t len = rng.below(60);
    std::string text;
    for (std::size_t i = 0; i < len; ++i) {
      text += kCsvChars[rng.below(sizeof(kCsvChars) - 1)];
    }
    try {
      const auto rows = util::parse_csv(text);
      (void)rows;
    } catch (const ParseError&) {
    }
  }
  SUCCEED();
}

// ------------------------------------------------------- .glvt replay

template <typename T>
T peek(const std::string& bytes, std::size_t at) {
  T value;
  std::memcpy(&value, bytes.data() + at, sizeof(T));
  return value;
}

template <typename T>
void poke(std::string& bytes, std::size_t at, T value) {
  std::memcpy(bytes.data() + at, &value, sizeof(T));
}

/// One column section of a valid file: where its tag sits, its encoding,
/// its payload size, and the column it holds (0 = times, s + 1 = species s).
struct SectionSite {
  std::size_t tag_at = 0;
  store::glvt::SectionEncoding encoding{};
  std::uint32_t payload_bytes = 0;
  std::size_t column = 0;
};

/// A small analog spill: `A` and `GFP` RLE-friendly, `B` noisy (raw),
/// `C` RLE; 300 samples on the 0.5 grid in 64-sample chunks (the last one
/// ragged).
std::string small_analog_spill(const std::filesystem::path& path) {
  store::SpillSink::Options options;
  options.chunk_samples = 64;
  options.sampling_period = 0.5;
  {
    store::SpillSink sink(path.string(), options);
    sink.begin({"A", "B", "C", "GFP"});
    std::vector<double> row(4);
    for (std::size_t k = 0; k < 300; ++k) {
      row[0] = (k / 10) % 2 == 0 ? 0.0 : 15.0;
      row[1] = static_cast<double>((k * 7919) % 31);
      row[2] = (k / 40) % 2 == 0 ? 3.0 : 30.0;
      row[3] = k < 150 ? 0.0 : static_cast<double>(10 + (k / 3) % 2 * 20);
      sink.append(static_cast<double>(k) * 0.5, row);
    }
    sink.finish();
  }
  std::ifstream file(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << file.rdbuf();
  return bytes.str();
}

/// Replay into `replay`'s sink; true when accepted, false when rejected
/// with StorageError or InvalidArgument (anything else fails the test).
template <typename Replay>
bool accepts(Replay&& replay) {
  try {
    replay();
    return true;
  } catch (const StorageError&) {
  } catch (const InvalidArgument&) {
  }
  return false;
}

/// File offset of the header's chunk capacity (u32, after species_count).
constexpr std::size_t kChunkCapacityOffset = 28;

/// A header sample count off by a little, or a huge one a presize must
/// not trust.
std::uint64_t mutated_sample_count(sim::Rng& rng, std::uint64_t count) {
  switch (rng.below(3)) {
    case 0:
      return count + static_cast<std::uint64_t>(
                         static_cast<std::int64_t>(rng.below(141)) - 70);
    case 1:
      return std::uint64_t{1} << (32 + rng.below(31));
    default:
      return count + (std::uint64_t{1} << 31) * (1 + rng.below(64));
  }
}

/// A chunk capacity that breaks the layout (off by a word, not a word
/// multiple, zero) or claims 2^31 samples per chunk.
std::uint32_t mutated_capacity(sim::Rng& rng, std::uint32_t capacity) {
  switch (rng.below(4)) {
    case 0:
      return rng.below(2) == 0 ? capacity + 64 : capacity - 64;
    case 1:
      return capacity + 1 + static_cast<std::uint32_t>(rng.below(63));
    case 2:
      return 0;
    default:
      return std::uint32_t{1} << 31;
  }
}

TEST(Fuzz, GlvtReplaySurvivesMutatedFiles) {
  namespace glvt = store::glvt;
  const std::filesystem::path base_path =
      std::filesystem::path(::testing::TempDir()) / "fuzz_base.glvt";
  const std::string base = small_analog_spill(base_path);
  constexpr std::size_t kColumns = 5;  // times + 4 species

  const auto index_offset = static_cast<std::size_t>(
      peek<std::uint64_t>(base, glvt::kIndexOffsetOffset));
  const auto chunk_count = static_cast<std::size_t>(
      peek<std::uint64_t>(base, glvt::kChunkCountOffset));
  std::vector<std::size_t> chunks;
  std::vector<SectionSite> sections;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    chunks.push_back(static_cast<std::size_t>(
        peek<std::uint64_t>(base, index_offset + c * 8)));
    std::size_t at = chunks.back() + 8;  // past magic + sample count
    for (std::size_t column = 0; column < kColumns; ++column) {
      SectionSite site;
      site.tag_at = at;
      site.encoding = static_cast<glvt::SectionEncoding>(base[at]);
      site.payload_bytes = peek<std::uint32_t>(base, at + 1);
      site.column = column;
      sections.push_back(site);
      at += 5 + site.payload_bytes;
    }
  }
  const auto pick = [&](sim::Rng& rng, glvt::SectionEncoding encoding) {
    std::vector<const SectionSite*> matches;
    for (const auto& site : sections) {
      if (site.encoding == encoding) matches.push_back(&site);
    }
    return matches[rng.below(matches.size())];
  };
  const auto delta = [](sim::Rng& rng, std::int64_t span) {
    return static_cast<std::int64_t>(rng.below(2 * span + 1)) - span;
  };

  // Only A and GFP are digitized: corruption confined to B, C or the
  // times must still be rejected by the run-level replay.
  const std::vector<std::string> tracked = {"A", "GFP"};
  const auto is_untracked = [](const SectionSite& site) {
    return site.column == 0 || site.column == 2 || site.column == 3;
  };
  constexpr double kThreshold = 15.0;
  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "fuzz_mutant.glvt";
  sim::Rng rng(90006);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::size_t untracked_rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string bytes = base;
    bool untracked_only = true;  // every mutation hit the times, B or C
    const std::size_t mutations = 1 + rng.below(2);
    for (std::size_t m = 0; m < mutations; ++m) {
      switch (rng.below(8)) {
        case 0: {  // a chunk-index offset
          const std::size_t at = index_offset + 8 * rng.below(chunk_count);
          poke(bytes, at, static_cast<std::uint64_t>(
                              peek<std::uint64_t>(bytes, at) + delta(rng, 16)));
          untracked_only = false;
          break;
        }
        case 1: {  // a chunk's sample count
          const std::size_t at = chunks[rng.below(chunk_count)] + 4;
          poke(bytes, at, static_cast<std::uint32_t>(
                              peek<std::uint32_t>(bytes, at) + delta(rng, 70)));
          untracked_only = false;
          break;
        }
        case 2: {  // a section tag
          const SectionSite& site = sections[rng.below(sections.size())];
          bytes[site.tag_at] = static_cast<char>(rng.below(5));
          untracked_only = untracked_only && is_untracked(site);
          break;
        }
        case 3: {  // a payload length
          const SectionSite& site = sections[rng.below(sections.size())];
          poke(bytes, site.tag_at + 1,
               static_cast<std::uint32_t>(site.payload_bytes + delta(rng, 16)));
          untracked_only = untracked_only && is_untracked(site);
          break;
        }
        case 4: {  // an RLE run length
          const SectionSite& site = *pick(rng, glvt::SectionEncoding::kRle);
          const std::size_t at =
              site.tag_at + 5 + 12 * rng.below(site.payload_bytes / 12);
          poke(bytes, at, static_cast<std::uint32_t>(
                              peek<std::uint32_t>(bytes, at) + delta(rng, 3)));
          untracked_only = untracked_only && is_untracked(site);
          break;
        }
        case 5: {  // a grid start time
          const SectionSite& site = *pick(rng, glvt::SectionEncoding::kGrid);
          bytes[site.tag_at + 5 + rng.below(8)] ^=
              static_cast<char>(1u << rng.below(8));
          break;
        }
        case 6: {  // the header sample count (what the planes presize to)
          poke(bytes, glvt::kSampleCountOffset,
               mutated_sample_count(
                   rng, peek<std::uint64_t>(bytes, glvt::kSampleCountOffset)));
          untracked_only = false;
          break;
        }
        default: {  // the header chunk capacity
          poke(bytes, kChunkCapacityOffset,
               mutated_capacity(
                   rng, peek<std::uint32_t>(bytes, kChunkCapacityOffset)));
          untracked_only = false;
          break;
        }
      }
    }
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::optional<store::SpillReader> reader;
    if (!accepts([&] { reader.emplace(path.string()); })) {
      ++rejected;
      continue;
    }
    store::MemorySink memory;
    store::DigitizingSink runs(tracked, kThreshold);
    store::DigitizingSink generic(tracked, kThreshold);
    const bool memory_ok = accepts([&] { reader->replay(memory); });
    const bool runs_ok = accepts([&] { reader->replay(runs); });
    const bool generic_ok = accepts(
        [&] { reader->replay(static_cast<store::TraceSink&>(generic)); });
    EXPECT_EQ(memory_ok, runs_ok) << "trial " << trial;
    EXPECT_EQ(memory_ok, generic_ok) << "trial " << trial;
    if (!memory_ok) {
      ++rejected;
      if (untracked_only) ++untracked_rejected;
      continue;
    }
    ++accepted;
    if (!runs_ok || !generic_ok) continue;
    const core::PackedDigitalData expected = core::digitize_packed(
        memory.trace(), {"A"}, "GFP", kThreshold);
    EXPECT_EQ(runs.planes()[0], expected.inputs[0]) << "trial " << trial;
    EXPECT_EQ(runs.planes()[1], expected.output) << "trial " << trial;
    EXPECT_EQ(generic.planes()[0], expected.inputs[0]) << "trial " << trial;
    EXPECT_EQ(generic.planes()[1], expected.output) << "trial " << trial;
  }
  // Both outcomes occur, and some rejections come from corruption the
  // run-level replay never decodes into a plane.
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(untracked_rejected, 0u);
}

// ------------------------------------------------ section thresholding

/// The reference `threshold_section` must match: decode the section to
/// doubles, then pack each 64-sample slice with `pack_threshold_bits`.
std::vector<std::uint64_t> decode_then_pack(std::string_view buffer,
                                            std::size_t& offset,
                                            std::size_t count,
                                            double threshold) {
  const std::vector<double> values =
      store::glvt::decode_section(buffer, offset, count);
  std::vector<std::uint64_t> words;
  for (std::size_t k = 0; k < count; k += 64) {
    words.push_back(logic::pack_threshold_bits(
        values.data() + k, std::min<std::size_t>(64, count - k), threshold));
  }
  return words;
}

/// `count` doubles in runs of 1..max_run equal values, each run drawn
/// from `special_doubles` (NaN, ±inf, ±0.0, subnormals, the threshold and
/// its neighbours): short runs make the encoder pick raw, long ones RLE.
std::vector<double> run_shaped_doubles(std::size_t count, std::size_t max_run,
                                       double threshold, sim::Rng& rng) {
  std::vector<double> values;
  values.reserve(count);
  while (values.size() < count) {
    const double value = testutil::special_doubles(1, threshold, rng)[0];
    const std::size_t run = std::min<std::size_t>(
        1 + rng.below(max_run), count - values.size());
    values.insert(values.end(), run, value);
  }
  return values;
}

TEST(Fuzz, ThresholdSectionMatchesDecodeThenPack) {
  namespace glvt = store::glvt;
  const double thresholds[] = {15.0, std::numeric_limits<double>::denorm_min(),
                               1e-310, std::numeric_limits<double>::infinity()};
  sim::Rng rng(90007);
  std::size_t raw_sections = 0;
  std::size_t rle_sections = 0;
  std::size_t mutants_accepted = 0;
  std::size_t mutants_rejected = 0;
  for (const std::size_t count : {1u, 63u, 64u, 65u, 4096u}) {
    for (int trial = 0; trial < 24; ++trial) {
      const double threshold = thresholds[rng.below(std::size(thresholds))];
      const std::size_t max_run = trial % 3 == 0 ? 1 : 1 + rng.below(300);
      // Three lead bytes leave the payload unaligned, as in a mapped chunk;
      // trailing bytes must stay unread.
      std::string section = "xyz";
      glvt::encode_section(
          run_shaped_doubles(count, max_run, threshold, rng), section);
      section += "tail";
      const auto encoding = static_cast<glvt::SectionEncoding>(section[3]);
      (encoding == glvt::SectionEncoding::kRaw ? raw_sections : rle_sections)++;

      for (const double at : thresholds) {
        std::size_t want_offset = 3;
        std::vector<std::uint64_t> want = {0xfeedu};
        const std::vector<std::uint64_t> packed =
            decode_then_pack(section, want_offset, count, at);
        want.insert(want.end(), packed.begin(), packed.end());
        std::size_t offset = 3;
        std::vector<std::uint64_t> words = {0xfeedu};  // appended to, kept
        glvt::threshold_section(section, offset, count, at, words);
        EXPECT_EQ(words, want) << count << " samples, trial " << trial;
        EXPECT_EQ(offset, want_offset) << count << " samples, trial " << trial;
      }

      // Mutated sections and wrong counts: both must accept and reject the
      // same bytes, and agree bit for bit on what they accept.
      for (int m = 0; m < 8; ++m) {
        std::string mutant = section;
        std::size_t mutant_count = count;
        switch (rng.below(4)) {
          case 0:
            mutant[3] = static_cast<char>(rng.below(5));
            break;
          case 1:
            poke(mutant, 4,
                 static_cast<std::uint32_t>(peek<std::uint32_t>(mutant, 4) +
                                            rng.below(33) - 16));
            break;
          case 2:
            mutant_count = count + rng.below(3) - 1;
            break;
          default:
            mutant[3 + 5 + rng.below(mutant.size() - 12)] ^=
                static_cast<char>(1u << rng.below(8));
            break;
        }
        std::size_t want_offset = 3;
        std::vector<std::uint64_t> want;
        const bool decoded = accepts([&] {
          want = decode_then_pack(mutant, want_offset, mutant_count, threshold);
        });
        std::size_t offset = 3;
        std::vector<std::uint64_t> words;
        const bool thresholded = accepts([&] {
          glvt::threshold_section(mutant, offset, mutant_count, threshold,
                                  words);
        });
        ASSERT_EQ(decoded, thresholded) << count << " samples, trial " << trial;
        if (!decoded) {
          ++mutants_rejected;
          continue;
        }
        ++mutants_accepted;
        EXPECT_EQ(words, want) << count << " samples, trial " << trial;
        EXPECT_EQ(offset, want_offset);
      }
    }
  }
  EXPECT_GT(raw_sections, 0u);
  EXPECT_GT(rle_sections, 0u);
  EXPECT_GT(mutants_accepted, 0u);
  EXPECT_GT(mutants_rejected, 0u);
}

std::string file_bytes(const std::filesystem::path& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << file.rdbuf();
  return bytes.str();
}

TEST(Fuzz, DigitizerReplayMatchesGenericReplay) {
  // The run-level replay against the generic one over files whose last
  // chunk holds 1, 63, 64, 65 or 4096 samples, with special values in
  // raw and RLE sections, a duplicate tracked id, every species tracked,
  // and the spill tee on: planes and tee bytes must be identical.
  const std::vector<std::string> names = {"A", "B", "C", "GFP"};
  const std::vector<std::vector<std::string>> tracked_sets = {
      {"GFP", "A", "GFP"}, names};
  const std::filesystem::path dir = ::testing::TempDir();
  sim::Rng rng(90008);
  for (const std::uint32_t capacity : {64u, 4096u}) {
    for (const std::size_t last : {1u, 63u, 64u, 65u, 4096u}) {
      if (last > capacity) continue;
      const std::size_t samples = 2 * capacity + last;
      const double threshold = rng.below(2) == 0
                                   ? 15.0
                                   : std::numeric_limits<double>::denorm_min();
      const std::vector<std::vector<double>> columns = {
          run_shaped_doubles(samples, 1, threshold, rng),
          run_shaped_doubles(samples, 5, threshold, rng),
          run_shaped_doubles(samples, 700, threshold, rng),
          run_shaped_doubles(samples, 40, threshold, rng)};
      const std::string tag =
          std::to_string(capacity) + "_" + std::to_string(samples);
      const std::filesystem::path path = dir / ("differential_" + tag + ".glvt");
      {
        store::SpillSink::Options options;
        options.chunk_samples = capacity;
        options.sampling_period = 0.5;
        store::SpillSink sink(path.string(), options);
        sink.begin(names);
        std::vector<double> row(names.size());
        for (std::size_t k = 0; k < samples; ++k) {
          for (std::size_t s = 0; s < names.size(); ++s) row[s] = columns[s][k];
          sink.append(static_cast<double>(k) * 0.5, row);
        }
        sink.finish();
      }
      store::SpillReader reader(path.string());
      for (const auto& tracked : tracked_sets) {
        const auto tee = [&](const std::string& kind) {
          store::DigitizingSink::SpillOptions spill;
          spill.path = (dir / ("differential_" + kind + "_" + tag + ".glvt"))
                           .string();
          spill.chunk_samples = 64;
          return spill;
        };
        store::DigitizingSink runs(tracked, threshold, tee("runs"));
        reader.replay(runs);
        store::DigitizingSink generic(tracked, threshold, tee("generic"));
        reader.replay(static_cast<store::TraceSink&>(generic));
        ASSERT_EQ(runs.sample_count(), samples) << tag;
        EXPECT_TRUE(runs.planes() == generic.planes()) << tag;
        for (std::size_t p = 0; p < tracked.size(); ++p) {
          const auto column = static_cast<std::size_t>(
              std::find(names.begin(), names.end(), tracked[p]) -
              names.begin());
          EXPECT_EQ(runs.planes()[p], core::adc_packed(columns[column],
                                                       threshold))
              << tag << ", plane " << p;
        }
        EXPECT_TRUE(file_bytes(runs.spill_path()) ==
                    file_bytes(generic.spill_path()))
            << tag;
      }
    }
  }
}

// ------------------------------------------------------ bit-plane files

TEST(Fuzz, BitPlaneReadSurvivesMutatedFiles) {
  // A 300-sample, 3-plane kWords file in 64-sample chunks, mutated in its
  // header counts, chunk index and sections: read_planes and
  // load_digitized accept it or throw StorageError/InvalidArgument —
  // never bad_alloc, length_error or a crash (the test also runs under
  // ASan, which aborts on an oversized allocation).
  namespace glvt = store::glvt;
  const std::filesystem::path base_path =
      std::filesystem::path(::testing::TempDir()) / "fuzz_planes_base.glvt";
  constexpr std::size_t kSamples = 300;
  constexpr std::size_t kPlanes = 3;
  constexpr double kThreshold = 15.0;
  sim::Rng values_rng(90009);
  {
    store::DigitizingSink::SpillOptions spill;
    spill.path = base_path.string();
    spill.chunk_samples = 64;
    store::DigitizingSink sink({"A", "B", "GFP"}, kThreshold, spill);
    sink.begin({"A", "B", "GFP"});
    std::vector<double> row(kPlanes);
    for (std::size_t k = 0; k < kSamples; ++k) {
      for (double& value : row) value = values_rng.uniform() * 30.0;
      sink.append(static_cast<double>(k), row);
    }
    sink.finish();
  }
  const std::string base = file_bytes(base_path);
  const auto index_offset = static_cast<std::size_t>(
      peek<std::uint64_t>(base, glvt::kIndexOffsetOffset));
  const auto chunk_count = static_cast<std::size_t>(
      peek<std::uint64_t>(base, glvt::kChunkCountOffset));
  std::vector<std::size_t> section_tags;
  for (std::size_t c = 0; c < chunk_count; ++c) {
    std::size_t at = static_cast<std::size_t>(
                         peek<std::uint64_t>(base, index_offset + c * 8)) +
                     8;
    for (std::size_t p = 0; p < kPlanes; ++p) {
      section_tags.push_back(at);
      at += 5 + peek<std::uint32_t>(base, at + 1);
    }
  }
  const auto delta = [](sim::Rng& rng, std::int64_t span) {
    return static_cast<std::int64_t>(rng.below(2 * span + 1)) - span;
  };

  const std::filesystem::path path =
      std::filesystem::path(::testing::TempDir()) / "fuzz_planes_mutant.glvt";
  sim::Rng rng(90010);
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::string bytes = base;
    const std::size_t mutations = 1 + rng.below(2);
    for (std::size_t m = 0; m < mutations; ++m) {
      switch (rng.below(6)) {
        case 0:
          poke(bytes, glvt::kSampleCountOffset,
               mutated_sample_count(
                   rng, peek<std::uint64_t>(bytes, glvt::kSampleCountOffset)));
          break;
        case 1:
          poke(bytes, kChunkCapacityOffset,
               mutated_capacity(rng,
                                peek<std::uint32_t>(bytes, kChunkCapacityOffset)));
          break;
        case 2:
          poke(bytes, glvt::kChunkCountOffset,
               static_cast<std::uint64_t>(
                   peek<std::uint64_t>(bytes, glvt::kChunkCountOffset) +
                   delta(rng, 2)));
          break;
        case 3: {  // a chunk-index offset
          const std::size_t at = index_offset + 8 * rng.below(chunk_count);
          poke(bytes, at, static_cast<std::uint64_t>(
                              peek<std::uint64_t>(bytes, at) + delta(rng, 16)));
          break;
        }
        case 4:  // a section tag
          bytes[section_tags[rng.below(section_tags.size())]] =
              static_cast<char>(rng.below(5));
          break;
        default: {  // a payload length
          const std::size_t at =
              section_tags[rng.below(section_tags.size())] + 1;
          poke(bytes, at, static_cast<std::uint32_t>(
                              peek<std::uint32_t>(bytes, at) + delta(rng, 16)));
          break;
        }
      }
    }
    {
      std::ofstream file(path, std::ios::binary | std::ios::trunc);
      file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    }

    std::optional<store::SpillReader> reader;
    if (!accepts([&] { reader.emplace(path.string()); })) {
      ++rejected;
      continue;
    }
    std::vector<logic::BitStream> planes;
    const bool read_ok = accepts([&] { planes = reader->read_planes(); });
    core::PackedDigitalData loaded;
    const bool load_ok = accepts(
        [&] { loaded = core::load_digitized(*reader, kPlanes - 1, kThreshold); });
    EXPECT_EQ(read_ok, load_ok) << "trial " << trial;
    if (!read_ok) {
      ++rejected;
      continue;
    }
    ++accepted;
    ASSERT_EQ(planes.size(), kPlanes) << "trial " << trial;
    for (const logic::BitStream& plane : planes) {
      EXPECT_EQ(plane.size(), reader->sample_count()) << "trial " << trial;
    }
    if (load_ok) {
      EXPECT_EQ(loaded.output, planes[kPlanes - 1]) << "trial " << trial;
    }
  }
  EXPECT_GT(accepted, 0u);
  EXPECT_GT(rejected, 0u);
}

TEST(Fuzz, DeeplyNestedXmlParsesOrFailsCleanly) {
  // 2000-deep nesting: recursion depth must stay manageable (the parser
  // recurses per level; this bounds the acceptable document depth).
  std::string doc;
  constexpr int kDepth = 2000;
  for (int i = 0; i < kDepth; ++i) doc += "<a>";
  for (int i = 0; i < kDepth; ++i) doc += "</a>";
  EXPECT_NO_THROW((void)xml::parse_document(doc));
}

TEST(Fuzz, HugeAttributeAndTextNodes) {
  const std::string big(1 << 20, 'x');  // 1 MiB
  const auto doc = xml::parse_document("<a v=\"" + big + "\">" + big + "</a>");
  EXPECT_EQ(doc->attribute("v")->size(), big.size());
  EXPECT_EQ(doc->text_content().size(), big.size());
}

}  // namespace
