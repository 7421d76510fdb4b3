// The temporal-property monitor suite (src/props/): parser round-trips,
// precedence and malformed-input pins for every grammar production, the
// packed monitor fuzzed bit-for-bit against the naive reference evaluator
// (random properties x random/adversarial planes), and the run_check
// replicate runner: its per-combination reduction against the reference
// evaluator (up to 10 inputs), and its sink- and job-count-independence.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/circuit_repository.h"
#include "core/adc.h"
#include "core/experiment.h"
#include "fuzz_util.h"
#include "logic/bit_stream.h"
#include "props/check.h"
#include "props/monitor.h"
#include "props/parser.h"
#include "props/property.h"
#include "props/reference.h"
#include "sim/rng.h"
#include "sim/virtual_lab.h"
#include "store/spill_reader.h"
#include "util/errors.h"

namespace {

using namespace glva;
using logic::BitStream;
using props::PropertyKind;
using props::PropertyPtr;
using testutil::random_bools;
using testutil::random_property;

const std::vector<std::string> kAtomNames = {"A", "B", "C"};

props::NamedPlanes named(std::vector<std::vector<bool>> planes) {
  props::NamedPlanes out;
  out.names = kAtomNames;
  out.names.resize(planes.size());
  out.planes = std::move(planes);
  return out;
}

/// Evaluate `property` with both backends over the same planes and
/// require bit-identical verdicts (including the packed tail invariant).
void expect_backends_agree(const props::Property& property,
                           const props::NamedPlanes& planes,
                           const std::string& context) {
  std::vector<BitStream> packed;
  packed.reserve(planes.planes.size());
  for (const auto& plane : planes.planes) {
    packed.push_back(BitStream::pack(plane));
  }
  props::PackedNamedPlanes packed_planes;
  packed_planes.names = planes.names;
  for (const auto& stream : packed) packed_planes.planes.push_back(&stream);

  const std::vector<bool> expected =
      props::evaluate_reference(property, planes);
  const BitStream actual = props::evaluate_packed(property, packed_planes);
  ASSERT_EQ(actual, BitStream::pack(expected))
      << context << ", property " << props::to_string(property);
}

// ------------------------------------------------------------ the parser

TEST(PropertyParser, RoundTripsCanonicalText) {
  const std::vector<std::string> canonical = {
      "A",
      "!A",
      "A & B & C",
      "A | B & C",
      "A -> B -> C",
      "G A",
      "F (A -> B)",
      "F[0,80] GFP",
      "G[0,0] A",
      "A U[0,5] B U[0,7] C",
      "settle[12] GFP",
      "noglitch[5] GFP",
      "G (C -> F[0,80] GFP) & noglitch[5] GFP",
      "(A | B) U[0,3] C",
      "(A -> B) -> C",
      "!(A & B)",
  };
  for (const std::string& text : canonical) {
    const PropertyPtr parsed = props::parse_property(text);
    EXPECT_EQ(props::to_string(*parsed), text);
    // Parsing the canonical form again yields the same canonical form.
    EXPECT_EQ(props::to_string(*props::parse_property(
                  props::to_string(*parsed))),
              text);
  }
}

TEST(PropertyParser, WhitespaceIsInsignificant) {
  const PropertyPtr spaceless =
      props::parse_property("G(C->F[0,80]GFP)&noglitch[5]GFP");
  const PropertyPtr spaced =
      props::parse_property("  G ( C -> F[0,80]\tGFP ) & noglitch[5] GFP ");
  EXPECT_EQ(props::to_string(*spaceless),
            "G (C -> F[0,80] GFP) & noglitch[5] GFP");
  EXPECT_EQ(props::to_string(*spaceless), props::to_string(*spaced));
}

TEST(PropertyParser, PrecedenceAndAssociativityPins) {
  // -> is right-associative and loosest.
  PropertyPtr p = props::parse_property("A->B->C");
  ASSERT_EQ(p->kind, PropertyKind::kImplies);
  EXPECT_EQ(p->left->kind, PropertyKind::kAtom);
  EXPECT_EQ(p->right->kind, PropertyKind::kImplies);

  // & binds tighter than |, both left-associative.
  p = props::parse_property("A|B&C");
  ASSERT_EQ(p->kind, PropertyKind::kOr);
  EXPECT_EQ(p->right->kind, PropertyKind::kAnd);
  p = props::parse_property("A&B&C");
  ASSERT_EQ(p->kind, PropertyKind::kAnd);
  EXPECT_EQ(p->left->kind, PropertyKind::kAnd);
  EXPECT_EQ(p->right->kind, PropertyKind::kAtom);

  // U[0,k] binds tighter than & and is right-associative. (U and its
  // operands need lexical separation — "AU" is a single identifier.)
  p = props::parse_property("A U[0,2]B U[0,3]C");
  ASSERT_EQ(p->kind, PropertyKind::kUntilBounded);
  EXPECT_EQ(p->bound, 2u);
  ASSERT_EQ(p->right->kind, PropertyKind::kUntilBounded);
  EXPECT_EQ(p->right->bound, 3u);
  p = props::parse_property("A U[0,2]B&C");
  ASSERT_EQ(p->kind, PropertyKind::kAnd);
  EXPECT_EQ(p->left->kind, PropertyKind::kUntilBounded);

  // Prefix operators bind tightest and nest.
  p = props::parse_property("!G A");
  ASSERT_EQ(p->kind, PropertyKind::kNot);
  ASSERT_EQ(p->left->kind, PropertyKind::kGlobally);
  EXPECT_EQ(p->left->left->kind, PropertyKind::kAtom);
  p = props::parse_property("G[0,5]A&B");
  ASSERT_EQ(p->kind, PropertyKind::kAnd);
  EXPECT_EQ(p->left->kind, PropertyKind::kGloballyBounded);
  EXPECT_EQ(p->left->bound, 5u);
}

TEST(PropertyParser, PrinterInsertsMinimalParens) {
  using namespace props;
  const PropertyPtr a = make_atom("A");
  const PropertyPtr b = make_atom("B");
  const PropertyPtr c = make_atom("C");
  EXPECT_EQ(to_string(*make_and(make_or(a, b), c)), "(A | B) & C");
  EXPECT_EQ(to_string(*make_or(make_and(a, b), c)), "A & B | C");
  EXPECT_EQ(to_string(*make_not(make_and(a, b))), "!(A & B)");
  EXPECT_EQ(to_string(*make_globally(make_implies(a, b))), "G (A -> B)");
  EXPECT_EQ(to_string(*make_implies(make_implies(a, b), c)),
            "(A -> B) -> C");
  EXPECT_EQ(to_string(*make_until_bounded(make_or(a, b), 3, c)),
            "(A | B) U[0,3] C");
  EXPECT_EQ(to_string(*make_until_bounded(make_until_bounded(a, 1, b), 2, c)),
            "(A U[0,1] B) U[0,2] C");
  EXPECT_EQ(to_string(*make_and(make_until_bounded(a, 3, b), c)),
            "A U[0,3] B & C");
}

TEST(PropertyParser, FuzzRoundTripParsePrintParse) {
  sim::Rng rng(20260808);
  for (int i = 0; i < 500; ++i) {
    const PropertyPtr p = random_property(4, kAtomNames, rng);
    const std::string text = props::to_string(*p);
    const PropertyPtr reparsed = props::parse_property(text);
    ASSERT_EQ(props::to_string(*reparsed), text) << "iteration " << i;
  }
}

void expect_parse_error(const std::string& text, const std::string& message,
                        std::size_t column) {
  try {
    (void)props::parse_property(text);
    FAIL() << "no ParseError for: " << text;
  } catch (const ParseError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find(message), std::string::npos)
        << "input " << text << ": " << what;
    EXPECT_EQ(error.line(), 1u) << "input " << text;
    EXPECT_EQ(error.column(), column) << "input " << text << ": " << what;
  }
}

TEST(PropertyParser, RejectsMalformedInputPerProduction) {
  // Lexer.
  expect_parse_error("A - B", "unexpected character '-' (did you mean '->'?)",
                     3);
  expect_parse_error("A @ B", "unexpected character '@'", 3);
  expect_parse_error("F[0,18446744073709551616] A", "bound out of range", 5);
  // property := or_expr ('->' property)?
  expect_parse_error("A ->", "expected an atom, a prefix operator, or '('",
                     5);
  expect_parse_error("A B", "trailing input after property, starting at 'B'",
                     3);
  // or / and operands.
  expect_parse_error("A |", "expected an atom, a prefix operator, or '('", 4);
  expect_parse_error("A & )", "expected an atom, a prefix operator, or '('",
                     5);
  // until := unary ('U' '[0,k]' until)?
  expect_parse_error("A U B", "'U' requires explicit bounds: p U[0,k] q", 3);
  expect_parse_error("U[0,3] A",
                     "'U' is an infix operator and cannot begin a property",
                     1);
  // unary := ... '(' property ')'
  expect_parse_error("(A", "expected ')' to close '(', got end of input", 3);
  expect_parse_error("", "expected an atom, a prefix operator, or '('", 1);
  expect_parse_error("3", "expected an atom, a prefix operator, or '('", 1);
  // interval := '[' number ',' number ']'
  expect_parse_error("F[,3] A",
                     "expected a number as the interval lower bound, got ','",
                     3);
  expect_parse_error("F[0 3] A",
                     "expected ',' between interval bounds, got '3'", 5);
  expect_parse_error("F[0,] A",
                     "expected a number as the interval upper bound, got ']'",
                     5);
  expect_parse_error("F[0,3) A", "unbalanced bounds: expected ']', got ')'",
                     6);
  expect_parse_error("F[3,1] A", "empty interval [3,1]", 2);
  expect_parse_error("F[1,3] A",
                     "only [0,k] intervals are supported (lower bound must "
                     "be 0)",
                     3);
  // single_bound := '[' number ']'
  expect_parse_error("settle A", "'settle' requires a bound: settle[k]", 1);
  expect_parse_error("noglitch[] A",
                     "expected a number as the 'noglitch' bound, got ']'",
                     10);
  expect_parse_error("settle[3,4] A",
                     "unbalanced bounds: expected ']', got ','", 9);
}

TEST(PropertyAst, CollectAtomsDedupsInAppearanceOrder) {
  const PropertyPtr p =
      props::parse_property("G (C -> F[0,9] A) & C U[0,2] B & A");
  EXPECT_EQ(props::collect_atoms(*p),
            (std::vector<std::string>{"C", "A", "B"}));
  props::validate_atoms(*p, {"A", "B", "C"});
  try {
    props::validate_atoms(*p, {"A", "C"});
    FAIL() << "no InvalidArgument for unknown atom";
  } catch (const InvalidArgument& error) {
    EXPECT_EQ(std::string(error.what()),
              "property: unknown atom 'B' (available planes: A, C)");
  }
}

// -------------------------------------------- evaluators: hand semantics

TEST(PropertyEvaluators, HandComputedOperatorPins) {
  const std::vector<bool> v = {true, true, false, true};
  const std::vector<bool> expected_g = {false, false, false, true};
  const std::vector<bool> expected_f = {true, true, true, true};
  auto planes = named({v});
  const auto eval = [&](const std::string& text,
                        const props::NamedPlanes& on) {
    return props::evaluate_reference(*props::parse_property(text), on);
  };
  EXPECT_EQ(eval("G A", planes), expected_g);
  EXPECT_EQ(eval("F A", planes), expected_f);
  EXPECT_EQ(eval("F A", named({{false, false}})),
            (std::vector<bool>{false, false}));

  // Truncated windows: the window is [j, min(j+k, n-1)].
  EXPECT_EQ(eval("F[0,1] A", named({{false, true, false, false}})),
            (std::vector<bool>{true, true, false, false}));
  EXPECT_EQ(eval("G[0,1] A", planes),
            (std::vector<bool>{true, false, false, true}));

  // p U[0,2] q: q within the window, p strictly before it.
  EXPECT_EQ(eval("A U[0,2] B", named({{true, true, false, false},
                                      {false, false, true, false}})),
            (std::vector<bool>{true, true, true, false}));

  // settle[k]: the signal is at its final value from sample j+k on.
  EXPECT_EQ(eval("settle[0] A", named({{false, true, true, true}})),
            (std::vector<bool>{false, true, true, true}));
  EXPECT_EQ(eval("settle[1] A", named({{false, true, true, true}})),
            (std::vector<bool>{true, true, true, true}));

  // noglitch[k]: interior constant runs shorter than k violate; runs
  // touching either trace boundary are exempt.
  const std::vector<bool> glitchy = {true, false, false, true, true, false};
  EXPECT_EQ(eval("noglitch[2] A", named({glitchy})),
            (std::vector<bool>{true, true, true, true, true, true}));
  EXPECT_EQ(eval("noglitch[3] A", named({glitchy})),
            (std::vector<bool>{true, false, false, false, false, true}));

  // Every pinned case agrees with the packed monitor too.
  for (const char* text :
       {"G A", "F A", "F[0,1] A", "G[0,1] A", "settle[0] A", "settle[1] A",
        "noglitch[2] A", "noglitch[3] A"}) {
    expect_backends_agree(*props::parse_property(text), named({glitchy}),
                          "hand pin");
  }
}

TEST(PropertyEvaluators, RejectUnknownAtomsAndMismatchedLengths) {
  const PropertyPtr p = props::parse_property("A & B");
  props::NamedPlanes planes = named({{true}, {false}});
  EXPECT_THROW((void)props::evaluate_reference(
                   *props::parse_property("A & X"), planes),
               InvalidArgument);
  props::NamedPlanes ragged = planes;
  ragged.planes[1] = {false, true};
  EXPECT_THROW((void)props::evaluate_reference(*p, ragged), InvalidArgument);

  const BitStream a = BitStream::pack({true});
  const BitStream b = BitStream::pack({false, true});
  props::PackedNamedPlanes packed;
  packed.names = {"A", "B"};
  packed.planes = {&a, &b};
  EXPECT_THROW((void)props::evaluate_packed(*p, packed), InvalidArgument);
  packed.planes = {&a, &a};
  EXPECT_THROW((void)props::evaluate_packed(
                   *props::parse_property("A & X"), packed),
               InvalidArgument);
}

// --------------------------------------------------- differential fuzz

/// The adversarial plane families: dense random bits, the degenerate
/// constants, single glitches at the 64-bit word boundaries, and short
/// periodic toggles (every period straddles words eventually).
std::vector<std::vector<std::vector<bool>>> plane_families(std::size_t n,
                                                           sim::Rng& rng) {
  const auto constant = [n](bool value) {
    return std::vector<bool>(n, value);
  };
  const auto glitch_at = [n](std::size_t position) {
    std::vector<bool> plane(n, true);
    if (n != 0) plane[std::min(position, n - 1)] = false;
    return plane;
  };
  const auto period = [n](std::size_t k) {
    std::vector<bool> plane(n);
    for (std::size_t j = 0; j < n; ++j) plane[j] = (j / k) % 2 == 0;
    return plane;
  };
  return {
      {random_bools(n, rng), random_bools(n, rng), random_bools(n, rng)},
      {constant(false), constant(true), random_bools(n, rng)},
      {glitch_at(63), glitch_at(64), glitch_at(65)},
      {period(1), period(3), period(64)},
  };
}

TEST(PropertyDifferentialFuzz, PackedMatchesReference) {
  // Four seeded rounds of random properties over every plane family.
  for (std::uint64_t round = 0; round < 4; ++round) {
    sim::Rng rng(0xB16F00D + round);
    for (const std::size_t n :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{63},
          std::size_t{64}, std::size_t{65}, std::size_t{127},
          std::size_t{128}, std::size_t{129}, std::size_t{1000},
          std::size_t{4097}}) {
      for (const auto& family : plane_families(n, rng)) {
        const props::NamedPlanes planes = named(family);
        for (int rep = 0; rep < 6; ++rep) {
          const PropertyPtr property = random_property(3, kAtomNames, rng);
          expect_backends_agree(
              *property, planes,
              "round " + std::to_string(round) + ", n " + std::to_string(n));
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

// ------------------------------------------------------- the check runner

core::ExperimentConfig small_config() {
  core::ExperimentConfig config;
  config.total_time = 120.0;
  config.sampling_period = 1.0;
  config.seed = 99;
  return config;
}

std::vector<PropertyPtr> small_properties() {
  return {props::parse_property("G (A -> F[0,30] GFP)"),
          props::parse_property("noglitch[3] GFP")};
}

void expect_check_results_equal(const props::CheckResult& a,
                                const props::CheckResult& b) {
  ASSERT_EQ(a.sample_count, b.sample_count);
  ASSERT_EQ(a.replicate_seeds, b.replicate_seeds);
  ASSERT_EQ(a.first.properties.size(), b.first.properties.size());
  for (std::size_t i = 0; i < a.first.properties.size(); ++i) {
    const props::PropertyCheck& pa = a.first.properties[i];
    const props::PropertyCheck& pb = b.first.properties[i];
    EXPECT_EQ(pa.property, pb.property);
    EXPECT_EQ(pa.samples, pb.samples);
    EXPECT_EQ(pa.satisfied, pb.satisfied);
    EXPECT_EQ(pa.first_violation, pb.first_violation);
    ASSERT_EQ(pa.combinations.size(), pb.combinations.size());
    for (std::size_t c = 0; c < pa.combinations.size(); ++c) {
      EXPECT_EQ(pa.combinations[c].samples, pb.combinations[c].samples);
      EXPECT_EQ(pa.combinations[c].satisfied, pb.combinations[c].satisfied);
      EXPECT_EQ(pa.combinations[c].first_violation,
                pb.combinations[c].first_violation);
    }
  }
  ASSERT_EQ(a.properties.size(), b.properties.size());
  for (std::size_t i = 0; i < a.properties.size(); ++i) {
    EXPECT_EQ(a.properties[i].fraction.mean, b.properties[i].fraction.mean);
    EXPECT_EQ(a.properties[i].violated_replicates,
              b.properties[i].violated_replicates);
  }
}

TEST(CheckRunner, JobCountsAreBitIdentical) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  const auto properties = small_properties();
  const props::CheckResult packed =
      props::run_check(spec, small_config(), properties, 2, 1);
  EXPECT_EQ(packed.replicate_count, 2u);
  EXPECT_EQ(packed.input_names, spec.input_ids);
  EXPECT_GT(packed.sample_count, 0u);
  EXPECT_EQ(packed.first.properties.size(), properties.size());
  // Per-combination counts partition the per-replicate totals.
  for (const props::PropertyCheck& property : packed.first.properties) {
    std::size_t samples = 0;
    std::size_t satisfied = 0;
    std::size_t first_violation = props::kNoViolation;
    for (const props::CombinationCheck& comb : property.combinations) {
      samples += comb.samples;
      satisfied += comb.satisfied;
      first_violation = std::min(first_violation, comb.first_violation);
    }
    EXPECT_EQ(samples, property.samples);
    EXPECT_EQ(satisfied, property.satisfied);
    EXPECT_EQ(first_violation, property.first_violation);
  }

  expect_check_results_equal(
      packed, props::run_check(spec, small_config(), properties, 2, 3));
}

/// Replicate 0 of `result` recomputed with the reference evaluator: the
/// same simulation, digitized into vector<bool> planes, each property's
/// naive verdict reduced sample by sample per input combination.
void expect_matches_reference(const circuits::CircuitSpec& spec,
                              const core::ExperimentConfig& config,
                              const std::vector<PropertyPtr>& properties,
                              const props::CheckResult& result) {
  sim::LabOptions lab_options;
  lab_options.sampling_period = config.sampling_period;
  lab_options.seed = result.replicate_seeds[0];
  sim::VirtualLab lab(spec.model, lab_options);
  lab.declare_inputs(spec.input_ids);
  const sim::Trace trace =
      lab.run_combination_sweep(config.total_time, config.high_level()).trace;
  const core::DigitalData data = core::digitize(
      trace, spec.input_ids, spec.output_id, config.threshold);

  props::NamedPlanes planes;
  planes.names = spec.input_ids;
  planes.names.push_back(spec.output_id);
  planes.planes = data.inputs;
  planes.planes.push_back(data.output);

  ASSERT_EQ(result.first.properties.size(), properties.size());
  for (std::size_t i = 0; i < properties.size(); ++i) {
    const std::vector<bool> verdict =
        props::evaluate_reference(*properties[i], planes);
    std::vector<props::CombinationCheck> expected(
        std::size_t{1} << spec.input_ids.size());
    for (std::size_t k = 0; k < verdict.size(); ++k) {
      props::CombinationCheck& comb =
          expected[testutil::naive_combination(data.inputs, k)];
      ++comb.samples;
      if (verdict[k]) {
        ++comb.satisfied;
      } else if (comb.first_violation == props::kNoViolation) {
        comb.first_violation = k;
      }
    }
    const props::PropertyCheck& actual = result.first.properties[i];
    EXPECT_EQ(actual.samples, verdict.size());
    EXPECT_EQ(actual.satisfied, testutil::naive_popcount(verdict));
    ASSERT_EQ(actual.combinations.size(), expected.size());
    std::size_t observed = 0;
    for (std::size_t c = 0; c < expected.size(); ++c) {
      EXPECT_EQ(actual.combinations[c].combination, c);
      EXPECT_EQ(actual.combinations[c].samples, expected[c].samples) << c;
      EXPECT_EQ(actual.combinations[c].satisfied, expected[c].satisfied) << c;
      EXPECT_EQ(actual.combinations[c].first_violation,
                expected[c].first_violation)
          << c;
      if (expected[c].samples > 0) ++observed;
    }
    EXPECT_EQ(observed, expected.size());  // the sweep applies every one
  }
}

TEST(CheckRunner, WideCircuitsMatchTheReferenceEvaluator) {
  // 7 and 10 inputs: beyond the catalog, through the digitize and memory
  // sinks respectively.
  for (const std::size_t inputs : {7u, 10u}) {
    const circuits::CircuitSpec spec = testutil::nor_tree_spec(inputs);
    core::ExperimentConfig config;
    config.total_time = 12.0 * static_cast<double>(std::size_t{1} << inputs);
    config.seed = 17;
    config.sink =
        inputs == 7 ? store::SinkKind::kDigitize : store::SinkKind::kMemory;
    const std::vector<PropertyPtr> properties = {
        props::parse_property("G (I0 -> F[0,30] GFP)"),
        props::parse_property("noglitch[3] GFP")};
    SCOPED_TRACE(::testing::Message() << inputs << " inputs");
    expect_matches_reference(spec, config, properties,
                             props::run_check(spec, config, properties, 1, 1));
  }
}

TEST(CheckRunner, SinksAreBitIdenticalAndSpillRunsOutOfCore) {
  // The spill path replays the .glvt straight into the streaming ADC (no
  // trace re-materialization); it must match the memory path bit for bit
  // — same seed, same samples, same verdict words.
  const auto spec = circuits::CircuitRepository::build("0x1");
  const auto properties = small_properties();
  const props::CheckResult memory =
      props::run_check(spec, small_config(), properties, 2, 1);

  core::ExperimentConfig spill_config = small_config();
  spill_config.sink = store::SinkKind::kSpill;
  spill_config.spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "check_spill").string();
  expect_check_results_equal(
      memory, props::run_check(spec, spill_config, properties, 2, 2));
  // One .glvt per replicate, so parallel replicates never share a file.
  for (std::size_t r = 0; r < 2; ++r) {
    EXPECT_TRUE(std::filesystem::exists(
        std::filesystem::path(spill_config.spill_dir) /
        (spec.name + "-s99-r" + std::to_string(r) + ".glvt")))
        << "replicate " << r;
  }

  core::ExperimentConfig digitize_config = small_config();
  digitize_config.sink = store::SinkKind::kDigitize;
  expect_check_results_equal(
      memory, props::run_check(spec, digitize_config, properties, 2, 1));

  // With a spill directory, the digitize sink also tees a per-replicate
  // bit-plane artifact that must open as a readable kBits file.
  digitize_config.spill_dir =
      (std::filesystem::path(::testing::TempDir()) / "check_tee").string();
  expect_check_results_equal(
      memory, props::run_check(spec, digitize_config, properties, 2, 2));
  for (std::size_t r = 0; r < 2; ++r) {
    const auto path = std::filesystem::path(digitize_config.spill_dir) /
                      (spec.name + "-s99-r" + std::to_string(r) + ".glvt");
    ASSERT_TRUE(std::filesystem::exists(path)) << "replicate " << r;
    store::SpillReader reader(path.string());
    EXPECT_EQ(reader.content_kind(), store::glvt::ContentKind::kBits);
    EXPECT_EQ(reader.read_planes().size(), spec.input_ids.size() + 1);
  }
}

TEST(CheckRunner, ObserverSeesEveryReplicateInOrder) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  std::vector<std::size_t> seen;
  const props::CheckResult result = props::run_check(
      spec, small_config(), small_properties(), 3, 2,
      [&](std::size_t replicate, const props::CheckReplicate& detail) {
        seen.push_back(replicate);
        EXPECT_EQ(detail.properties.size(), 2u);
      });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(result.replicate_seeds.size(), 3u);
}

TEST(CheckRunner, RejectsBadArguments) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  const auto properties = small_properties();
  EXPECT_THROW((void)props::run_check(spec, small_config(), properties, 0, 1),
               InvalidArgument);
  EXPECT_THROW((void)props::run_check(spec, small_config(), {}, 1, 1),
               InvalidArgument);
  EXPECT_THROW((void)props::run_check(
                   spec, small_config(),
                   {props::parse_property("G nosuchplane")}, 1, 1),
               InvalidArgument);
  core::ExperimentConfig bad = small_config();
  bad.sink = store::SinkKind::kSpill;  // no spill_dir
  EXPECT_THROW((void)props::run_check(spec, bad, properties, 1, 1),
               InvalidArgument);
}

TEST(CheckRunner, RenderedSummaryIsDeterministic) {
  const auto spec = circuits::CircuitRepository::build("0x1");
  const props::CheckResult result =
      props::run_check(spec, small_config(), small_properties(), 2, 2);
  const std::string a = props::render_check_summary(result, 0.5);
  const std::string b = props::render_check_summary(
      props::run_check(spec, small_config(), small_properties(), 2, 1), 0.5);
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("replicates: 2"), std::string::npos);
  EXPECT_NE(a.find("verdict:"), std::string::npos);
}

}  // namespace
