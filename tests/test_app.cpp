// Tests for the `glva` CLI (driven through run_cli with captured streams).

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "app/commands.h"
#include "sbml/reader.h"
#include "sbol/sbol_io.h"

namespace {

using glva::app::run_cli;

struct CliResult {
  int code;
  std::string out;
  std::string err;
};

CliResult run(const std::vector<std::string>& args) {
  std::ostringstream out;
  std::ostringstream err;
  const int code = run_cli(args, out, err);
  return {code, out.str(), err.str()};
}

/// Temp file that cleans up after itself.
class TempPath {
public:
  explicit TempPath(std::string name) : path_("glva_test_" + std::move(name)) {}
  ~TempPath() { std::remove(path_.c_str()); }
  [[nodiscard]] const std::string& str() const noexcept { return path_; }

private:
  std::string path_;
};

TEST(Cli, NoArgumentsPrintsUsageAndFails) {
  const auto result = run({});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.out.find("usage: glva"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  EXPECT_EQ(run({"help"}).code, 0);
  EXPECT_EQ(run({"--help"}).code, 0);
}

TEST(Cli, UnknownCommandFails) {
  const auto result = run({"frobnicate"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("unknown command"), std::string::npos);
}

TEST(Cli, ListShowsAllFifteenCircuits) {
  const auto result = run({"list"});
  EXPECT_EQ(result.code, 0);
  for (const char* name : {"myers_and", "0x0B", "0x17", "0x80"}) {
    EXPECT_NE(result.out.find(name), std::string::npos) << name;
  }
}

TEST(Cli, ShowPrintsTruthTable) {
  const auto result = run({"show", "0x0B"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("A B C | GFP"), std::string::npos);
  EXPECT_NE(result.out.find("Cello-style"), std::string::npos);
}

TEST(Cli, ShowUnknownCircuitFails) {
  const auto result = run({"show", "0xFF"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("0xFF"), std::string::npos);
}

TEST(Cli, ExportWritesLoadableSbmlAndSbol) {
  TempPath sbml_path("export.sbml");
  TempPath sbol_path("export.sbol");
  const auto result = run({"export", "0x8", "--sbml", sbml_path.str(),
                           "--sbol", sbol_path.str()});
  EXPECT_EQ(result.code, 0);
  const auto model = glva::sbml::read_sbml_file(sbml_path.str());
  EXPECT_EQ(model.species.size(), 5u);
  const auto design = glva::sbol::read_design_file(sbol_path.str());
  EXPECT_NO_THROW(design.check());
}

TEST(Cli, ExportWithoutTargetsIsUsageError) {
  EXPECT_EQ(run({"export", "0x8"}).code, 2);
}

TEST(Cli, ExportSbolOfMyersCircuitExplainsRefusal) {
  TempPath path("myers.sbol");
  const auto result = run({"export", "myers_and", "--sbol", path.str()});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("behavioural"), std::string::npos);
}

TEST(Cli, VerifyCatalogCircuitSucceeds) {
  const auto result = run({"verify", "0x1C", "--total-time", "10000"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("MATCH"), std::string::npos);
  EXPECT_NE(result.out.find("fitness"), std::string::npos);
}

TEST(Cli, VerifyAtBadThresholdFailsWithWrongStates) {
  const auto result = run({"verify", "0x0B", "--threshold", "3"});
  EXPECT_EQ(result.code, 1);
  EXPECT_NE(result.out.find("wrong state"), std::string::npos);
}

TEST(Cli, AnalyzeExportedModelRoundTrips) {
  TempPath sbml_path("analyze.sbml");
  ASSERT_EQ(run({"export", "0xE", "--sbml", sbml_path.str()}).code, 0);
  // 0xE is OR: expected bits {01,10,11} = 0b1110 = 0xE (the catalog pun).
  const auto result =
      run({"analyze", sbml_path.str(), "--inputs", "A,B", "--output", "GFP",
           "--expected", "0xE"});
  EXPECT_EQ(result.code, 0) << result.err;
  EXPECT_NE(result.out.find("MATCH"), std::string::npos);
}

TEST(Cli, AnalyzeRequiresInputs) {
  TempPath sbml_path("noinputs.sbml");
  ASSERT_EQ(run({"export", "0xE", "--sbml", sbml_path.str()}).code, 0);
  const auto result = run({"analyze", sbml_path.str()});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--inputs"), std::string::npos);
}

TEST(Cli, AnalyzeWritesCsv) {
  TempPath sbml_path("csv.sbml");
  TempPath csv_path("analytics.csv");
  ASSERT_EQ(run({"export", "0x1", "--sbml", sbml_path.str()}).code, 0);
  const auto result = run({"analyze", sbml_path.str(), "--inputs", "A,B",
                           "--csv", csv_path.str()});
  EXPECT_EQ(result.code, 0);
  std::ifstream csv(csv_path.str());
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_NE(header.find("case,case_count"), std::string::npos);
}

TEST(Cli, VerifyWithDigitizeSinkMatchesMemorySink) {
  const auto memory =
      run({"verify", "myers_and", "--total-time", "600", "--seed", "4"});
  const auto digitize = run({"verify", "myers_and", "--total-time", "600",
                             "--seed", "4", "--sink", "digitize"});
  EXPECT_EQ(memory.code, digitize.code);
  // The analytics table and verdict are identical; only timing lines (and
  // the sink's storage strategy) differ.
  EXPECT_EQ(memory.out.substr(0, memory.out.find("timing:")),
            digitize.out.substr(0, digitize.out.find("timing:")));
}

TEST(Cli, SpillSinkWithoutDirIsUsageError) {
  const auto result =
      run({"verify", "myers_not", "--total-time", "100", "--sink", "spill"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("--spill-dir"), std::string::npos);
}

TEST(Cli, UnknownSinkIsUsageError) {
  const auto result =
      run({"verify", "myers_not", "--total-time", "100", "--sink", "tape"});
  EXPECT_EQ(result.code, 2);
  EXPECT_NE(result.err.find("mem | spill | digitize"), std::string::npos);
}

TEST(Cli, EnsembleFailureLeavesNoPartialAnalyticsCsv) {
  // The analytics CSV streams into a temp file renamed onto --csv only
  // after a successful run: a replicate failure (unwritable spill
  // directory) must leave no half-fleet CSV behind — and must not
  // destroy a result file from an earlier successful run.
  TempPath csv_path("ensemble_partial.csv");
  TempPath temp_path("ensemble_partial.csv.partial");
  {
    std::ofstream previous(csv_path.str(), std::ios::binary);
    previous << "previous successful result\n";
  }
  const auto result =
      run({"ensemble", "0x1", "--replicates", "2", "--total-time", "200",
           "--csv", csv_path.str(), "--sink", "spill", "--spill-dir",
           "/proc/glva-nonexistent/spill"});
  EXPECT_EQ(result.code, 2);
  EXPECT_FALSE(std::filesystem::exists(temp_path.str()));
  std::ifstream survivor(csv_path.str(), std::ios::binary);
  std::string first_line;
  ASSERT_TRUE(std::getline(survivor, first_line));
  EXPECT_EQ(first_line, "previous successful result");
}

TEST(Cli, EnsembleWritesConfidenceCsv) {
  TempPath ci_path("ensemble_ci.csv");
  const auto result =
      run({"ensemble", "0x1", "--replicates", "3", "--total-time", "400",
           "--seed", "42", "--ci-csv", ci_path.str()});
  EXPECT_NE(result.out.find("95% normal CI"), std::string::npos);
  std::ifstream csv(ci_path.str());
  std::string header;
  ASSERT_TRUE(std::getline(csv, header));
  EXPECT_NE(header.find("metric,mean,stddev,ci95_low,ci95_high"),
            std::string::npos);
  std::string row;
  ASSERT_TRUE(std::getline(csv, row));
  EXPECT_NE(row.find("pfobe_percent"), std::string::npos);
}

TEST(Cli, EstimatePrintsThresholdAndDelay) {
  const auto result = run({"estimate", "myers_not", "--total-time", "6000"});
  EXPECT_EQ(result.code, 0);
  EXPECT_NE(result.out.find("threshold estimate"), std::string::npos);
  EXPECT_NE(result.out.find("recommended hold"), std::string::npos);
}

TEST(Cli, MissingSubcommandArgumentIsUsageError) {
  for (const char* command : {"show", "export", "analyze", "verify",
                              "estimate"}) {
    const auto result = run({command});
    EXPECT_EQ(result.code, 2) << command;
  }
}

}  // namespace
