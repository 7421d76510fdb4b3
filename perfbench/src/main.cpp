// glva_perfbench: the GLVA benchmark program. run.py builds it and runs
//
//   glva_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR
//
// Untraced runs (--trace 0) print every end-to-end metric; traced runs
// (--trace 1) print every per-layer metric. The last line of standard
// output is one JSON object: {"correct", "attempted", "failed",
// "metrics": {name: {"value", "unit"}}}. Exit code 0 when every output
// was correct, 1 on a correctness failure, 2 on a usage or run error.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <iostream>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "glva_perfbench: " << why << "\n"
            << "usage: glva_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --work-dir DIR\n"
            << "workloads:";
  for (const auto& name : perfbench::workload_names()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

void print_report(const perfbench::Report& report) {
  for (const auto& m : report.metrics) {
    std::cout << m.name << " = " << json_number(m.value) << " " << m.unit
              << "\n";
  }
  std::cout << "failed_frac = "
            << json_number(report.attempted == 0
                               ? 0.0
                               : static_cast<double>(report.failed) /
                                     static_cast<double>(report.attempted))
            << " (" << report.failed << " of " << report.attempted << ")\n";
  std::cout << "{\"correct\": " << (report.correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const auto& m = report.metrics[i];
    std::cout << (i == 0 ? "" : ", ") << "\"" << m.name
              << "\": {\"value\": " << json_number(m.value) << ", \"unit\": \""
              << m.unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        options.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (flag == "--work-dir") {
        options.work_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) return usage("--workload is required");
  bool known = false;
  for (const auto& name : perfbench::workload_names()) {
    known = known || name == options.workload;
  }
  if (!known) return usage("unknown workload " + options.workload);
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");
  if (options.work_dir.empty()) return usage("--work-dir is required");

  namespace fs = std::filesystem;
  int status = 2;
  try {
    fs::remove_all(options.work_dir);
    fs::create_directories(options.work_dir);
    std::cout << "workload " << options.workload << ", seed " << options.seed
              << ", " << options.seconds << " s, trace "
              << (options.trace ? 1 : 0) << "\n";
    const perfbench::Report report = options.trace
                                         ? perfbench::run_traced(options)
                                         : perfbench::run_workload(options);
    print_report(report);
    status = report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "glva_perfbench: " << e.what() << "\n";
    status = 2;
  }
  std::error_code ignored;
  fs::remove_all(options.work_dir, ignored);
  return status;
}
