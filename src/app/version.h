#pragma once

#include <string>

/// Build identification for operability: the `glva version` command and
/// the daemon's `status`/`version` responses report the same lines, so a
/// load-bench record or a bug report always carries the environment it
/// was measured in (version, build type, compiler, metrics switch).
namespace glva::app {

/// "glva <semver>" (e.g. "glva 0.1.0").
[[nodiscard]] std::string version_string();

/// Multi-line report: version, build configuration (build type, compiler,
/// C++ standard), and whether the metrics registry is compiled in.
[[nodiscard]] std::string version_report();

}  // namespace glva::app
