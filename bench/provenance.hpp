// Shared provenance block for every results/BENCH_*.json writer.
//
// The results/ directory is a trajectory: each PR re-runs the benches and
// commits the refreshed JSON. Without a provenance stamp the numbers are
// unattributable — was that regression a code change, a build-type switch,
// or a seed drift? Every writer emits this block right after its "bench"
// key, so any two result files can be diffed by (schema, commit, build,
// seed) before anyone argues about the payload.
//
// NVMENC_GIT_DESCRIBE and NVMENC_BUILD_TYPE are defined before this header
// is read: bench/json_file.hpp includes the stamp header that
// bench/CMakeLists.txt regenerates on every build (git describe --always
// --dirty), and benchmark/CMakeLists.txt passes compile definitions.
// Building outside git degrades to "unknown" rather than failing.
#pragma once

#include <string>

#include "common/types.hpp"

namespace nvmenc {

/// Bump when the shape of any BENCH_*.json payload changes incompatibly.
inline constexpr int kBenchSchemaVersion = 1;

#ifndef NVMENC_GIT_DESCRIBE
#define NVMENC_GIT_DESCRIBE "unknown"
#endif
#ifndef NVMENC_BUILD_TYPE
#define NVMENC_BUILD_TYPE "unknown"
#endif

/// One line of JSON (indented two spaces, trailing comma + newline):
///   "provenance": {"schema_version": N, "git": "...", ...},
/// Emit it immediately after the opening "bench" key so every result file
/// leads with its attribution.
[[nodiscard]] inline std::string provenance_json(u64 seed) {
  return std::string{"  \"provenance\": {\"schema_version\": "} +
         std::to_string(kBenchSchemaVersion) +
         ", \"git\": \"" NVMENC_GIT_DESCRIBE
         "\", \"build_type\": \"" NVMENC_BUILD_TYPE "\", \"seed\": " +
         std::to_string(seed) + "},\n";
}

}  // namespace nvmenc
