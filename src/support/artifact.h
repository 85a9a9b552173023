// revft/support/artifact.h
//
// The one writer for every machine-readable artifact the repo emits:
// BENCH_*.json (bench/bench_common's JsonResultWriter), REPORT_*.json
// (telemetry::RunReport), TRACE_*.json (Chrome traces) and CONV_*.json
// (telemetry::ConvergenceTrajectory). Each file is one JSON object
// whose first three keys are the envelope
//
//   {"kind": "report", "name": "<name>",
//    "provenance": {"git_sha": "...", "compiler": "..."}, <body keys>}
//
// followed by the body's own keys in their order. examples/
// telemetry_check validates the envelope once and dispatches on
// "kind", whose prefix the file's basename must carry.
//
// Where: $REVFT_JSON_DIR/<PREFIX>_<name>.json, the current directory
// when the variable is unset; REVFT_JSON_DIR="" disables emission.
// A file that cannot be opened or written throws revft::Error, for
// every kind alike.
//
// The git SHA is captured at CMake configure time (REVFT_GIT_SHA,
// defined on artifact.cpp only so switching commits does not rebuild
// the world); re-run cmake after switching commits to refresh it.
#pragma once

#include <string>

#include "support/json.h"

namespace revft::artifact {

enum class Kind { kBench, kReport, kTrace, kConv };

/// "bench", "report", "trace" or "conv" — the envelope's "kind".
const char* kind_name(Kind kind);

/// "BENCH_", "REPORT_", "TRACE_" or "CONV_" — the basename prefix.
const char* kind_prefix(Kind kind);

/// Write `body` (an object) inside the envelope to
/// $REVFT_JSON_DIR/<PREFIX>_<name>.json with dump(2). The body may
/// repeat "name" only with the same value (it then keeps the envelope
/// slot) and may not carry "kind" or "provenance". Returns the path
/// written, or "" when REVFT_JSON_DIR="" disables emission. Throws
/// revft::Error naming the path when the file cannot be written.
std::string write(Kind kind, const std::string& name, const json::Value& body);

}  // namespace revft::artifact
