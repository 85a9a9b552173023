// telemetry_check — the CI gate over emitted JSON artifacts.
//
// Usage:  telemetry_check [--enforce-bars [--bars-matching SUBSTR]] FILE...
//
// Every file is parsed with the strict json::parse (duplicate keys and
// trailing garbage rejected), then its envelope is checked once (see
// support/artifact.h): a "kind" naming one of the four artifact kinds,
// whose prefix the file's basename must carry, a "name" string and a
// "provenance" object with the git_sha/compiler strings. The body is
// then validated according to the kind:
//
//   * BENCH_*.json   — bench_common's JsonResultWriter layout: "meta"
//     object, non-empty "results" object of objects;
//   * REPORT_*.json  — telemetry::RunReport::to_json(): rail table,
//     hot_rails permutation of the rail indices, segment table,
//     event accounting, metrics snapshot;
//   * TRACE_*.json   — Chrome trace: "traceEvents" array opening with
//     the ph:"M" process_name metadata record, every later record a
//     ph:"i" instant or a ph:"C" counter sample (the convergence
//     series) with the deterministic args payload;
//   * CONV_*.json    — telemetry::ConvergenceTrajectory::to_json(): a
//     streaming run's snapshot series. Beyond the schema, the series
//     itself is validated: trials strictly increase round over round,
//     and the Wilson half-width must not grow between consecutive
//     post-burn-in snapshots that saw no new failure at rate <= 1/2 —
//     the one regime where the half-width is provably monotone (new
//     failures legitimately widen it, so a raw monotonicity demand
//     would flake).
//
// With --enforce-bars, every key matching *_within_* (the acceptance
// bars the benches embed, e.g. disabled_within_1_03x or
// mean_max_replay_share_within_0_6) must be 1 — this is how CI turns
// an overhead or replay-share guard into a hard failure instead of a
// number in an artifact nobody reads. --bars-matching SUBSTR narrows
// enforcement to bar keys containing SUBSTR, so a CI job can gate on
// one bar family (e.g. the SIMD speedup) without adopting every other
// bar a shared artifact happens to embed. In this mode a REPORT_ file must
// also carry a non-empty segment table: "bars met" and "report never
// profiled anything" have to stay distinguishable. An unreadable file
// is always a failure, with or without bars.
//
// Exit status: 0 when every file checks out, 1 otherwise. An unknown
// kind, or a basename whose prefix disagrees with the kind, is an
// error — a typo'd artifact name should fail CI, not silently skip
// validation.
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "support/artifact.h"
#include "support/json.h"

using revft::json::ParseResult;
using revft::json::Value;
using Kind = revft::json::Kind;
namespace artifact = revft::artifact;

namespace {

int g_failures = 0;

// --bars-matching filter: empty enforces every *_within_* key.
std::string g_bar_filter;

void fail(const std::string& file, const std::string& what) {
  std::fprintf(stderr, "telemetry_check: %s: %s\n", file.c_str(), what.c_str());
  ++g_failures;
}

std::string basename_of(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? path : path.substr(slash + 1);
}

const Value* need(const std::string& file, const Value& obj,
                  const std::string& key, Kind kind) {
  const Value* v = obj.is_object() ? obj.find(key) : nullptr;
  if (v == nullptr) {
    fail(file, "missing key \"" + key + "\"");
    return nullptr;
  }
  if (v->kind() != kind) {
    fail(file, "key \"" + key + "\" has the wrong kind");
    return nullptr;
  }
  return v;
}

const Value* need_uint(const std::string& file, const Value& obj,
                       const std::string& key) {
  const Value* v = obj.is_object() ? obj.find(key) : nullptr;
  if (v == nullptr || v->kind() != Kind::kUint) {
    fail(file, "missing unsigned key \"" + key + "\"");
    return nullptr;
  }
  return v;
}

// -------------------------------------------------------------- envelope

/// The kind the envelope names, or nullopt (after a diagnostic) when
/// "kind" is missing or unknown or the basename's prefix disagrees.
std::optional<artifact::Kind> check_envelope(const std::string& file,
                                             const Value& doc) {
  need(file, doc, "name", Kind::kString);
  if (const Value* prov = need(file, doc, "provenance", Kind::kObject)) {
    need(file, *prov, "git_sha", Kind::kString);
    need(file, *prov, "compiler", Kind::kString);
  }
  const Value* kind = need(file, doc, "kind", Kind::kString);
  if (kind == nullptr) return std::nullopt;
  for (const artifact::Kind k : {artifact::Kind::kBench, artifact::Kind::kReport,
                                 artifact::Kind::kTrace, artifact::Kind::kConv}) {
    if (kind->as_string() != artifact::kind_name(k)) continue;
    const std::string prefix = artifact::kind_prefix(k);
    if (basename_of(file).rfind(prefix, 0) == 0) return k;
    fail(file, "kind \"" + kind->as_string() + "\" needs the basename prefix " +
                   prefix);
    return std::nullopt;
  }
  fail(file, "unknown kind \"" + kind->as_string() +
                 "\" (expected bench/report/trace/conv)");
  return std::nullopt;
}

// ---------------------------------------------------------------- BENCH_

void check_bench(const std::string& file, const Value& doc) {
  need(file, doc, "meta", Kind::kObject);
  const Value* results = need(file, doc, "results", Kind::kObject);
  if (results == nullptr) return;
  if (results->members().empty())
    fail(file, "\"results\" is empty — the bench emitted nothing");
  for (const auto& section : results->members())
    if (!section.second.is_object())
      fail(file, "results section \"" + section.first + "\" is not an object");
}

// --------------------------------------------------------------- REPORT_

void check_report(const std::string& file, const Value& doc, bool bars) {
  need_uint(file, doc, "trials");
  need_uint(file, doc, "seed");
  need(file, doc, "source", Kind::kString);

  const Value* rails = need(file, doc, "rails", Kind::kArray);
  std::size_t n_rails = 0;
  if (rails != nullptr) {
    n_rails = rails->elements().size();
    for (const Value& row : rails->elements()) {
      need_uint(file, row, "rail");
      need(file, row, "cells", Kind::kArray);
      need_uint(file, row, "fired");
      const Value* rate = row.is_object() ? row.find("rate") : nullptr;
      if (rate == nullptr || !rate->is_number())
        fail(file, "rail row is missing a numeric \"rate\"");
    }
  }

  // hot_rails must be a permutation of 0..n_rails-1 — a ranking that
  // drops or duplicates a rail is a report bug, not a style choice.
  if (const Value* hot = need(file, doc, "hot_rails", Kind::kArray)) {
    std::set<std::uint64_t> seen;
    for (const Value& v : hot->elements())
      if (v.kind() == Kind::kUint) seen.insert(v.as_uint());
    if (rails != nullptr &&
        (hot->elements().size() != n_rails || seen.size() != n_rails))
      fail(file, "\"hot_rails\" is not a permutation of the rail indices");
  }

  if (const Value* segs = need(file, doc, "segments", Kind::kArray)) {
    // Under --enforce-bars an empty segment table is a failure, not a
    // vacuous pass: a report whose run never produced a segment row
    // cannot testify that any per-segment bar was met.
    if (bars && segs->elements().empty())
      fail(file, "segment table is empty — bars cannot be enforced against "
                 "a report that profiled nothing");
    for (const Value& row : segs->elements()) {
      need_uint(file, row, "segment");
      need_uint(file, row, "replays");
      need_uint(file, row, "replay_ops");
      need(file, row, "straddling_ops", Kind::kArray);
    }
  }

  if (const Value* ev = need(file, doc, "events", Kind::kObject)) {
    need_uint(file, *ev, "emitted");
    need_uint(file, *ev, "dropped");
  }
  need(file, doc, "metrics", Kind::kObject);
}

// ---------------------------------------------------------------- TRACE_

void check_trace(const std::string& file, const Value& doc) {
  const Value* events = need(file, doc, "traceEvents", Kind::kArray);
  if (events == nullptr) return;
  if (events->elements().empty()) {
    fail(file, "\"traceEvents\" is empty — not even the metadata record");
    return;
  }
  const Value& meta = events->elements().front();
  const Value* ph = meta.is_object() ? meta.find("ph") : nullptr;
  if (ph == nullptr || ph->kind() != Kind::kString ||
      ph->as_string() != "M")
    fail(file, "first traceEvent is not the ph:\"M\" metadata record");

  for (std::size_t i = 1; i < events->elements().size(); ++i) {
    const Value& ev = events->elements()[i];
    need(file, ev, "name", Kind::kString);
    const Value* evph = ev.is_object() ? ev.find("ph") : nullptr;
    // Two record shapes are deterministic enough to ship: ph:"i"
    // instants (the event stream) and ph:"C" counter samples (the
    // convergence series). Anything else smells of wall-clock.
    if (evph == nullptr || evph->kind() != Kind::kString ||
        (evph->as_string() != "i" && evph->as_string() != "C")) {
      fail(file, "traceEvent is not a ph:\"i\" instant or ph:\"C\" counter");
      break;  // one diagnostic per file, not one per event
    }
    need_uint(file, ev, "ts");
    need(file, ev, "args", Kind::kObject);
  }
}

// ----------------------------------------------------------------- CONV_

const Value* need_number(const std::string& file, const Value& obj,
                         const std::string& key) {
  const Value* v = obj.is_object() ? obj.find(key) : nullptr;
  if (v == nullptr || !v->is_number()) {
    fail(file, "missing numeric key \"" + key + "\"");
    return nullptr;
  }
  return v;
}

void check_conv(const std::string& file, const Value& doc) {
  need(file, doc, "engine", Kind::kString);

  if (const Value* key = need(file, doc, "determinism_key", Kind::kObject)) {
    need_uint(file, *key, "trials");
    need_uint(file, *key, "seed");
    need_uint(file, *key, "batches_per_shard");
    need_uint(file, *key, "lane_words");
  }

  // Burn-in threshold for the half-width monotonicity check below.
  std::uint64_t min_trials = 0;
  if (const Value* policy = need(file, doc, "policy", Kind::kObject)) {
    need_number(file, *policy, "z");
    need_number(file, *policy, "target_half_width");
    need_number(file, *policy, "target_rel_half_width");
    need_number(file, *policy, "target_upper_bound");
    if (const Value* mt = need_uint(file, *policy, "min_trials"))
      min_trials = mt->as_uint();
    need_uint(file, *policy, "min_failures");
  }

  const Value* snaps = need(file, doc, "snapshots", Kind::kArray);
  std::uint64_t last_trials = 0;
  if (snaps != nullptr) {
    if (snaps->elements().empty())
      fail(file, "\"snapshots\" is empty — the run observed nothing");
    bool have_prev = false;
    std::uint64_t prev_trials = 0, prev_failures = 0;
    double prev_rate = 0.0, prev_hw = 0.0;
    bool prev_burned = false;
    for (const Value& row : snaps->elements()) {
      need_uint(file, row, "round");
      const Value* trials = need_uint(file, row, "trials");
      need_uint(file, row, "denominator");
      const Value* failures = need_uint(file, row, "failures");
      const Value* rate = need_number(file, row, "rate");
      const Value* hw = need_number(file, row, "half_width");
      if (trials == nullptr || failures == nullptr || rate == nullptr ||
          hw == nullptr)
        return;  // schema already failed; the series checks would lie

      if (have_prev && trials->as_uint() <= prev_trials) {
        fail(file, "snapshot trials are not strictly increasing");
        return;
      }
      // Sound half-width monotonicity: between consecutive post-burn-in
      // snapshots with EQUAL failure counts and rate <= 1/2 the Wilson
      // half-width provably shrinks as the denominator grows. Outside
      // that regime (a new failure landed, or rate > 1/2) no direction
      // is guaranteed, so nothing is demanded.
      const bool burned = trials->as_uint() >= min_trials;
      if (have_prev && prev_burned && burned &&
          failures->as_uint() == prev_failures && prev_rate <= 0.5 &&
          rate->as_double() <= 0.5 &&
          hw->as_double() > prev_hw + 1e-12) {
        fail(file, "half-width grew between failure-free snapshots");
        return;
      }
      have_prev = true;
      prev_trials = trials->as_uint();
      prev_failures = failures->as_uint();
      prev_rate = rate->as_double();
      prev_hw = hw->as_double();
      prev_burned = burned;
      last_trials = prev_trials;
    }
  }

  if (const Value* stop = need(file, doc, "stop", Kind::kObject)) {
    static const std::set<std::string> kReasons{
        "none", "exhausted", "half_width", "rel_half_width", "upper_bound"};
    if (const Value* reason = need(file, *stop, "reason", Kind::kString))
      if (kReasons.count(reason->as_string()) == 0)
        fail(file, "unknown stop reason \"" + reason->as_string() + "\"");
    need(file, *stop, "stopped_early", Kind::kBool);
    need_uint(file, *stop, "rounds");
    need_uint(file, *stop, "trials_budget");
    if (const Value* consumed = need_uint(file, *stop, "trials_consumed"))
      if (snaps != nullptr && consumed->as_uint() != last_trials)
        fail(file, "stop.trials_consumed disagrees with the last snapshot");
  }

  if (const Value* wall = need(file, doc, "wall", Kind::kObject)) {
    need_uint(file, *wall, "rounds");
    need_number(file, *wall, "total_seconds");
  }
}

// ------------------------------------------------------------------ bars

void enforce_bars(const std::string& file, const std::string& path,
                  const Value& v) {
  if (v.is_object()) {
    for (const auto& m : v.members()) {
      const std::string sub = path.empty() ? m.first : path + "." + m.first;
      if (m.first.find("_within_") != std::string::npos &&
          (g_bar_filter.empty() ||
           m.first.find(g_bar_filter) != std::string::npos)) {
        // Some emitters store bars as integers, some as doubles —
        // accept any numeric representation of exactly 1.
        const bool pass = m.second.is_number() && m.second.as_double() == 1.0;
        if (!pass) fail(file, "acceptance bar \"" + sub + "\" is not 1");
      }
      enforce_bars(file, sub, m.second);
    }
  } else if (v.is_array()) {
    for (const Value& e : v.elements()) enforce_bars(file, path, e);
  }
}

void check_file(const std::string& path, bool bars) {
  std::ifstream in(path);
  if (!in.good()) {
    fail(path, "cannot open");
    return;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const ParseResult parsed = revft::json::parse(buf.str());
  if (!parsed.ok) {
    fail(path, "parse error at byte " + std::to_string(parsed.offset) + ": " +
                   parsed.error);
    return;
  }

  const std::optional<artifact::Kind> kind = check_envelope(path, parsed.value);
  if (!kind) return;
  switch (*kind) {
    case artifact::Kind::kBench:
      check_bench(path, parsed.value);
      break;
    case artifact::Kind::kReport:
      check_report(path, parsed.value, bars);
      break;
    case artifact::Kind::kTrace:
      check_trace(path, parsed.value);
      break;
    case artifact::Kind::kConv:
      check_conv(path, parsed.value);
      break;
  }
  if (bars) enforce_bars(path, "", parsed.value);
}

}  // namespace

int main(int argc, char** argv) {
  bool bars = false;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--enforce-bars")
      bars = true;
    else if (arg == "--bars-matching" && i + 1 < argc)
      g_bar_filter = argv[++i];
    else
      files.push_back(arg);
  }
  if (files.empty()) {
    std::fprintf(stderr,
                 "usage: telemetry_check [--enforce-bars "
                 "[--bars-matching SUBSTR]] FILE...\n"
                 "validates BENCH_/REPORT_/TRACE_/CONV_ JSON artifacts\n");
    return 2;
  }
  for (const std::string& f : files) check_file(f, bars);
  if (g_failures == 0)
    std::printf("telemetry_check: %zu file(s) OK\n", files.size());
  return g_failures == 0 ? 0 : 1;
}
