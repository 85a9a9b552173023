#include "support/artifact.h"

#include <cstdlib>
#include <fstream>

#include "support/error.h"

#ifndef REVFT_GIT_SHA
#define REVFT_GIT_SHA "unknown"
#endif

namespace revft::artifact {

namespace {

json::Value provenance() {
  json::Value stamp = json::Value::object();
  stamp.set("git_sha", REVFT_GIT_SHA);
#if defined(__clang__)
  stamp.set("compiler", std::string("clang ") + __clang_version__);
#elif defined(__GNUC__)
  stamp.set("compiler", std::string("gcc ") + __VERSION__);
#else
  stamp.set("compiler", "unknown");
#endif
  return stamp;
}

}  // namespace

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kBench: return "bench";
    case Kind::kReport: return "report";
    case Kind::kTrace: return "trace";
    case Kind::kConv: return "conv";
  }
  return "unknown";
}

const char* kind_prefix(Kind kind) {
  switch (kind) {
    case Kind::kBench: return "BENCH_";
    case Kind::kReport: return "REPORT_";
    case Kind::kTrace: return "TRACE_";
    case Kind::kConv: return "CONV_";
  }
  return "UNKNOWN_";
}

std::string write(Kind kind, const std::string& name, const json::Value& body) {
  REVFT_CHECK_MSG(body.is_object(), "artifact " << name << ": body is not an object");
  std::string dir = ".";
  if (const char* env = std::getenv("REVFT_JSON_DIR")) {
    if (*env == '\0') return {};  // emission disabled
    dir = env;
  }
  const std::string path = dir + '/' + kind_prefix(kind) + name + ".json";

  json::Value doc = json::Value::object();
  doc.set("kind", kind_name(kind));
  doc.set("name", name);
  doc.set("provenance", provenance());
  for (const json::Member& m : body.members()) {
    if (m.first == "name") {
      REVFT_CHECK_MSG(m.second.kind() == json::Kind::kString &&
                          m.second.as_string() == name,
                      path << ": body \"name\" disagrees with the envelope");
      continue;
    }
    REVFT_CHECK_MSG(m.first != "kind" && m.first != "provenance",
                    path << ": body carries the envelope key \"" << m.first
                         << '"');
    doc.set(m.first, m.second);
  }

  std::ofstream out(path);
  REVFT_CHECK_MSG(out.good(), "cannot open artifact file " << path);
  out << doc.dump(2) << '\n';
  out.close();
  REVFT_CHECK_MSG(!out.fail(), "failed writing artifact file " << path);
  return path;
}

}  // namespace revft::artifact
