// Unit tests for the support layer: RNG determinism and statistical
// sanity, running statistics, Wilson intervals, entropy math, exact
// integer helpers, the table formatter, the strict environment-knob
// parser and the artifact writer.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>

#include "support/artifact.h"
#include "support/entropy_math.h"
#include "support/env.h"
#include "support/error.h"
#include "support/json.h"
#include "support/mathutil.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/table.h"

namespace revft {
namespace {

// --- rng -------------------------------------------------------------

TEST(Rng, SameSeedSameStream) {
  Xoshiro256 a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge) {
  Xoshiro256 a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i)
    if (a.next() == b.next()) ++same;
  EXPECT_EQ(same, 0);
}

TEST(Rng, DoubleInUnitInterval) {
  Xoshiro256 rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    ASSERT_GE(d, 0.0);
    ASSERT_LT(d, 1.0);
  }
}

TEST(Rng, DoubleMeanNearHalf) {
  Xoshiro256 rng(11);
  RunningStat stat;
  for (int i = 0; i < 100000; ++i) stat.add(rng.next_double());
  EXPECT_NEAR(stat.mean(), 0.5, 0.01);
}

TEST(Rng, NextBelowRespectsBound) {
  Xoshiro256 rng(13);
  for (int i = 0; i < 10000; ++i) ASSERT_LT(rng.next_below(17), 17u);
}

TEST(Rng, NextBelowCoversAllResidues) {
  Xoshiro256 rng(17);
  std::vector<int> seen(10, 0);
  for (int i = 0; i < 10000; ++i) ++seen[rng.next_below(10)];
  for (int r = 0; r < 10; ++r) EXPECT_GT(seen[r], 0) << "residue " << r;
}

TEST(Rng, BernoulliMaskDensityMatchesP) {
  Xoshiro256 rng(19);
  const double p = 0.25;
  std::uint64_t bits = 0, total = 0;
  for (int i = 0; i < 20000; ++i) {
    bits += static_cast<std::uint64_t>(
        __builtin_popcountll(rng.next_bernoulli_mask(p)));
    total += 64;
  }
  EXPECT_NEAR(static_cast<double>(bits) / static_cast<double>(total), p, 0.005);
}

TEST(Rng, BernoulliMaskEdgeCases) {
  Xoshiro256 rng(23);
  EXPECT_EQ(rng.next_bernoulli_mask(0.0), 0u);
  EXPECT_EQ(rng.next_bernoulli_mask(1.0), ~0ULL);
}

TEST(Rng, SplitMix64KnownFirstValueIsStable) {
  // Determinism regression anchor: the same seed must produce the same
  // stream across library versions (experiments cite seeds).
  SplitMix64 sm(0);
  const std::uint64_t first = sm.next();
  SplitMix64 sm2(0);
  EXPECT_EQ(sm2.next(), first);
  EXPECT_NE(first, 0u);
}

// --- stats -----------------------------------------------------------

TEST(Stats, RunningStatMeanVariance) {
  RunningStat s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);  // unbiased
}

TEST(Stats, RunningStatDegenerate) {
  RunningStat s;
  EXPECT_EQ(s.variance(), 0.0);
  s.add(3.0);
  EXPECT_EQ(s.variance(), 0.0);
  EXPECT_EQ(s.stderror(), 0.0);
}

TEST(Stats, BernoulliRate) {
  BernoulliEstimate e{25, 100};
  EXPECT_DOUBLE_EQ(e.rate(), 0.25);
  EXPECT_DOUBLE_EQ(BernoulliEstimate{}.rate(), 0.0);
}

TEST(Stats, WilsonIntervalContainsRate) {
  BernoulliEstimate e{30, 200};
  const auto iv = e.wilson();
  EXPECT_LT(iv.lo, e.rate());
  EXPECT_GT(iv.hi, e.rate());
  EXPECT_GE(iv.lo, 0.0);
  EXPECT_LE(iv.hi, 1.0);
}

TEST(Stats, WilsonIntervalSaneAtZeroSuccesses) {
  BernoulliEstimate e{0, 1000};
  const auto iv = e.wilson();
  EXPECT_EQ(iv.lo, 0.0);
  EXPECT_GT(iv.hi, 0.0);
  EXPECT_LT(iv.hi, 0.01);  // ~3.84/1003
}

TEST(Stats, WilsonIntervalAccessorMatchesFreeFunction) {
  const BernoulliEstimate e{30, 200};
  const auto via_alias = e.wilson_interval(2.5);
  const auto via_legacy = e.wilson(2.5);
  EXPECT_DOUBLE_EQ(via_alias.lo, via_legacy.lo);
  EXPECT_DOUBLE_EQ(via_alias.hi, via_legacy.hi);
  // Default z matches the legacy wilson() spelling.
  EXPECT_DOUBLE_EQ(e.wilson_interval().lo, e.wilson().lo);
  EXPECT_DOUBLE_EQ(e.wilson_interval().hi, e.wilson().hi);
}

TEST(Stats, HalfWidthIsHalfTheWilsonWidth) {
  const BernoulliEstimate e{12, 500};
  const auto iv = e.wilson_interval(1.96);
  EXPECT_DOUBLE_EQ(e.half_width(1.96), (iv.hi - iv.lo) / 2.0);
  // Wider z -> wider interval.
  EXPECT_GT(e.half_width(3.0), e.half_width(1.0));
  // No data: maximally uncertain.
  EXPECT_DOUBLE_EQ(BernoulliEstimate{}.half_width(), 0.5);
}

TEST(Stats, WilsonShrinksWithTrials) {
  const auto narrow = BernoulliEstimate{100, 10000}.wilson();
  const auto wide = BernoulliEstimate{1, 100}.wilson();
  EXPECT_LT(narrow.hi - narrow.lo, wide.hi - wide.lo);
}

TEST(Stats, LineFitRecoversExactLine) {
  std::vector<double> xs{1, 2, 3, 4, 5}, ys;
  for (double x : xs) ys.push_back(2.5 * x - 1.0);
  const auto fit = fit_line(xs, ys);
  EXPECT_NEAR(fit.slope, 2.5, 1e-12);
  EXPECT_NEAR(fit.intercept, -1.0, 1e-12);
  EXPECT_NEAR(fit.r_squared, 1.0, 1e-12);
}

TEST(Stats, LineFitRejectsDegenerateInput) {
  EXPECT_THROW(fit_line({1.0}, {2.0}), Error);
  EXPECT_THROW(fit_line({1.0, 1.0}, {2.0, 3.0}), Error);  // identical x
  EXPECT_THROW(fit_line({1.0, 2.0}, {2.0}), Error);       // size mismatch
}

// --- entropy math ------------------------------------------------------

TEST(EntropyMath, BinaryEntropyKnownValues) {
  EXPECT_DOUBLE_EQ(binary_entropy(0.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(1.0), 0.0);
  EXPECT_DOUBLE_EQ(binary_entropy(0.5), 1.0);
  EXPECT_NEAR(binary_entropy(0.25), 0.811278124459, 1e-9);
}

TEST(EntropyMath, BinaryEntropySymmetric) {
  for (double p : {0.01, 0.1, 0.3, 0.45})
    EXPECT_NEAR(binary_entropy(p), binary_entropy(1.0 - p), 1e-12);
}

TEST(EntropyMath, BinaryEntropyOutOfRangeThrows) {
  EXPECT_THROW(binary_entropy(-0.1), Error);
  EXPECT_THROW(binary_entropy(1.1), Error);
}

TEST(EntropyMath, TwoSqrtBoundDominatesEntropy) {
  for (double p = 0.0; p <= 1.0; p += 0.01)
    EXPECT_GE(binary_entropy_upper_2sqrt(p) + 1e-12, binary_entropy(p))
        << "p=" << p;
}

TEST(EntropyMath, ShannonEntropyUniform) {
  EXPECT_NEAR(shannon_entropy({1, 1, 1, 1}), 2.0, 1e-12);
  EXPECT_NEAR(shannon_entropy({0.5, 0.25, 0.25}), 1.5, 1e-12);
}

TEST(EntropyMath, ShannonEntropyNormalizesWeights) {
  EXPECT_NEAR(shannon_entropy({2, 2}), shannon_entropy({0.5, 0.5}), 1e-12);
}

TEST(EntropyMath, ShannonEntropyRejectsBadInput) {
  EXPECT_THROW(shannon_entropy({0.0, 0.0}), Error);
  EXPECT_THROW(shannon_entropy({-1.0, 2.0}), Error);
}

TEST(EntropyMath, PluginEstimatorExactOnUniformCounts) {
  EXPECT_NEAR(entropy_plugin({100, 100, 100, 100}), 2.0, 1e-12);
}

TEST(EntropyMath, MillerMadowCorrectionIsPositive) {
  const std::vector<std::uint64_t> counts{50, 30, 20};
  EXPECT_GT(entropy_miller_madow(counts), entropy_plugin(counts));
  // Correction = (K-1)/(2N ln2) with K=3, N=100.
  EXPECT_NEAR(entropy_miller_madow(counts) - entropy_plugin(counts),
              2.0 / (200.0 * std::log(2.0)), 1e-12);
}

TEST(EntropyMath, ZeroCountsIgnoredBySupport) {
  EXPECT_NEAR(entropy_plugin({10, 0, 10, 0}), 1.0, 1e-12);
}

// --- mathutil ----------------------------------------------------------

TEST(MathUtil, BinomialSmallValues) {
  EXPECT_EQ(binomial(9, 2), 36u);
  EXPECT_EQ(binomial(11, 2), 55u);
  EXPECT_EQ(binomial(14, 2), 91u);
  EXPECT_EQ(binomial(16, 2), 120u);
  EXPECT_EQ(binomial(38, 2), 703u);
  EXPECT_EQ(binomial(40, 2), 780u);
  EXPECT_EQ(binomial(5, 0), 1u);
  EXPECT_EQ(binomial(5, 5), 1u);
  EXPECT_EQ(binomial(3, 5), 0u);
}

TEST(MathUtil, BinomialLargeExact) {
  EXPECT_EQ(binomial(52, 5), 2598960u);
  EXPECT_EQ(binomial(60, 30), 118264581564861424ULL);
}

TEST(MathUtil, CheckedPow) {
  EXPECT_EQ(checked_pow(3, 0), 1u);
  EXPECT_EQ(checked_pow(9, 2), 81u);
  EXPECT_EQ(checked_pow(21, 2), 441u);
  EXPECT_EQ(checked_pow(27, 4), 531441u);
  EXPECT_THROW(checked_pow(10, 30), Error);
}

TEST(MathUtil, PowFits) {
  EXPECT_TRUE(pow_fits_u64(9, 20));
  EXPECT_FALSE(pow_fits_u64(9, 21));
  EXPECT_TRUE(pow_fits_u64(1, 1000));
}

// --- table ---------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  AsciiTable t({"name", "value"});
  t.add_row({"alpha", "1"});
  t.add_row({"b", "22222"});
  const std::string s = t.str();
  EXPECT_NE(s.find("| alpha | 1     |"), std::string::npos) << s;
  EXPECT_NE(s.find("| b     | 22222 |"), std::string::npos) << s;
}

TEST(Table, RowArityChecked) {
  AsciiTable t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), Error);
}

TEST(Table, NumericFormatters) {
  EXPECT_EQ(AsciiTable::fixed(3.14159, 2), "3.14");
  EXPECT_EQ(AsciiTable::cell(std::uint64_t{441}), "441");
  EXPECT_EQ(AsciiTable::reciprocal(1.0 / 165.0), "1/165");
  EXPECT_EQ(AsciiTable::reciprocal(1.0 / 2340.0), "1/2340");
  const std::string s = AsciiTable::sci(0.000123, 2);
  EXPECT_NE(s.find("1.23e"), std::string::npos) << s;
}

// --- env -----------------------------------------------------------------

/// Sets (or, with nullptr, unsets) one environment variable for a
/// scope, restoring the previous value.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr)
      setenv(name, value, 1);
    else
      unsetenv(name);
  }
  ~ScopedEnv() {
    if (saved_)
      setenv(name_, saved_->c_str(), 1);
    else
      unsetenv(name_);
  }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
  std::optional<std::string> saved_;
};

TEST(EnvDecimal, UnsetIsNulloptAndDigitsParseInDecimal) {
  {
    const ScopedEnv env("REVFT_TRIALS", nullptr);
    EXPECT_EQ(env::decimal("REVFT_TRIALS", 1), std::nullopt);
  }
  {
    const ScopedEnv env("REVFT_TRIALS", "010");  // decimal, not octal
    EXPECT_EQ(env::decimal("REVFT_TRIALS", 1), 10u);
  }
  {
    const ScopedEnv env("REVFT_SEED", "0");  // a seed may be 0
    EXPECT_EQ(env::decimal("REVFT_SEED"), 0u);
  }
  {
    const ScopedEnv env("REVFT_SEED", "18446744073709551615");
    EXPECT_EQ(env::decimal("REVFT_SEED"), 18446744073709551615ull);
  }
}

TEST(EnvDecimal, RejectsAnythingButADecimalInRange) {
  // REVFT_TRIALS as bench_common reads it: trials >= 1.
  for (const char* bad : {"12abc", "0x10", "abc", "-2", "+3", "", " 4", "4 ",
                          "0", "99999999999999999999"}) {
    const ScopedEnv env("REVFT_TRIALS", bad);
    try {
      env::decimal("REVFT_TRIALS", 1);
      ADD_FAILURE() << "accepted REVFT_TRIALS=\"" << bad << "\"";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("REVFT_TRIALS"), std::string::npos)
          << e.what();
    }
  }
  const ScopedEnv env("REVFT_SEED", "0x10");
  EXPECT_THROW(env::decimal("REVFT_SEED"), Error);
}

// --- artifact ------------------------------------------------------------

/// A fresh directory under the system temp dir that REVFT_JSON_DIR
/// points at for the scope; both are cleaned up afterwards.
class ArtifactDir {
 public:
  ArtifactDir() : dir_(make_dir()), env_("REVFT_JSON_DIR", dir_.c_str()) {}
  ~ArtifactDir() { std::filesystem::remove_all(dir_); }
  ArtifactDir(const ArtifactDir&) = delete;
  ArtifactDir& operator=(const ArtifactDir&) = delete;

  const std::filesystem::path& path() const { return dir_; }

 private:
  static std::filesystem::path make_dir() {
    std::string leaf = "revft_artifact_";
    leaf += std::to_string(::getpid());
    leaf += '_';
    leaf += ::testing::UnitTest::GetInstance()->current_test_info()->name();
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / leaf;
    std::filesystem::create_directories(dir);
    return dir;
  }

  std::filesystem::path dir_;
  ScopedEnv env_;
};

json::Value read_json(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  const json::ParseResult parsed = json::parse(buf.str());
  EXPECT_TRUE(parsed.ok) << path << ": " << parsed.error;
  return parsed.value;
}

TEST(Artifact, EveryKindLandsAtItsPrefixInsideTheEnvelope) {
  const ArtifactDir dir;
  const struct {
    artifact::Kind kind;
    const char* prefix;
    const char* name;
  } cases[] = {{artifact::Kind::kBench, "BENCH_", "bench"},
               {artifact::Kind::kReport, "REPORT_", "report"},
               {artifact::Kind::kTrace, "TRACE_", "trace"},
               {artifact::Kind::kConv, "CONV_", "conv"}};
  for (const auto& c : cases) {
    json::Value body = json::Value::object();
    body.set("payload", std::uint64_t{42});
    body.set("rate", 0.25);
    const std::string path = artifact::write(c.kind, "unit", body);
    EXPECT_EQ(path, (dir.path() / (std::string(c.prefix) + "unit.json")).string());

    const json::Value doc = read_json(path);
    ASSERT_TRUE(doc.is_object());
    const auto& members = doc.members();
    ASSERT_EQ(members.size(), 5u);
    EXPECT_EQ(members[0].first, "kind");
    EXPECT_EQ(members[0].second.as_string(), c.name);
    EXPECT_EQ(members[1].first, "name");
    EXPECT_EQ(members[1].second.as_string(), "unit");
    EXPECT_EQ(members[2].first, "provenance");
    ASSERT_NE(members[2].second.find("git_sha"), nullptr);
    EXPECT_FALSE(members[2].second.find("git_sha")->as_string().empty());
    ASSERT_NE(members[2].second.find("compiler"), nullptr);
    EXPECT_FALSE(members[2].second.find("compiler")->as_string().empty());
    // The body's own keys follow, in order and unchanged.
    EXPECT_EQ(members[3].first, "payload");
    EXPECT_EQ(members[3].second.as_uint(), 42u);
    EXPECT_EQ(members[4].first, "rate");
    EXPECT_EQ(members[4].second.as_double(), 0.25);
  }
}

TEST(Artifact, BodyNameMustAgreeAndEnvelopeKeysAreReserved) {
  const ArtifactDir dir;
  json::Value body = json::Value::object();
  body.set("name", "unit");
  body.set("x", 1);
  const json::Value doc =
      read_json(artifact::write(artifact::Kind::kReport, "unit", body));
  ASSERT_EQ(doc.members().size(), 4u);  // "name" keeps the envelope slot
  EXPECT_EQ(doc.members()[3].first, "x");

  EXPECT_THROW(artifact::write(artifact::Kind::kReport, "other", body), Error);
  json::Value kind = json::Value::object();
  kind.set("kind", "conv");
  EXPECT_THROW(artifact::write(artifact::Kind::kReport, "unit", kind), Error);
}

TEST(Artifact, EmptyJsonDirWritesNothing) {
  const ArtifactDir dir;
  const ScopedEnv disabled("REVFT_JSON_DIR", "");
  EXPECT_EQ(artifact::write(artifact::Kind::kConv, "unit", json::Value::object()),
            "");
  EXPECT_TRUE(std::filesystem::is_empty(dir.path()));
}

TEST(Artifact, MissingDirectoryThrowsNamingThePath) {
  const ArtifactDir dir;
  const std::string missing = (dir.path() / "no_such_dir").string();
  const ScopedEnv env("REVFT_JSON_DIR", missing.c_str());
  try {
    artifact::write(artifact::Kind::kBench, "unit", json::Value::object());
    ADD_FAILURE() << "wrote into a missing directory";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(missing + "/BENCH_unit.json"),
              std::string::npos)
        << e.what();
  }
}

}  // namespace
}  // namespace revft
