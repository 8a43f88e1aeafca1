// Bench gate helper tests: each comparison's edge at its bound, the
// committed-baseline lookup (dotted keys, scaled bounds, a missing key
// exits 1), the shape-check line naming exactly the failing rows, and
// the --json report carrying every row.
#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "bench_util.hpp"

namespace spire::bench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Whether `value <cmp> bound` passes as a Report row.
bool passes(double value, Cmp cmp, double bound) {
  Report report("t", "claim");
  report.check("row", value, cmp, bound);
  return report.holds();
}

std::string write_temp(const std::string& name, const std::string& text) {
  const std::string path = ::testing::TempDir() + name;
  std::ofstream(path) << text;
  return path;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

/// Runs finish() with `args` as the command line.
int finish_with(const Report& report, std::vector<std::string> args) {
  std::vector<char*> argv{const_cast<char*>("bench")};
  for (auto& a : args) argv.push_back(a.data());
  ::testing::internal::CaptureStdout();
  const int code = report.finish(static_cast<int>(argv.size()), argv.data());
  ::testing::internal::GetCapturedStdout();
  return code;
}

TEST(BenchReport, InclusiveComparisonsPassAtTheBoundAndFailJustPastIt) {
  const double bound = 2000.0;
  EXPECT_TRUE(passes(bound, Cmp::kLe, bound));
  EXPECT_FALSE(passes(std::nextafter(bound, kInf), Cmp::kLe, bound));
  EXPECT_TRUE(passes(bound, Cmp::kGe, bound));
  EXPECT_FALSE(passes(std::nextafter(bound, -kInf), Cmp::kGe, bound));
  EXPECT_TRUE(passes(bound, Cmp::kEq, bound));
  EXPECT_FALSE(passes(std::nextafter(bound, kInf), Cmp::kEq, bound));
  EXPECT_FALSE(passes(std::nextafter(bound, -kInf), Cmp::kEq, bound));
}

TEST(BenchReport, StrictComparisonsPassJustInsideAndFailAtTheBound) {
  const double bound = 2000.0;
  EXPECT_TRUE(passes(std::nextafter(bound, -kInf), Cmp::kLt, bound));
  EXPECT_FALSE(passes(bound, Cmp::kLt, bound));
  EXPECT_TRUE(passes(std::nextafter(bound, kInf), Cmp::kGt, bound));
  EXPECT_FALSE(passes(bound, Cmp::kGt, bound));
}

TEST(BenchReport, RequireAndReportedRows) {
  Report report("t", "claim");
  report.add("reported only", 1e9);
  report.require("holds", true);
  EXPECT_TRUE(report.holds());
  report.require("does not hold", false);
  EXPECT_FALSE(report.holds());
}

TEST(BenchReport, BaselineKeysResolveDottedAndScaled) {
  const std::string path = write_temp(
      "bench_util_baseline.json",
      R"({"results": {"a": {"rate": 5.0}, "b": {"rate": 100.0}},)"
      R"( "p99_ms_max": 50.0})");
  const std::string flag = "--baseline=" + path;
  char* argv[] = {const_cast<char*>("bench"), const_cast<char*>(flag.c_str())};
  Report report("t", "claim");
  ASSERT_TRUE(report.load_baseline(2, argv, nullptr));
  EXPECT_EQ(report.baseline("p99_ms_max"), 50.0);
  EXPECT_EQ(report.baseline("b.rate"), 100.0);  // not a's rate
  report.check("b at 0.8x", 80.0, Cmp::kGe, BaselineKey{"b.rate", 0.8});
  EXPECT_TRUE(report.holds());
  report.check("b below 0.8x", 79.9, Cmp::kGe, BaselineKey{"b.rate", 0.8});
  EXPECT_EQ(report.failing(), std::vector<std::string>{"b below 0.8x"});
}

TEST(BenchReport, FallbackBaselinePathAndUnreadableFile) {
  char* argv[] = {const_cast<char*>("bench")};
  Report report("t", "claim");
  ::testing::internal::CaptureStdout();
  EXPECT_FALSE(report.load_baseline(1, argv, "/nonexistent/baseline.json"));
  EXPECT_NE(::testing::internal::GetCapturedStdout().find("cannot open"),
            std::string::npos);
}

TEST(BenchReportDeathTest, MissingBaselineKeyExits1) {
  const std::string path =
      write_temp("bench_util_missing.json", R"({"full_share_max": 0.1})");
  const std::string flag = "--baseline=" + path;
  char* argv[] = {const_cast<char*>("bench"), const_cast<char*>(flag.c_str())};
  Report report("t", "claim");
  ASSERT_TRUE(report.load_baseline(2, argv, nullptr));
  EXPECT_EXIT(report.check("row", 1.0, Cmp::kLe, BaselineKey{"renamed_max"}),
              ::testing::ExitedWithCode(1), "");
  Report unloaded("t", "claim");
  EXPECT_EXIT(unloaded.check("row", 1.0, Cmp::kLe, BaselineKey{"any"}),
              ::testing::ExitedWithCode(1), "");
}

TEST(BenchReport, ViolatedLineNamesExactlyTheFailingRows) {
  Report report("t", "the shape");
  report.check("a ok", 1, Cmp::kLe, 2);
  report.check("b fails", 3, Cmp::kLe, 2);
  report.add("c reported", 99);
  report.require("d fails", false);
  report.check("e ok", 0, Cmp::kEq, 0);
  ::testing::internal::CaptureStdout();
  report.print();
  const std::string out = ::testing::internal::GetCapturedStdout();
  EXPECT_NE(out.find("\nShape check: the shape: VIOLATED (b fails, d fails)\n"),
            std::string::npos)
      << out;
  EXPECT_EQ(finish_with(report, {}), 1);

  Report holding("t", "the shape");
  holding.check("a ok", 1, Cmp::kLe, 2);
  ::testing::internal::CaptureStdout();
  holding.print();
  EXPECT_NE(::testing::internal::GetCapturedStdout().find(
                "Shape check: the shape: HOLDS\n"),
            std::string::npos);
  EXPECT_EQ(finish_with(holding, {}), 0);
}

TEST(BenchReport, JsonHoldsEveryRowValueBoundAndOkFlag) {
  Report report("t", "claim");
  report.add("reported", 12.5, "ms");
  report.check("gated ok", 3, Cmp::kGe, 2);
  report.check("gated fail", 0.25, Cmp::kLt, 0.125, "x");
  report.require("yes/no", true);
  report.latency.add("leg", {1.0, 2.0, 3.0});
  const std::string path = ::testing::TempDir() + "bench_util_report.json";
  EXPECT_EQ(finish_with(report, {"--json=" + path}), 1);
  const std::string json = read_file(path);
  EXPECT_NE(json.find(R"("holds":false,"rows":[)"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"({"name":"reported","value":12.5,"unit":"ms"})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(
                R"({"name":"gated ok","value":3,"cmp":">=","bound":2,"ok":true})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"({"name":"gated fail","value":0.25,"unit":"x",)"
                      R"("cmp":"<","bound":0.125,"ok":false})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"({"name":"yes/no","value":true,"cmp":"==",)"
                      R"("bound":true,"ok":true})"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find(R"("latency":{"leg":{"min_ms":1.000,"p50_ms":2.000)"),
            std::string::npos)
      << json;
}

TEST(BenchReport, UnwritableJsonExits1) {
  Report report("t", "claim");
  report.check("ok", 1, Cmp::kEq, 1);
  EXPECT_EQ(finish_with(report, {"--json=/nonexistent/dir/out.json"}), 1);
}

}  // namespace
}  // namespace spire::bench
