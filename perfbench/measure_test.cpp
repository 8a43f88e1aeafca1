// Tests of the benchmark's own helpers: the percentile rule, self time,
// and the result line that tools parse.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "measure.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(Percentile, NearestRankReportsItsSampleCount) {
  const Percentile p50 = percentile(one_to(100), 0.5);
  EXPECT_DOUBLE_EQ(p50.value, 50);
  EXPECT_EQ(p50.samples, 100u);
  EXPECT_EQ(p50.beyond, 50u);
  EXPECT_TRUE(p50.ok);

  const Percentile p90 = percentile(one_to(100), 0.9);
  EXPECT_DOUBLE_EQ(p90.value, 90);
  EXPECT_EQ(p90.beyond, 10u);
  EXPECT_TRUE(p90.ok);
}

TEST(Percentile, RefusesWithFewerThanTenSamplesBeyond) {
  // p99 of 62 samples (what the old latency_stats printed) is refused.
  EXPECT_FALSE(percentile(one_to(62), 0.99).ok);
  EXPECT_FALSE(percentile(one_to(99), 0.9).ok);  // 9 beyond
  EXPECT_TRUE(percentile(one_to(100), 0.9).ok);
  EXPECT_FALSE(percentile(one_to(999), 0.99).ok);
  EXPECT_TRUE(percentile(one_to(1000), 0.99).ok);
  EXPECT_FALSE(percentile({}, 0.5).ok);
  EXPECT_EQ(percentile({}, 0.5).samples, 0u);
}

TEST(Percentile, MedianOfRepetitions) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0);
}

std::uint64_t fake_now = 0;
std::uint64_t fake_clock() { return fake_now; }

TEST(SpanRecorder, SelfTimeSubtractsDirectChildren) {
  SpanRecorder rec(100, &fake_clock);
  const auto outer = rec.layer("prime.on_message");
  const auto inner = rec.layer("scada.master_apply");
  fake_now = 0;
  rec.begin(outer);        // outer: 0..100
  fake_now = 10;
  rec.begin(inner);        // inner: 10..40
  fake_now = 40;
  rec.end();
  fake_now = 60;
  rec.begin(inner);        // inner: 60..70
  fake_now = 70;
  rec.end();
  fake_now = 100;
  rec.end();

  const auto* o = rec.find("prime.on_message");
  const auto* i = rec.find("scada.master_apply");
  ASSERT_NE(o, nullptr);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(o->count, 1u);
  EXPECT_EQ(o->total_ns, 100u);
  EXPECT_EQ(o->self_ns, 60u);
  EXPECT_EQ(i->count, 2u);
  EXPECT_EQ(i->total_ns, 40u);
  EXPECT_EQ(i->self_ns, 40u);

  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, SpanRecorder::Span::kNoParent);
  EXPECT_EQ(rec.spans()[1].parent, 0u);
  EXPECT_EQ(rec.spans()[2].parent, 0u);
  EXPECT_EQ(rec.spans()[2].start_ns, 60u);
  EXPECT_EQ(rec.spans()[2].end_ns, 70u);
}

TEST(SpanRecorder, AggregatesBeyondTheKeepLimit) {
  SpanRecorder rec(1, &fake_clock);
  const auto l = rec.layer("scada.hmi");
  for (int k = 0; k < 5; ++k) {
    fake_now = 100 * k;
    rec.begin(l);
    fake_now = 100 * k + 7;
    rec.end();
  }
  EXPECT_EQ(rec.spans().size(), 1u);
  EXPECT_EQ(rec.spans_not_kept(), 4u);
  EXPECT_EQ(rec.find("scada.hmi")->count, 5u);
  EXPECT_EQ(rec.find("scada.hmi")->self_ns, 35u);
  EXPECT_DOUBLE_EQ(rec.self_s("scada.hmi"), 35e-9);
  EXPECT_DOUBLE_EQ(rec.total_s("absent"), 0.0);
}

TEST(SpanRecorder, NullScopeIsANoOp) {
  SpanRecorder::Scope s(nullptr, 0);  // untraced runs pass no recorder
  SUCCEED();
}

TEST(SpanRecorder, WritesSpansAndLayersAsJsonl) {
  SpanRecorder rec(10, &fake_clock);
  const auto l = rec.layer("sim.run");
  fake_now = 5;
  rec.begin(l);
  fake_now = 9;
  rec.end();
  const std::string path = ::testing::TempDir() + "/perfbench_spans.jsonl";
  ASSERT_TRUE(rec.write_jsonl(path));
  std::ifstream in(path);
  std::string first, second;
  std::getline(in, first);
  std::getline(in, second);
  EXPECT_EQ(first,
            "{\"span\":0,\"name\":\"sim.run\",\"start_ns\":5,\"end_ns\":9,"
            "\"parent\":null}");
  EXPECT_EQ(second,
            "{\"layer\":\"sim.run\",\"count\":1,\"total_ns\":4,\"self_ns\":4}");
  std::remove(path.c_str());
}

TEST(ResultJson, ExactKeysAndFullPrecision) {
  const std::string line = result_json(
      true, 1000, 0,
      {{"latency_ms", 1.2034, "ms"}, {"setup_s", 0.81273456789012, "s"}});
  EXPECT_EQ(line,
            "{\"correct\": true, \"attempted\": 1000, \"failed\": 0, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.2034, \"unit\": "
            "\"ms\"}, \"setup_s\": {\"value\": 0.81273456789012, \"unit\": "
            "\"s\"}}}");
}

TEST(ResultJson, FailedRunAndNonFiniteValues) {
  const std::string line =
      result_json(false, 3, 2, {{"x", 1.0 / 0.0, "ratio"}});
  EXPECT_EQ(line,
            "{\"correct\": false, \"attempted\": 3, \"failed\": 2, "
            "\"metrics\": {\"x\": {\"value\": 0, \"unit\": \"ratio\"}}}");
}

TEST(DisplayLedger, OneSamplePerTransitionAndHmi) {
  DisplayLedger ledger(2, 1);
  ledger.field_change("plc", 0, true, 1000, true);
  ledger.field_change("plc", 0, false, 5000, true);
  ledger.displayed(0, "plc", 0, true, 3000);
  ledger.displayed(1, "plc", 0, true, 4000);
  ledger.displayed(0, "plc", 0, false, 6000);
  ledger.displayed(1, "plc", 0, false, 7500);
  std::vector<double> ms;
  std::uint64_t attempted = 0, failed = 0;
  ledger.tally(ms, attempted, failed);
  EXPECT_EQ(attempted, 2u);
  EXPECT_EQ(failed, 0u);
  EXPECT_EQ(ms, (std::vector<double>{2.0, 3.0, 1.0, 2.5}));
  EXPECT_EQ(ledger.displays(), 4u);
}

TEST(DisplayLedger, SkippedAndUncountedChanges) {
  DisplayLedger ledger(1, 2);
  ledger.displayed(0, "plc", 1, true, 500);  // initial image: no change yet
  ledger.field_change("plc", 1, true, 1000, false);  // warm-up: not counted
  ledger.displayed(0, "plc", 1, true, 1200);
  ledger.field_change("plc", 1, false, 2000, true);
  ledger.field_change("plc", 1, true, 2100, true);
  ledger.field_change("plc", 1, false, 2200, true);
  ledger.displayed(0, "plc", 1, true, 2500);  // the open never showed
  ledger.displayed(0, "plc", 1, false, 2600);
  std::vector<double> ms;
  std::uint64_t attempted = 0, failed = 0;
  ledger.tally(ms, attempted, failed);
  EXPECT_EQ(attempted, 3u);
  EXPECT_EQ(failed, 1u);
  EXPECT_EQ(ms, (std::vector<double>{0.4, 0.4}));
}

}  // namespace
}  // namespace perfbench
