// Tests of the benchmark's statistics and span helpers (trace.hpp).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> iota_sample(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

TEST(Percentile, NearestRank) {
  const auto v = iota_sample(100);
  EXPECT_EQ(percentile(v, 0.5), 50.0);
  EXPECT_EQ(percentile(v, 0.95), 95.0);
  EXPECT_EQ(percentile(v, 0.99), 99.0);
  EXPECT_EQ(percentile(v, 1.0), 100.0);
  EXPECT_EQ(percentile({7.0}, 0.99), 7.0);
  EXPECT_EQ(percentile({}, 0.5), 0.0);
}

TEST(TailPercentile, KeepsTenSamplesBeyond) {
  // 1000 samples: p99 has exactly ten beyond it.
  auto t = tail_percentile(iota_sample(1000));
  EXPECT_EQ(t.q, 0.99);
  EXPECT_EQ(t.value, 990.0);
  EXPECT_EQ(tail_percentile(iota_sample(10000)).q, 0.99);
  // 999 samples: p99 keeps only nine, so p95 is the highest allowed.
  t = tail_percentile(iota_sample(999));
  EXPECT_EQ(t.q, 0.95);
  // 390 Table-5 cases: p99 keeps three, p95 keeps nineteen.
  t = tail_percentile(iota_sample(390));
  EXPECT_EQ(t.q, 0.95);
  EXPECT_EQ(samples_beyond(390, t.q), 19u);
  // 100 runs: p95 keeps five, p90 keeps ten.
  EXPECT_EQ(tail_percentile(iota_sample(100)).q, 0.90);
}

TEST(TailPercentile, SmallSampleReportsMaximum) {
  const auto t = tail_percentile({3.0, 5.0, 9.0});
  EXPECT_EQ(t.q, 1.0);
  EXPECT_EQ(t.value, 9.0);
  EXPECT_EQ(tail_percentile(iota_sample(20)).q, 0.5);
  EXPECT_EQ(tail_percentile(iota_sample(19)).q, 1.0);
}

TEST(Median, OddAndEven) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

Span span(std::int64_t id, std::int64_t parent, const char* layer,
          std::int64_t start, std::int64_t end) {
  Span s;
  s.id = id;
  s.parent = parent;
  s.layer = layer;
  s.name = layer;
  s.start_ns = start;
  s.end_ns = end;
  return s;
}

TEST(SelfTime, SubtractsChildren) {
  // root [0,100) with children [10,30) and [50,60); the second child has a
  // grandchild [52,55).
  const std::vector<Span> spans = {
      span(0, -1, "core", 0, 100), span(1, 0, "sim_exec", 10, 30),
      span(2, 0, "sim_exec", 50, 60), span(3, 2, "pmu", 52, 55)};
  const auto self = self_times(spans);
  EXPECT_EQ(self.at(0), 70);
  EXPECT_EQ(self.at(1), 20);
  EXPECT_EQ(self.at(2), 7);
  EXPECT_EQ(self.at(3), 3);
  const auto layers = layer_self_seconds(spans);
  EXPECT_DOUBLE_EQ(layers.at("core"), 70e-9);
  EXPECT_DOUBLE_EQ(layers.at("sim_exec"), 27e-9);
  EXPECT_DOUBLE_EQ(layers.at("pmu"), 3e-9);
}

TEST(SelfTime, OverlappingChildrenCountOnce) {
  // Children that ran on parallel host threads overlap; the parent's self
  // time is what no child covers, and children are clipped to the parent.
  const std::vector<Span> spans = {
      span(0, -1, "par", 0, 100), span(1, 0, "bench", 0, 60),
      span(2, 0, "bench", 20, 80), span(3, 0, "bench", 90, 120)};
  EXPECT_EQ(self_times(spans).at(0), 10);
}

TEST(Subtrees, KeepsRootsAndDescendantsOnly) {
  std::vector<Span> spans = {
      span(0, -1, "bench", 0, 100), span(1, 0, "core", 10, 90),
      span(2, 1, "sim_exec", 20, 30), span(3, -1, "bench", 100, 200),
      span(4, 3, "ml", 110, 120)};
  spans[0].name = "bench.pass";
  const auto kept = subtrees(spans, "bench.pass");
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].id, 0);
  EXPECT_EQ(kept[1].id, 1);
  EXPECT_EQ(kept[2].id, 2);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer tracer(false);
  {
    Tracer::Scope s(tracer, "ml", "ml.fit");
    EXPECT_EQ(s.elapsed_seconds(), 0.0);
  }
  EXPECT_TRUE(tracer.spans().empty());
}

TEST(Tracer, NestsOnOneThreadAndTakesExplicitParents) {
  Tracer tracer(true);
  std::int64_t outer_id = -1;
  {
    Tracer::Scope outer(tracer, "par", "par.parallel_transform");
    outer_id = outer.id();
    { Tracer::Scope inner(tracer, "ml", "ml.classify", 7); }
    std::thread worker([&] {
      Tracer::Scope job(tracer, "bench", "bench.case", 3, outer_id);
      Tracer::Scope run(tracer, "sim_exec", "exec.Machine::run", 3);
    });
    worker.join();
  }
  const auto spans = tracer.spans();
  ASSERT_EQ(spans.size(), 4u);
  std::map<std::string, Span> by_name;
  for (const Span& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name["ml.classify"].parent, outer_id);
  EXPECT_EQ(by_name["ml.classify"].request, 7);
  EXPECT_EQ(by_name["bench.case"].parent, outer_id);
  EXPECT_EQ(by_name["exec.Machine::run"].parent, by_name["bench.case"].id);
  EXPECT_EQ(by_name["par.parallel_transform"].parent, -1);
  for (const Span& s : spans) EXPECT_LE(s.start_ns, s.end_ns);
}

}  // namespace
}  // namespace perfbench
