// Tests of the benchmark's measurement helpers: percentiles and their
// sample-count rule, open-loop due times and lag accounting, span self
// times, metric-name validation and the result line.
//
//   perfbench_test   (exit 0 when every check passes)
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "measure.h"

namespace {

int failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "measure_test.cc:%d: FAILED: %s\n", line, what);
    ++failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void percentiles() {
  const std::vector<double> v = {1, 2, 3, 4, 5};
  EXPECT(near(percentile_sorted(v, 0), 1));
  EXPECT(near(percentile_sorted(v, 50), 3));
  EXPECT(near(percentile_sorted(v, 100), 5));
  EXPECT(near(percentile_sorted(v, 25), 2));
  EXPECT(near(percentile_sorted(v, 90), 4.6));  // interpolated
  EXPECT(near(percentile_sorted({7}, 99), 7));

  // Ten samples beyond the percentile: p99 needs 1000, p90 needs 100.
  EXPECT(percentile_supported(1000, 99));
  EXPECT(!percentile_supported(999, 99));
  EXPECT(percentile_supported(100, 90));
  EXPECT(!percentile_supported(99, 90));
  EXPECT(near(highest_supported_percentile(10000), 99.9));
  EXPECT(near(highest_supported_percentile(5000), 99));
  EXPECT(near(highest_supported_percentile(500), 90));
  EXPECT(near(highest_supported_percentile(20), 50));
  EXPECT(near(highest_supported_percentile(19), 0));
}

void summaries() {
  std::vector<double> samples;
  for (int i = 1000; i >= 1; --i) samples.push_back(i);  // unsorted input
  const Summary s = summarize(samples);
  EXPECT(s.count == 1000);
  EXPECT(near(s.median, 500.5));
  EXPECT(s.p99_supported);
  EXPECT(near(s.p99, 990.01));
  EXPECT(near(s.tail_pct, 99));
  EXPECT(near(s.max, 1000));

  const Summary few = summarize({3, 1, 2});
  EXPECT(few.count == 3);
  EXPECT(near(few.median, 2));
  EXPECT(!few.p99_supported);
  EXPECT(near(few.tail_pct, 0));
  EXPECT(near(few.tail, 3));  // no supported percentile: the maximum

  EXPECT(summarize({}).count == 0);
  EXPECT(near(median_of({5, 1, 3, 2}), 2.5));
  EXPECT(near(median_of({}), 0));
}

void open_loop() {
  const DueSchedule due{1000, 100};
  EXPECT(due.slot_due(0) == 1000);
  EXPECT(due.slot_due(3) == 1300);
  // Three ops in slot 2 fall at 1/4, 2/4, 3/4 of the slot.
  EXPECT(due.op_due(2, 0, 3) == 1225);
  EXPECT(due.op_due(2, 1, 3) == 1250);
  EXPECT(due.op_due(2, 2, 3) == 1275);

  LagAccount lag(10);
  // On time: latency is the service time.
  EXPECT(lag.record(100, 100, 130) == 30);
  // Started 5 ns late (within tolerance): latency counts the wait.
  EXPECT(lag.record(200, 205, 215) == 15);
  // Started 50 ns late behind a stall: late, and latency from due.
  EXPECT(lag.record(300, 350, 360) == 60);
  // A clock read before the due instant clamps lag to 0.
  EXPECT(lag.record(400, 398, 420) == 20);
  EXPECT(lag.count() == 4);
  EXPECT(lag.late() == 1);
  EXPECT(near(lag.late_share(), 0.25));
  EXPECT(near(lag.lag_us()[2], 0.05));
  EXPECT(near(lag.lag_us()[3], 0.0));
  EXPECT(near(LagAccount(0).late_share(), 0.0));
}

void spans() {
  SpanRecorder off(false);
  EXPECT(off.begin("x", "driver", 0) == -1);
  off.add("y", "core", 0, 0, 10);
  EXPECT(off.spans().empty());

  SpanRecorder rec(true);
  const int32_t root = rec.begin("root", "driver", 1);
  rec.add("a", "core", 1, 10, 30);
  rec.add("b", "schedule", 1, 40, 45);
  rec.end(root);
  EXPECT(rec.spans().size() == 3);
  EXPECT(rec.spans()[1].parent == root);
  EXPECT(rec.spans()[2].parent == root);

  // Self time: root 0..100 with children covering 20 + 5 ns.
  const std::vector<Span> log = {
      {"root", "driver", 0, 100, -1, 1},
      {"a", "core", 10, 30, 0, 1},
      {"b", "schedule", 40, 45, 0, 1},
      {"c", "core", 50, 60, -1, 2},  // a second root in a known layer
  };
  const auto self = layer_self_seconds(log);
  EXPECT(self.size() == 3);
  EXPECT(self[0].first == "driver" && near(self[0].second, 75e-9));
  EXPECT(self[1].first == "core" && near(self[1].second, 30e-9));
  EXPECT(self[2].first == "schedule" && near(self[2].second, 5e-9));

  // A sampled root passes its weight to the spans inside it, and self time
  // scales by it: one slot in 16 stands for all 16.
  SpanRecorder sampled(true);
  const int32_t slot = sampled.begin("slot", "driver", 7, 16);
  const int32_t inner = sampled.begin("inner", "server", 7);
  sampled.end(inner);
  sampled.add("leaf", "core", 7, 10, 20);
  sampled.end(slot);
  sampled.add("after", "core", 8, 30, 40);
  EXPECT(sampled.spans()[0].weight == 16);
  EXPECT(sampled.spans()[1].weight == 16);
  EXPECT(sampled.spans()[2].weight == 16);
  EXPECT(sampled.spans()[3].weight == 1);
  const std::vector<Span> weighted = {
      {"slot", "driver", 0, 100, -1, 1, 16},
      {"a", "core", 10, 30, 0, 1, 16},
      {"b", "core", 200, 210, -1, 2, 1},
  };
  const auto scaled = layer_self_seconds(weighted);
  EXPECT(scaled.size() == 2);
  EXPECT(near(scaled[0].second, 80e-9 * 16));
  EXPECT(near(scaled[1].second, 20e-9 * 16 + 10e-9));
}

void names_and_result_line() {
  EXPECT(valid_metric_name("setup_s"));
  EXPECT(valid_metric_name("server.tick_p99_us"));
  EXPECT(valid_metric_name("9a-b.c_d"));
  EXPECT(!valid_metric_name(""));
  EXPECT(!valid_metric_name("_lead"));
  EXPECT(!valid_metric_name(".lead"));
  EXPECT(!valid_metric_name("has space"));
  EXPECT(!valid_metric_name("slash/no"));
  EXPECT(!valid_metric_name("quote\""));
  EXPECT(valid_metric_name(std::string(64, 'a')));
  EXPECT(!valid_metric_name(std::string(65, 'a')));

  Report r;
  r.attempted = 3;
  r.metric("setup_s", 0.25, "s");
  r.metric("peak_streams", 12, "streams");
  std::string error;
  EXPECT(result_json(r, &error) ==
         "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
         "{\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}, "
         "\"peak_streams\": {\"value\": 12, \"unit\": \"streams\"}}}");

  r.failed = 1;
  EXPECT(!r.correct());
  EXPECT(result_json(r, &error).find("\"correct\": false") !=
         std::string::npos);

  Report dup;
  dup.metric("x", 1, "s");
  dup.metric("x", 2, "s");
  EXPECT(result_json(dup, &error).empty());

  Report bad;
  bad.metric("bad name", 1, "s");
  EXPECT(result_json(bad, &error).empty());

  Report nan;
  nan.metric("x", std::nan(""), "s");
  EXPECT(result_json(nan, &error).empty());
}

}  // namespace

int main() {
  percentiles();
  summaries();
  open_loop();
  spans();
  names_and_result_line();
  if (failures == 0) std::printf("perfbench_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
