// The engine-level observability contract: attaching an EngineObserver
// never changes simulation results, and the observer's merged view is
// bit-identical at any thread count (shards record independently, the
// merge folds them in ascending shard order).
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "server/multi_video.h"

namespace vod {
namespace {

MultiVideoConfig engine_config() {
  MultiVideoConfig config;
  config.catalog_size = 130;  // 3 shards at kShardSize = 64
  config.num_segments = 20;
  config.total_requests_per_hour = 400.0;
  config.warmup_hours = 1.0;
  config.measured_hours = 10.0;
  config.seed = 20010416;
  return config;
}

void expect_same_result(const MultiVideoResult& a, const MultiVideoResult& b) {
  EXPECT_EQ(a.requests, b.requests);
  EXPECT_EQ(a.measured_slots, b.measured_slots);
  EXPECT_DOUBLE_EQ(a.avg_streams, b.avg_streams);
  EXPECT_DOUBLE_EQ(a.max_streams, b.max_streams);
  EXPECT_EQ(a.per_video_requests, b.per_video_requests);
}

void expect_same_metrics(const obs::MetricShard& a,
                         const obs::MetricShard& b) {
  ASSERT_EQ(a.counters().size(), b.counters().size());
  for (const auto& [name, counter] : a.counters()) {
    const obs::Counter* other = b.find_counter(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(counter.value(), other->value()) << name;
  }
  ASSERT_EQ(a.histograms().size(), b.histograms().size());
  for (const auto& [name, hist] : a.histograms()) {
    const obs::HistogramMetric* other = b.find_histogram(name);
    ASSERT_NE(other, nullptr) << name;
    EXPECT_EQ(hist.count(), other->count()) << name;
    EXPECT_EQ(hist.histogram().bins(), other->histogram().bins()) << name;
  }
}

TEST(EngineObservability, ObserverDoesNotChangeResults) {
  MultiVideoConfig bare = engine_config();
  const MultiVideoResult without = run_multi_video_simulation(bare);

  obs::EngineObserver observer;
  MultiVideoConfig observed = engine_config();
  observed.observer = &observer;
  const MultiVideoResult with = run_multi_video_simulation(observed);

  expect_same_result(without, with);
  EXPECT_EQ(observer.num_shards(), 3u);
  const obs::MetricShard merged = observer.merged_metrics();
  EXPECT_EQ(merged.counter_value("engine_videos_total"), 130u);
  // Every admitted request receives one instance (new or shared) per
  // segment of its video.
  EXPECT_EQ(merged.counter_value("dhb_requests_total") * 20u,
            merged.counter_value("dhb_new_instances_total") +
                merged.counter_value("dhb_shared_instances_total"));
}

TEST(EngineObservability, MergedMetricsBitIdenticalAcrossThreadCounts) {
  obs::EngineObserver sequential_observer;
  MultiVideoConfig sequential = engine_config();
  sequential.num_threads = 1;
  sequential.observer = &sequential_observer;
  const MultiVideoResult base = run_multi_video_simulation(sequential);
  const obs::MetricShard base_metrics = sequential_observer.merged_metrics();

  for (int threads : {2, 4, 8}) {
    obs::EngineObserver observer;
    MultiVideoConfig parallel = engine_config();
    parallel.num_threads = threads;
    parallel.observer = &observer;
    const MultiVideoResult result = run_multi_video_simulation(parallel);
    expect_same_result(base, result);
    expect_same_metrics(base_metrics, observer.merged_metrics());
  }
}

TEST(EngineObservability, PerShardTracesLandOnOwnTracks) {
  obs::EngineObserver observer;
  MultiVideoConfig config = engine_config();
  config.observer = &observer;
  run_multi_video_simulation(config);

  const std::vector<const obs::TraceBuffer*> buffers =
      observer.trace_buffers();
  ASSERT_EQ(buffers.size(), 3u);
#ifndef VOD_OBSERVE_DISABLED
  for (size_t s = 0; s < buffers.size(); ++s) {
    EXPECT_GT(buffers[s]->emitted(), 0u) << s;
    for (const obs::TraceEvent& e : buffers[s]->snapshot()) {
      if (e.clock == obs::TraceClock::kWall) continue;  // kernel spans
      EXPECT_EQ(e.track, static_cast<uint32_t>(s));
    }
  }
#endif
}

// A kDhb catalog whose segment counts change inside shards, so a shard
// kernel retires its recycled scheduler and builds a new one mid-shard:
// shard 0 runs 20 then 30 segments, shard 1 runs 30, 190 (above the
// placement-index cutover) and 20, and shard 2 ends alternating 25/20.
int heterogeneous_segments(int v) {
  if (v < 40) return 20;
  if (v < 80) return 30;
  if (v < 100) return 190;
  if (v < 140 || v % 2 == 1) return 20;
  return 25;
}

MultiVideoConfig heterogeneous_config(int threads) {
  MultiVideoConfig config;
  config.catalog_size = 150;
  config.total_requests_per_hour = 900.0;
  config.warmup_hours = 1.0;
  config.measured_hours = 8.0;
  config.seed = 1234;
  config.num_threads = threads;
  for (int v = 0; v < config.catalog_size; ++v) {
    config.per_video_segments.push_back(heterogeneous_segments(v));
  }
  return config;
}

// Schedulers the engine builds for a config: one per run of equal
// segment counts inside each 64-video shard.
uint64_t scheduler_builds(const MultiVideoConfig& config) {
  const std::vector<int>& n = config.per_video_segments;
  uint64_t builds = 0;
  for (size_t v = 0; v < n.size(); ++v) {
    if (v % 64 == 0 || n[v] != n[v - 1]) ++builds;
  }
  return builds;
}

TEST(EngineObservability, RecycledSchedulersExportTheSameCounters) {
  // Goldens recorded from the engine that built one scheduler per video
  // and exported it when the video finished. Recycling one scheduler per
  // shard kernel, exported once when retired, must reproduce every dhb_*
  // and engine_* sum and the schedule op meters that reset() leaves
  // running. Only the memory meters may fall: fewer arena blocks, bytes
  // and slab re-layouts are the point.
  const std::vector<std::pair<const char*, uint64_t>> golden = {
      {"dhb_admissions_all_shared_total", 1128},
      {"dhb_admissions_placed_total", 6916},
      {"dhb_cap_violation_slots_total", 0},
      {"dhb_coalesced_requests_total", 1128},
      {"dhb_new_instances_total", 92140},
      {"dhb_rejected_admissions_total", 0},
      {"dhb_requests_total", 8044},
      {"dhb_scratch_blocks_total", 0},
      {"dhb_shared_instances_total", 175020},
      {"dhb_slot_probes_total", 11660605},
      {"dhb_work_units_total", 1020746},
      {"engine_idle_slots_total", 14206},
      {"engine_requests_total", 7113},
      {"engine_videos_total", 150},
      {"schedule_advances_total", 52844},
#ifndef VOD_AUDIT
      // VOD_AUDIT builds audit the placement index after every slot, which
      // wakes and queries it: there these two meters count the auditor.
      {"schedule_index_queries_total", 27931},
      {"schedule_index_updates_total", 32430},
#endif
      {"schedule_instances_added_total", 92140},
      {"schedule_overlay_ops_total", 0},
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE(threads);
    obs::EngineObserver observer;
    MultiVideoConfig config = heterogeneous_config(threads);
    config.observer = &observer;
    const MultiVideoResult result = run_multi_video_simulation(config);
    EXPECT_EQ(result.requests, 7113u);
    EXPECT_EQ(result.avg_streams, 201.85642317380348);

    const obs::MetricShard merged = observer.merged_metrics();
    for (const auto& [name, value] : golden) {
      EXPECT_EQ(merged.counter_value(name), value) << name;
    }
    // One arena block per scheduler built (its slabs fit one block) plus
    // at most one per slab re-layout; the per-video engine took 189.
    const uint64_t builds = scheduler_builds(config);
    EXPECT_EQ(builds, 16u);
    EXPECT_LE(merged.counter_value("schedule_arena_blocks_total"),
              builds + merged.counter_value("schedule_slab_grows_total"));
  }
}

}  // namespace
}  // namespace vod
