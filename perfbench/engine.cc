// The two engine workloads: catalog_zipf (a 100k-video DHB catalog) and
// diurnal_adaptive (a 1k-video catalog under the adaptive ladder). Both are
// batch jobs: one run_multi_video_simulation call, timed to its result and
// repeated until the run's wall time is spent.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <numeric>
#include <optional>

#include "analysis/transition_auditor.h"
#include "obs/trace.h"
#include "protocols/npb.h"
#include "server/adaptive_video.h"
#include "server/multi_video.h"
#include "sim/arrival_process.h"
#include "sim/random.h"
#include "sim/zipf.h"
#include "workloads.h"

namespace perfbench {
namespace {

using vod::MultiVideoConfig;
using vod::MultiVideoResult;

void mix_double(double v, uint64_t* h) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  fnv_mix(bits, h);
}

// FNV-1a over every figure the engine reports, per video included.
uint64_t checksum(const MultiVideoResult& r) {
  uint64_t h = kFnvBasis;
  fnv_mix(r.requests, &h);
  fnv_mix(r.measured_slots, &h);
  mix_double(r.avg_streams, &h);
  mix_double(r.max_streams, &h);
  mix_double(r.avg_kbs, &h);
  mix_double(r.max_kbs, &h);
  for (double a : r.per_video_avg) mix_double(a, &h);
  for (uint64_t q : r.per_video_requests) fnv_mix(q, &h);
  for (double p : r.per_video_provisioned) mix_double(p, &h);
  for (uint64_t s : r.per_video_switches) fnv_mix(s, &h);
  return h;
}

// Every slot the engine advances, warm-up included, times the catalog.
double video_slots(const MultiVideoConfig& c) {
  const double d = c.slot_duration_s;
  const double slots = std::ceil(c.warmup_hours * 3600.0 / d) +
                       std::ceil(c.measured_hours * 3600.0 / d);
  return slots * c.catalog_size;
}

double provisioned_total(const MultiVideoResult& r) {
  return std::accumulate(r.per_video_provisioned.begin(),
                         r.per_video_provisioned.end(), 0.0);
}

struct EngineRun {
  MultiVideoResult result;
  double seconds = 0.0;
};

EngineRun timed_run(const MultiVideoConfig& config, SpanRecorder* spans,
                    uint64_t id) {
  ScopedSpan span(spans, "run_multi_video_simulation", "server", id);
  EngineRun run;
  const int64_t t0 = now_ns();
  run.result = vod::run_multi_video_simulation(config);
  run.seconds = static_cast<double>(now_ns() - t0) / 1e9;
  return run;
}

// Calls the engine until `seconds` of wall time are spent (at least three
// calls), checking every call reproduces the first call's checksum. Set-up
// repeats, when given, run between calls.
struct Repeated {
  std::vector<double> call_s;
  MultiVideoResult first;
  uint64_t checksum = 0;
};

Repeated repeat_calls(const MultiVideoConfig& config, double seconds,
                      SpanRecorder* spans, SetupRepeats* setup,
                      Report* report) {
  Repeated rep;
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
  ScopedSpan root(spans, "timed_loop", "driver", 0);
  for (uint64_t call = 0; call < 3 || now_ns() < deadline; ++call) {
    EngineRun run = timed_run(config, spans, call);
    ++report->attempted;
    rep.call_s.push_back(run.seconds);
    const uint64_t sum = checksum(run.result);
    if (call == 0) {
      rep.first = std::move(run.result);
      rep.checksum = sum;
    } else if (sum != rep.checksum) {
      report->fail("engine call " + std::to_string(call) +
                   " diverged from the first call's checksum");
    }
    if (setup != nullptr) setup->between();
  }
  return rep;
}

// Untraced and traced halves of a traced run; returns the overhead share
// of the traced median call time over the untraced one.
struct TracedEngine {
  Repeated untraced;
  Repeated traced;
  std::unique_ptr<vod::obs::EngineObserver> observer;  // last traced call
  double overhead_share = 0.0;
};

TracedEngine traced_calls(MultiVideoConfig config, double seconds,
                          SpanRecorder* spans, Report* report) {
  TracedEngine t;
  SpanRecorder off(false);
  t.untraced = repeat_calls(config, seconds / 2, &off, nullptr, report);
  // One observer per call: EngineObserver accumulates across runs, and
  // the per-layer counters describe a single call.
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds / 2 * 1e9);
  ScopedSpan root(spans, "timed_loop", "driver", 0);
  for (uint64_t call = 0; call < 3 || now_ns() < deadline; ++call) {
    // Small rings: only each shard's closing shard_kernel span is read,
    // and it is the last event the shard emits.
    t.observer.reset();
    auto observer = std::make_unique<vod::obs::EngineObserver>(
        vod::obs::EngineObserver::Options{.trace_capacity_per_shard = 64,
                                          .flight_capacity_per_shard = 16});
    config.observer = observer.get();
    EngineRun run = timed_run(config, spans, call);
    ++report->attempted;
    t.traced.call_s.push_back(run.seconds);
    if (checksum(run.result) != t.untraced.checksum) {
      report->fail("traced engine call diverged from the untraced checksum");
    }
    t.observer = std::move(observer);
  }
  t.overhead_share =
      median_of(t.traced.call_s) / median_of(t.untraced.call_s) - 1.0;
  return t;
}

// Per-layer metrics read from the engine's observer: the dhb_*/schedule_*
// counters every per-video scheduler folds in, the engine's own counters,
// and the shard_kernel wall spans.
void engine_layer_metrics(const vod::obs::EngineObserver& observer,
                          const MultiVideoConfig& config, double call_s,
                          Report* report) {
  const vod::obs::MetricShard m = observer.merged_metrics();
  const auto c = [&](const char* name) {
    return static_cast<double>(m.counter_value(name));
  };
  const double requests = c("dhb_requests_total");
  const double attempts = requests + c("dhb_rejected_admissions_total");
  const auto per = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double advances = c("schedule_advances_total");
  report->metric("schedule.advance_calls", advances, "count");
  report->metric("schedule.index_queries_per_attempt",
                 per(c("schedule_index_queries_total"), attempts), "count");
  report->metric("schedule.index_updates_per_attempt",
                 per(c("schedule_index_updates_total"), attempts), "count");
  report->metric("schedule.overlay_ops", c("schedule_overlay_ops_total"),
                 "count");
  report->metric("schedule.slab_grows", c("schedule_slab_grows_total"),
                 "count");
  report->metric("schedule.arena_blocks", c("schedule_arena_blocks_total"),
                 "count");
  report->metric("core.admit_calls", attempts, "count");
  report->metric("core.probes_per_attempt",
                 per(c("dhb_slot_probes_total"), attempts), "count");
  report->metric("core.work_units_per_attempt",
                 per(c("dhb_work_units_total"), attempts), "count");
  report->metric("core.coalesced_share",
                 per(c("dhb_coalesced_requests_total"), requests), "ratio");
  report->metric("core.new_per_request",
                 per(c("dhb_new_instances_total"), requests), "count");
  report->metric("core.rejected_share",
                 per(c("dhb_rejected_admissions_total"), attempts), "ratio");

  report->metric("server.engine_busy_s", call_s, "s");
  report->metric("server.idle_slot_share",
                 per(c("engine_idle_slots_total"), video_slots(config)),
                 "ratio");
  const vod::obs::HistogramMetric* batch =
      m.find_histogram("engine_batch_requests");
  report->metric("server.batch_requests_mean",
                 batch != nullptr ? per(batch->sum(),
                                        static_cast<double>(batch->count()))
                                  : 0.0,
                 "count");
  std::vector<double> kernels;
  for (const vod::obs::TraceBuffer* buffer : observer.trace_buffers()) {
    for (const vod::obs::TraceEvent& e : buffer->snapshot()) {
      if (e.clock == vod::obs::TraceClock::kWall &&
          std::strcmp(e.name, "shard_kernel") == 0) {
        kernels.push_back(static_cast<double>(e.dur));
      }
    }
  }
  const double mean_kernel =
      kernels.empty() ? 0.0
                      : std::accumulate(kernels.begin(), kernels.end(), 0.0) /
                            static_cast<double>(kernels.size());
  report->metric("server.shard_imbalance",
                 mean_kernel > 0.0
                     ? *std::max_element(kernels.begin(), kernels.end()) /
                           mean_kernel
                     : 0.0,
                 "ratio");
  report->metric("server.switches", c("adaptive_switches_total"), "count");
  report->metric("server.migration_overlap_slots",
                 c("adaptive_migration_overlap_slots_total"), "count");
  report->metric("server.slots_mode_reactive",
                 c("adaptive_slots_mode_reactive_total"), "count");
  report->metric("server.slots_mode_dhb", c("adaptive_slots_mode_dhb_total"),
                 "count");
  report->metric("server.slots_mode_static",
                 c("adaptive_slots_mode_static_total"), "count");
}

// One set-up of an engine workload: run the engine untimed over `warmup`,
// a shorter horizon of the same catalog (thread pool start, allocator
// warm-up). Returns its time.
double setup_engine(const MultiVideoConfig& warmup) {
  const int64_t t0 = now_ns();
  vod::run_multi_video_simulation(warmup);
  return static_cast<double>(now_ns() - t0) / 1e9;
}

// The fast admission path must reproduce the naive Figure-6 reference on
// a prefix horizon, bit for bit.
void check_fast_matches_naive(MultiVideoConfig prefix, Report* report) {
  const uint64_t fast = checksum(vod::run_multi_video_simulation(prefix));
  prefix.fast_admission = false;
  ++report->attempted;
  if (checksum(vod::run_multi_video_simulation(prefix)) != fast) {
    report->fail("fast admission diverged from the naive reference");
  }
}

void check_sane(const MultiVideoResult& r, Report* report) {
  ++report->attempted;
  if (r.requests == 0 || !(r.avg_streams > 0.0) ||
      !(r.max_streams >= r.avg_streams)) {
    report->fail("engine result is degenerate (no requests or no streams)");
  }
}

EndToEnd engine_end_to_end(const MultiVideoConfig& config, double setup_s,
                           const Repeated& rep) {
  const double call_s = median_of(rep.call_s);
  EndToEnd e;
  e.setup_s = setup_s;
  e.video_slots_per_s = video_slots(config) / call_s;
  e.requests_per_s = static_cast<double>(rep.first.requests) / call_s;
  e.avg_streams = rep.first.avg_streams;
  e.peak_streams = rep.first.max_streams;
  e.provisioned_streams = provisioned_total(rep.first);
  return e;
}

// --- catalog_zipf --------------------------------------------------------

MultiVideoConfig catalog_config(uint64_t seed) {
  MultiVideoConfig c;
  c.catalog_size = 100000;
  c.num_segments = 99;
  c.zipf_exponent = 0.729;
  c.total_requests_per_hour = 20000.0;
  c.warmup_hours = 2.0;
  c.measured_hours = 18.0;
  c.policy = vod::VideoPolicy::kDhb;
  c.provision_window_slots = kProvisionWindow;
  c.num_threads = 4;  // the box's core count; the result is thread-invariant
  c.seed = seed;
  return c;
}

MultiVideoConfig prefix_of(MultiVideoConfig c, double hours) {
  c.warmup_hours = 0.0;
  c.measured_hours = hours;
  return c;
}

// --- diurnal_adaptive ----------------------------------------------------

constexpr double kDiurnalOffPeak = 40.0;    // aggregate trough, requests/h
constexpr double kDiurnalPeak = 2000.0;     // 50:1 prime time

MultiVideoConfig diurnal_config(uint64_t seed) {
  MultiVideoConfig c;
  c.catalog_size = 1000;
  c.num_segments = 99;
  c.zipf_exponent = 0.729;
  c.total_requests_per_hour = kDiurnalOffPeak;
  c.diurnal_peak_requests_per_hour = kDiurnalPeak;
  c.warmup_hours = 2.0;
  c.measured_hours = 48.0;  // two diurnal cycles
  c.policy = vod::VideoPolicy::kAdaptive;
  c.provision_window_slots = kProvisionWindow;
  // Four threads, like catalog_zipf. On a 4-vCPU VM shared with other
  // tenants, one thread runs wherever the host slows a core most, while
  // four spread a call over all of them: interleaved over 2 minutes, the
  // median call time of 20 s windows spread 9% on one thread and 3% on
  // four.
  c.num_threads = 4;
  c.seed = seed;
  return c;
}

// Replays the hottest rank's arrivals (the engine's own substream and
// demand curve) through an AdaptiveVideo watched by a TransitionAuditor:
// every committed reception must be transmitted on time across every
// protocol switch. The replay must see exactly the requests the engine's
// rank 0 saw in its measured span, and switch exactly as often, which
// proves it audits the engine's arrival stream.
struct GapAudit {
  uint64_t violations = 0;
  uint64_t transitions = 0;
  uint64_t plans = 0;
  uint64_t switches = 0;  // before the drain, as the engine counts them
  double trace_gen_s = 0.0;
};

GapAudit audit_hottest_rank(const MultiVideoConfig& c,
                            const MultiVideoResult& engine,
                            SpanRecorder* spans, Report* report) {
  GapAudit out;
  const vod::ZipfDistribution zipf(c.catalog_size, c.zipf_exponent);
  const double share = zipf.probability(0);
  const double d = c.slot_duration_s;
  const auto warmup =
      static_cast<uint64_t>(std::ceil(c.warmup_hours * 3600.0 / d));
  const uint64_t slots =
      warmup + static_cast<uint64_t>(std::ceil(c.measured_hours * 3600.0 / d));

  // The rank's per-slot arrival batches, drawn before the replay.
  const int32_t draw_span = spans->begin("draw_arrivals", "sim", 0);
  const int64_t t0 = now_ns();
  vod::NonHomogeneousPoissonProcess arrivals(
      vod::daily_demand_curve(c.total_requests_per_hour * share,
                              c.diurnal_peak_requests_per_hour * share),
      vod::per_hour(c.diurnal_peak_requests_per_hour * share),
      vod::Rng(c.seed).fork(1));
  std::vector<uint64_t> batches(slots, 0);
  double next = arrivals.next();
  for (uint64_t step = 1; step <= slots; ++step) {
    while (next < static_cast<double>(step) * d) {
      ++batches[step - 1];
      next = arrivals.next();
    }
  }
  out.trace_gen_s = static_cast<double>(now_ns() - t0) / 1e9;
  spans->end(draw_span);
  const uint64_t measured_requests = std::accumulate(
      batches.begin() + static_cast<ptrdiff_t>(warmup), batches.end(),
      uint64_t{0});

  const std::optional<vod::NpbMapping> mapping = vod::NpbMapping::build(
      vod::NpbMapping::streams_for(c.num_segments), c.num_segments);
  ++report->attempted;
  if (!mapping) {
    report->fail("no NPB mapping for the diurnal catalog's segment count");
    return out;
  }
  vod::TransitionAuditor auditor;
  vod::AdaptiveVideoConfig acfg = c.adaptive;
  acfg.num_segments = c.num_segments;
  vod::AdaptiveVideo video(acfg, &*mapping, &auditor);
  for (uint64_t b : batches) {
    video.advance_slot();
    video.on_slot_arrivals(b);
  }
  out.switches = video.switches();
  ++report->attempted;
  if (measured_requests != engine.per_video_requests[0] ||
      out.switches != engine.per_video_switches[0]) {
    report->fail("the audit replay saw " + std::to_string(measured_requests) +
                 " requests and " + std::to_string(out.switches) +
                 " switches, the engine's rank 0 " +
                 std::to_string(engine.per_video_requests[0]) + " and " +
                 std::to_string(engine.per_video_switches[0]) +
                 ": it does not replay the engine's arrivals");
  }
  // Drain: every committed reception falls due within 2n slots.
  for (int i = 0; i < 2 * c.num_segments + 2; ++i) {
    video.advance_slot();
    video.on_slot_arrivals(0);
  }
  out.violations = auditor.report().violations.size();
  out.transitions = auditor.transitions_seen();
  out.plans = auditor.plans_admitted();
  if (out.violations != 0) {
    report->fail("transition audit of the hottest rank: " +
                 auditor.report().to_string());
  }
  if (out.transitions == 0 || out.plans == 0 ||
      auditor.pending_receptions() != 0) {
    report->fail("transition audit of the hottest rank was vacuous or "
                 "left receptions pending");
  }
  return out;
}

// Shared body of both engine workloads. `gate` runs the workload's own
// correctness checks after the timed region and may add per-layer metrics
// (traced run only).
template <typename Gate>
Report run_engine(const Options& options, const char* workload,
                  const MultiVideoConfig& config, double setup_hours,
                  double prefix_hours, Gate gate) {
  Report report;
  SetupRepeats setup([warmup = prefix_of(config, setup_hours)] {
    return setup_engine(warmup);
  });
  SpanRecorder spans(options.trace);

  Repeated rep;
  if (!options.trace) {
    setup.spread_over(options.seconds);
    rep = repeat_calls(config, options.seconds, &spans, &setup, &report);
    add_end_to_end(engine_end_to_end(config, setup.median(), rep), &report);
    report.note(format_note("engine call", median_of(rep.call_s), "s",
                            rep.call_s.size()));
  } else {
    TracedEngine t = traced_calls(config, options.seconds, &spans, &report);
    engine_layer_metrics(*t.observer, config, median_of(t.traced.call_s),
                         &report);
    report.metric("obs.trace_overhead_share", t.overhead_share, "ratio");
    rep = std::move(t.untraced);
  }

  // Correctness gate, outside the timed region.
  check_sane(rep.first, &report);
  check_fast_matches_naive(prefix_of(config, prefix_hours), &report);
  gate(rep, &spans, &report);
  if (options.trace) finish_spans(spans, options, workload, &report);
  return report;
}

}  // namespace

Report run_catalog_zipf(const Options& options) {
  const MultiVideoConfig config = catalog_config(options.seed);
  return run_engine(
      options, "catalog_zipf", config, 2.0, 2.0,
      [&](const Repeated& rep, SpanRecorder*, Report* report) {
        MultiVideoConfig one = config;
        one.num_threads = 1;
        ++report->attempted;
        if (checksum(vod::run_multi_video_simulation(one)) != rep.checksum) {
          report->fail("the 4-thread result differs from the 1-thread run");
        }
      });
}

Report run_diurnal_adaptive(const Options& options) {
  const MultiVideoConfig config = diurnal_config(options.seed);
  return run_engine(
      options, "diurnal_adaptive", config, 12.0, 12.0,
      [&](const Repeated& rep, SpanRecorder* spans, Report* report) {
        GapAudit audit;
        {
          ScopedSpan span(spans, "transition_audit", "analysis", 0);
          audit = audit_hottest_rank(config, rep.first, spans, report);
        }
        report->note(format_note("hottest-rank gap violations",
                                 static_cast<double>(audit.violations),
                                 "count"));
        report->note(format_note("hottest-rank switches",
                                 static_cast<double>(audit.switches),
                                 "count"));
        if (spans->enabled()) {
          report->metric("sim.trace_gen_s", audit.trace_gen_s, "s");
          report->metric("server.gap_violations",
                         static_cast<double>(audit.violations), "count");
        }
      });
}

}  // namespace perfbench
