// admission_deep: one DhbScheduler with n = 2000 (the placement index is on:
// n * window = 4e6, far past the 32768 cutover) replaying a pre-generated
// per-slot trace in a closed loop. Arrivals are sparse (~0.5/slot), so
// nearly every admission is a fresh min-load placement rather than a
// coalesced follower. The mix is on_request, VCR seeks through on_resume,
// and on_request_bounded at a channel cap near the typical slot load; the
// benchmark's controller retries refused bounded requests every following
// slot until they are admitted.
#include <algorithm>
#include <array>
#include <cstdio>
#include <optional>

#include "analysis/schedule_auditor.h"
#include "core/dhb.h"
#include "schedule/client_plan.h"
#include "sim/random.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSegments = 2000;
constexpr double kArrivalsPerSlot = 0.5;
constexpr uint64_t kSlotsPerRep = 25000;
// Channel cap of the bounded admissions: near the typical slot load of
// this mix, so refusals are common but the retry queue drains.
constexpr int kChannelCap = 24;
// Untimed replay in set-up: five fill-up periods.
constexpr uint64_t kWarmupSlots = 5 * kSegments;
// Slots the fast path is replayed against the naive Figure-6 scans.
constexpr uint64_t kNaivePrefixSlots = 1500;
// Per-call latency samples are kept from the first kSampledReps replays,
// so memory does not grow with the number of replays a run fits in.
constexpr uint64_t kSampledReps = 8;
// Traced runs record spans for every kSpanStride-th slot.
constexpr uint64_t kSpanStride = 16;

enum class OpKind : uint8_t { kRequest, kResume, kBounded };

// Admission calls by kind: the three trace kinds, and the controller's
// retries of refused bounded requests.
enum CallKind : size_t { kCallRequest, kCallResume, kCallBounded, kCallRetry };
constexpr const char* kCallNames[] = {"on_request", "on_resume",
                                      "on_request_bounded",
                                      "on_request_bounded retry"};
constexpr size_t kCallKinds = 4;

// Trace mix: shares of arrivals. These are coverage choices, not measured
// viewer behaviour, so every run prints the mix as it ran (note_mix):
// plain requests are the paper's admission path and stay the majority;
// seeks reach every suffix offset; bounded requests add read-only refusals.
constexpr double kRequestShare = 0.6;
constexpr double kResumeShare = 0.2;  // the rest are bounded requests

struct Op {
  OpKind kind;
  int first_segment;  // kResume only
  bool operator==(const Op&) const = default;
};

// The replayed input: ops of slot s are ops[slot_begin[s] .. slot_begin[s+1]).
struct Trace {
  std::vector<Op> ops;
  std::vector<uint32_t> slot_begin;
  bool operator==(const Trace&) const = default;
};

Trace generate_trace(uint64_t seed) {
  vod::Rng rng = vod::Rng(seed).fork(0xadd);
  Trace t;
  t.slot_begin.reserve(kSlotsPerRep + 1);
  for (uint64_t s = 0; s < kSlotsPerRep; ++s) {
    t.slot_begin.push_back(static_cast<uint32_t>(t.ops.size()));
    const uint64_t arrivals = rng.poisson(kArrivalsPerSlot);
    for (uint64_t a = 0; a < arrivals; ++a) {
      const double u = rng.uniform();
      if (u < kRequestShare) {
        t.ops.push_back({OpKind::kRequest, 1});
      } else if (u < kRequestShare + kResumeShare) {
        const int first =
            2 + static_cast<int>(rng.uniform_index(kSegments - 1));
        t.ops.push_back({OpKind::kResume, first});
      } else {
        t.ops.push_back({OpKind::kBounded, 1});
      }
    }
  }
  t.slot_begin.push_back(static_cast<uint32_t>(t.ops.size()));
  return t;
}

vod::DhbConfig scheduler_config(bool fast) {
  vod::DhbConfig c;
  c.num_segments = kSegments;
  c.use_placement_index = fast;
  c.coalesce_same_slot = fast;
  return c;
}

// Digest of one admission outcome: refused, or the plan's arrival and
// every reception slot.
uint64_t outcome_hash(const vod::DhbRequestResult* r) {
  uint64_t h = kFnvBasis;
  if (r == nullptr) return h;
  fnv_mix(static_cast<uint64_t>(r->plan.arrival_slot), &h);
  for (vod::Slot s : r->plan.reception_slot) {
    fnv_mix(static_cast<uint64_t>(s), &h);
  }
  return h;
}

// What one replay of the trace measured and produced.
struct Rep {
  std::vector<double> admit_us;   // per admission call
  std::vector<double> tick_us;    // per advance_slot_view call
  double admit_busy_s = 0.0;
  double tick_busy_s = 0.0;
  std::array<uint64_t, kCallKinds> calls{};
  std::array<double, kCallKinds> call_busy_s{};
  uint64_t attempts = 0;
  uint64_t plan_failures = 0;
  uint64_t checksum = kFnvBasis;
  std::vector<uint64_t> outcomes;  // per attempt, first `prefix` slots
  std::vector<int> slot_streams;   // per slot after the fill-up
  std::vector<double> startup_wait_slots;
  uint64_t audit_violations = 0;
  std::string audit_text;
  vod::obs::MetricShard counters;
};

// Replays `slots` slots of the trace on a fresh scheduler. Only the library
// calls are timed; plan verification and hashing run between them.
Rep replay(const Trace& trace, uint64_t slots, bool fast, bool verify,
           uint64_t prefix, SpanRecorder* spans) {
  vod::DhbScheduler scheduler(scheduler_config(fast));
  Rep rep;
  rep.admit_us.reserve(trace.slot_begin[slots] + slots / 4);
  rep.tick_us.reserve(slots);
  rep.slot_streams.reserve(slots);
  std::vector<uint64_t> pending;  // arrival slots of refused bounded requests

  const auto check_plan = [&](const vod::DhbRequestResult& r,
                              const std::vector<int>& periods) {
    if (!verify) return;
    if (!vod::verify_plan(r.plan, periods).deadlines_met) ++rep.plan_failures;
  };
  // Records one timed admission call; sampled slots also get its span.
  SpanRecorder* slot_spans = nullptr;
  const auto record = [&](CallKind kind, const vod::DhbRequestResult* r,
                          uint64_t slot, int64_t t0, int64_t t1) {
    ++rep.attempts;
    const double busy = static_cast<double>(t1 - t0) / 1e9;
    rep.admit_us.push_back(busy * 1e6);
    rep.admit_busy_s += busy;
    ++rep.calls[kind];
    rep.call_busy_s[kind] += busy;
    if (slot_spans) {
      slot_spans->add(kind == kCallRetry ? kCallNames[kCallBounded]
                                         : kCallNames[kind],
                      "core", slot, t0, t1);
    }
    const uint64_t h = outcome_hash(r);
    fnv_mix(h, &rep.checksum);
    if (slot < prefix) rep.outcomes.push_back(h);
  };

  for (uint64_t s = 0; s < slots; ++s) {
    // Every kSpanStride-th slot is traced with all of its calls, and its
    // spans stand for the kSpanStride slots around it.
    const bool sampled = spans->enabled() && s % kSpanStride == 0;
    slot_spans = sampled ? spans : nullptr;
    const int32_t slot_span =
        sampled ? spans->begin("slot", "driver", s, kSpanStride) : -1;

    int64_t t0 = now_ns();
    const size_t streams = scheduler.advance_slot_view().size();
    int64_t t1 = now_ns();
    rep.tick_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    rep.tick_busy_s += static_cast<double>(t1 - t0) / 1e9;
    if (slot_spans) slot_spans->add("advance_slot_view", "schedule", s, t0, t1);
    if (s >= static_cast<uint64_t>(kSegments)) {
      rep.slot_streams.push_back(static_cast<int>(streams));
      fnv_mix(streams, &rep.checksum);
    }
    const uint64_t now = static_cast<uint64_t>(scheduler.current_slot());

    // Controller: refused bounded requests retry first, oldest first.
    std::vector<uint64_t> still_pending;
    for (uint64_t arrival : pending) {
      t0 = now_ns();
      const std::optional<vod::DhbRequestResult> r =
          scheduler.on_request_bounded(kChannelCap);
      t1 = now_ns();
      record(kCallRetry, r ? &*r : nullptr, s, t0, t1);
      if (r) {
        check_plan(*r, scheduler.periods());
        rep.startup_wait_slots.push_back(
            static_cast<double>(r->plan.reception_slot[0] - arrival));
      } else {
        still_pending.push_back(arrival);
      }
    }
    pending.swap(still_pending);

    for (uint32_t i = trace.slot_begin[s]; i < trace.slot_begin[s + 1]; ++i) {
      const Op& op = trace.ops[i];
      if (op.kind == OpKind::kBounded) {
        t0 = now_ns();
        const std::optional<vod::DhbRequestResult> r =
            scheduler.on_request_bounded(kChannelCap);
        t1 = now_ns();
        record(kCallBounded, r ? &*r : nullptr, s, t0, t1);
        if (r) {
          check_plan(*r, scheduler.periods());
          rep.startup_wait_slots.push_back(
              static_cast<double>(r->plan.reception_slot[0]) -
              static_cast<double>(now));
        } else {
          pending.push_back(now);
        }
      } else if (op.kind == OpKind::kRequest) {
        t0 = now_ns();
        const vod::DhbRequestResult r = scheduler.on_request();
        t1 = now_ns();
        record(kCallRequest, &r, s, t0, t1);
        check_plan(r, scheduler.periods());
        rep.startup_wait_slots.push_back(
            static_cast<double>(r.plan.reception_slot[0]) -
            static_cast<double>(now));
      } else {
        t0 = now_ns();
        const vod::DhbRequestResult r = scheduler.on_resume(op.first_segment);
        t1 = now_ns();
        record(kCallResume, &r, s, t0, t1);
        if (verify) check_plan(r, scheduler.resume_periods(op.first_segment));
      }
    }
    if (slot_span >= 0) spans->end(slot_span);
  }

  if (verify) {
    vod::ScheduleAuditor auditor(
        vod::AuditOptions{.allow_multiple_instances = true});
    const vod::AuditReport audit = auditor.audit(scheduler);
    rep.audit_violations = audit.violations.size();
    if (!audit.ok()) rep.audit_text = audit.to_string();
  }
  rep.counters.merge_from(scheduler.metrics());
  return rep;
}

// The run's inputs, generated in set-up.
struct Setup {
  Trace trace;
  std::vector<double> trace_gen_s;  // per set-up
};

// One set-up: generate the trace from the seed, then construct a scheduler
// and replay the first kWarmupSlots slots untimed, so allocator and cache
// state are warm before timing. The first set-up's trace is the run's
// input; a repeat must generate the same trace. Returns the set-up time.
double setup_once(uint64_t seed, Setup* set, Report* report) {
  SpanRecorder off(false);
  const int64_t t0 = now_ns();
  Trace trace = generate_trace(seed);
  const int64_t t1 = now_ns();
  replay(trace, kWarmupSlots, true, false, 0, &off);
  const int64_t t2 = now_ns();
  set->trace_gen_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  if (set->trace_gen_s.size() == 1) {
    set->trace = std::move(trace);
  } else {
    ++report->attempted;
    if (!(trace == set->trace)) {
      report->fail("the same seed generated a different trace");
    }
  }
  return static_cast<double>(t2 - t0) / 1e9;
}

struct Measured {
  Rep first;
  std::vector<double> admit_us;
  std::vector<double> tick_us;
  std::vector<double> rep_busy_s;  // admissions + advances, per replay
  double admit_busy_s = 0.0;
  double tick_busy_s = 0.0;
  std::array<double, kCallKinds> call_busy_s{};
  uint64_t reps = 0;
};

// Replays the trace until `seconds` of wall time are spent (at least one
// full replay); every replay must reproduce the first one's outcomes.
// Timed replays only hash their outcomes; checking them is the gate's job.
// Set-up repeats, when given, run between replays.
Measured measure(const Trace& trace, double seconds, SpanRecorder* spans,
                 SetupRepeats* setup, Report* report) {
  Measured m;
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
  do {
    Rep rep = replay(trace, kSlotsPerRep, true, false, 0, spans);
    if (m.reps < kSampledReps) {
      m.admit_us.insert(m.admit_us.end(), rep.admit_us.begin(),
                        rep.admit_us.end());
      m.tick_us.insert(m.tick_us.end(), rep.tick_us.begin(),
                       rep.tick_us.end());
    }
    m.admit_busy_s += rep.admit_busy_s;
    m.tick_busy_s += rep.tick_busy_s;
    for (size_t k = 0; k < kCallKinds; ++k) {
      m.call_busy_s[k] += rep.call_busy_s[k];
    }
    m.rep_busy_s.push_back(rep.admit_busy_s + rep.tick_busy_s);
    report->attempted += rep.attempts;
    if (m.reps == 0) {
      m.first = std::move(rep);
    } else if (rep.checksum != m.first.checksum) {
      report->fail("replay diverged from the first replay");
    }
    ++m.reps;
    if (setup != nullptr) setup->between();
  } while (now_ns() < deadline);
  return m;
}

// The mix as it ran: each call kind's share of the admission calls and of
// the timed admission time, so a claim can be read against the mix.
void note_mix(const Measured& m, Report* report) {
  for (size_t k = 0; k < kCallKinds; ++k) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "mix %-26s %5.1f%% of calls, %5.1f%% of admission time",
                  kCallNames[k],
                  100.0 * static_cast<double>(m.first.calls[k]) /
                      static_cast<double>(m.first.attempts),
                  100.0 * m.call_busy_s[k] / m.admit_busy_s);
    report->note(buf);
  }
}

}  // namespace

Report run_admission_deep(const Options& options) {
  Report report;
  Setup set;
  SetupRepeats setup([&] { return setup_once(options.seed, &set, &report); });
  SpanRecorder spans(options.trace);
  SpanRecorder off(false);

  Measured m;
  double overhead = 0.0;
  if (!options.trace) {
    setup.spread_over(options.seconds);
    m = measure(set.trace, options.seconds, &off, &setup, &report);
  } else {
    const Measured plain = measure(set.trace, options.seconds / 2, &off,
                                   nullptr, &report);
    m = measure(set.trace, options.seconds / 2, &spans, nullptr, &report);
    overhead = median_of(m.rep_busy_s) / median_of(plain.rep_busy_s) - 1.0;
    // The input generation, traced once more: the same seed must give the
    // same trace.
    ScopedSpan span(&spans, "generate_trace", "sim", options.seed);
    ++report.attempted;
    if (!(generate_trace(options.seed) == set.trace)) {
      report.fail("the same seed generated a different trace");
    }
  }
  note_mix(m, &report);

  // Correctness gate, untimed. One more replay runs verify_plan on every
  // returned plan and audits the schedule at the end; the timed replays
  // must have returned exactly its plans (the checksum covers every
  // reception slot), so every plan they returned is verified too. The
  // naive Figure-6 scans must then match it decision by decision on a
  // prefix of the same trace.
  Rep checked;
  {
    ScopedSpan span(&spans, "verified_replay", "analysis", 0);
    checked = replay(set.trace, kSlotsPerRep, true, true, kNaivePrefixSlots,
                   &off);
  }
  report.attempted += checked.attempts;
  if (checked.checksum != m.first.checksum) {
    report.fail("timed replays diverged from the verified replay");
  }
  if (checked.plan_failures != 0) {
    report.fail(std::to_string(checked.plan_failures) +
                " returned plans missed a deadline");
  }
  if (checked.audit_violations != 0) {
    report.fail("schedule audit: " + checked.audit_text);
  }
  {
    ScopedSpan span(&spans, "naive_reference", "analysis", 0);
    const Rep naive =
        replay(set.trace, kNaivePrefixSlots, false, true, kNaivePrefixSlots,
               &off);
    report.attempted += naive.attempts;
    if (naive.outcomes != checked.outcomes) {
      report.fail("fast admission diverged from the naive reference within "
                  "the first " + std::to_string(kNaivePrefixSlots) +
                  " slots");
    }
    if (naive.plan_failures != 0 || naive.audit_violations != 0) {
      report.fail("naive reference replay failed its own checks");
    }
  }
  const Summary admit = summarize(m.admit_us);
  const Summary tick = summarize(m.tick_us);
  const Summary wait = summarize(checked.startup_wait_slots);
  if (!admit.p99_supported || !wait.p99_supported) {
    report.fail("too few samples for a p99");
  }

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = setup.median();
    // Per replay, median over replays: slots advanced and trace requests
    // served (each counted once; its bounded retries are in the time).
    const double rep_s = median_of(m.rep_busy_s);
    e.video_slots_per_s = static_cast<double>(kSlotsPerRep) / rep_s;
    e.requests_per_s = static_cast<double>(set.trace.ops.size()) / rep_s;
    double sum = 0.0;
    int peak = 0;
    for (int v : checked.slot_streams) {
      sum += v;
      peak = std::max(peak, v);
    }
    e.avg_streams = sum / static_cast<double>(checked.slot_streams.size());
    e.peak_streams = peak;
    e.provisioned_streams =
        mean_window_peak(checked.slot_streams, kProvisionWindow);
    add_end_to_end(e, &report);
    report.note(format_summary("admit", admit, "us"));
    report.note(format_summary("tick", tick, "us"));
    report.note(format_summary("startup_wait", wait, "slots"));
    report.note(format_note("replays", static_cast<double>(m.reps), "count"));
    return report;
  }

  const vod::obs::MetricShard& c = checked.counters;
  const auto v = [&](const char* name) {
    return static_cast<double>(c.counter_value(name));
  };
  const double attempts = static_cast<double>(checked.attempts);
  const double requests = v("dhb_requests_total");
  const double reps = static_cast<double>(m.reps);
  double streams = 0.0;
  for (int s : checked.slot_streams) streams += s;
  report.metric("sim.trace_gen_s", median_of(set.trace_gen_s), "s");
  report.metric("schedule.advance_calls", v("schedule_advances_total"),
                "count");
  report.metric("schedule.advance_busy_s", m.tick_busy_s / reps, "s");
  report.metric("schedule.streams_per_advance",
                streams / static_cast<double>(checked.slot_streams.size()),
                "count");
  report.metric("schedule.index_queries_per_attempt",
                v("schedule_index_queries_total") / attempts, "count");
  report.metric("schedule.index_updates_per_attempt",
                v("schedule_index_updates_total") / attempts, "count");
  report.metric("schedule.overlay_ops", v("schedule_overlay_ops_total"),
                "count");
  report.metric("schedule.slab_grows", v("schedule_slab_grows_total"),
                "count");
  report.metric("schedule.arena_blocks", v("schedule_arena_blocks_total"),
                "count");
  report.metric("core.admit_calls", attempts, "count");
  report.metric("core.admit_busy_s", m.admit_busy_s / reps, "s");
  report.metric("core.admit_p50_us", admit.median, "us");
  report.metric("core.admit_p99_us", admit.p99, "us");
  report.metric("core.probes_per_attempt",
                v("dhb_slot_probes_total") / attempts, "count");
  report.metric("core.work_units_per_attempt",
                v("dhb_work_units_total") / attempts, "count");
  report.metric("core.coalesced_share",
                v("dhb_coalesced_requests_total") / requests, "ratio");
  report.metric("core.new_per_request", v("dhb_new_instances_total") / requests,
                "count");
  report.metric("core.rejected_share",
                v("dhb_rejected_admissions_total") / attempts, "ratio");
  report.metric("core.startup_wait_p99_slots", wait.p99, "slots");
  report.metric("analysis.audit_violations",
                static_cast<double>(checked.audit_violations), "count");
  report.metric("obs.trace_overhead_share", overhead, "ratio");
  finish_spans(spans, options, "admission_deep", &report);
  return report;
}

}  // namespace perfbench
