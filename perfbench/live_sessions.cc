// live_sessions: 32 VodServers (n = 99), Zipf-split, driven by one thread
// in an open loop in compressed real time. Slot k starts at a fixed wall
// instant; its tick (advance_slot on every server) is due then, and the
// slot's starts and pause/resume/stop operations are due at even fractions
// of the slot. Every operation is timed from its due instant, so a slow
// tick delays the operations queued behind it, and the generator's
// lateness is recorded. The offered rate is fixed; the script's length in
// slots follows from --seconds.
//
// The other half of the run replays the same script unpaced, as fast as
// the servers take it, and reports that capacity as video_slots_per_s and
// requests_per_s. Paced calls arrive at a cache that idled between slots,
// so their host times swing with whatever else shares the machine; the
// unpaced replays measure the same calls back to back.
//
// VodServer never erases finished or stopped sessions and advance_slot
// walks all of them, so tick cost grows over the run. That growth is the
// point of server.sessions_walked_per_tick and server.active_share; the
// run is deliberately neither shortened nor split across fresh servers.
#include <algorithm>
#include <array>
#include <cstdio>
#include <memory>
#include <numeric>

#include "analysis/schedule_auditor.h"
#include "server/vod_server.h"
#include "sim/random.h"
#include "sim/zipf.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kServers = 32;
constexpr int kSegments = 99;
// Offered rate, all servers. At 1.5 starts/slot the ~7.5k sessions retained
// by the end of a 20 s run still fit the core's cache: tick time grows
// linearly with them and repeats within ~2% between runs. At 3 starts/slot
// the table outgrows it part-way through and tick time swings by ~12%.
constexpr double kStartsPerSlot = 1.5;
constexpr int64_t kSlotNs = 2'000'000;     // host-time budget of one slot
constexpr int64_t kLateToleranceNs = 50'000;
constexpr uint64_t kWarmupSlots = 2000;    // unpaced replay in set-up
constexpr uint64_t kPrefixSlots = 100;     // per-slot outputs compared
constexpr uint64_t kSpanStride = 16;
constexpr uint64_t kSessionSampleStride = 64;

enum class OpKind : uint8_t { kStart, kPause, kResume, kStop };
constexpr size_t kOpKinds = 4;
constexpr const char* kOpNames[] = {"start", "pause", "resume", "stop"};

struct Op {
  OpKind kind;
  uint8_t server;
  uint32_t session;  // per-server start index; the server's id is index + 1
  bool operator==(const Op&) const = default;
};

struct Script {
  std::vector<Op> ops;
  std::vector<uint32_t> slot_begin;  // ops of slot s: [slot_begin[s], [s+1])
  bool operator==(const Script&) const = default;
};

// Viewer behaviour per start. The shares are coverage choices, not measured
// viewer behaviour (README.md gives the reasons): watching to the end stays
// the paper's main load; a pause of 1..30 slots exercises the clamped
// on_resume at every offset; abandoning at a uniform point exercises
// stop() with the never-cancelled tail left on the wire.
constexpr double kWatchShare = 0.5;
constexpr double kPauseShare = 0.3;  // the rest abandon
constexpr uint64_t kMaxPauseSlots = 30;

// Pauses and stops land while the session is still watching (offset
// <= n - 1 ticks after its start).
Script generate_script(uint64_t seed, uint64_t slots) {
  vod::Rng rng = vod::Rng(seed).fork(0x11fe);
  const vod::ZipfDistribution zipf(kServers, 0.729);
  std::vector<uint32_t> started(kServers, 0);
  struct Timed {
    uint64_t slot;
    Op op;
  };
  std::vector<Timed> timed;
  for (uint64_t s = 0; s < slots; ++s) {
    const uint64_t starts = rng.poisson(kStartsPerSlot);
    for (uint64_t i = 0; i < starts; ++i) {
      const auto server = static_cast<uint8_t>(zipf.sample(rng));
      const uint32_t session = started[server]++;
      timed.push_back({s, {OpKind::kStart, server, session}});
      const double u = rng.uniform();
      if (u < kWatchShare) continue;
      const uint64_t at = s + 1 + rng.uniform_index(kSegments - 1);
      if (u < kWatchShare + kPauseShare) {
        const uint64_t back = at + 1 + rng.uniform_index(kMaxPauseSlots);
        timed.push_back({at, {OpKind::kPause, server, session}});
        timed.push_back({back, {OpKind::kResume, server, session}});
      } else {
        timed.push_back({at, {OpKind::kStop, server, session}});
      }
    }
  }
  std::stable_sort(
      timed.begin(), timed.end(),
      [](const Timed& a, const Timed& b) { return a.slot < b.slot; });
  Script script;
  script.slot_begin.reserve(slots + 1);
  size_t next = 0;
  for (uint64_t s = 0; s < slots; ++s) {
    script.slot_begin.push_back(static_cast<uint32_t>(script.ops.size()));
    for (; next < timed.size() && timed[next].slot == s; ++next) {
      script.ops.push_back(timed[next].op);
    }
  }
  script.slot_begin.push_back(static_cast<uint32_t>(script.ops.size()));
  return script;
}

using Servers = std::vector<std::unique_ptr<vod::VodServer>>;

Servers make_servers(bool fast) {
  vod::DhbConfig c;
  c.num_segments = kSegments;
  c.use_placement_index = fast;
  c.coalesce_same_slot = fast;
  Servers servers;
  for (int i = 0; i < kServers; ++i) {
    servers.push_back(std::make_unique<vod::VodServer>(c));
  }
  return servers;
}

// Issues one scripted operation; returns false when a start got an
// unexpected id.
bool issue(const Op& op, vod::VodServer& server) {
  const vod::VodServer::ClientId id = op.session + 1;
  switch (op.kind) {
    case OpKind::kStart:
      return server.start() == id;
    case OpKind::kPause:
      server.pause(id);
      return true;
    case OpKind::kResume:
      server.resume(id);
      return true;
    case OpKind::kStop:
      server.stop(id);
      return true;
  }
  return true;
}

// One drive of the script, paced or not.
struct Drive {
  Servers servers;
  std::vector<double> admit_us;  // start/resume, from due time
  std::vector<double> tick_us;   // advance_slot over all servers, duration
  LagAccount lag{kLateToleranceNs};
  std::array<uint64_t, kOpKinds> op_calls{};   // by OpKind
  std::array<double, kOpKinds> op_busy_s{};
  double tick_busy_s = 0.0;
  uint64_t ops = 0;
  uint64_t bad_ids = 0;
  uint64_t prefix_hash = kFnvBasis;  // first kPrefixSlots
  std::vector<std::vector<int>> channels;  // per server, per slot
  std::vector<double> walked;  // sampled sessions-per-tick totals
};

Drive drive(const Script& script, uint64_t slots, bool paced, bool fast,
            SpanRecorder* spans) {
  Drive d;
  d.servers = make_servers(fast);
  d.channels.assign(kServers, {});
  for (auto& c : d.channels) c.reserve(slots);
  d.admit_us.reserve(script.slot_begin[slots]);
  d.tick_us.reserve(slots);
  const DueSchedule due{now_ns() + kSlotNs, kSlotNs};
  const auto wait_until = [&](int64_t t) {
    if (!paced) return;
    while (now_ns() < t) {
    }
  };
  const auto elapsed = [](int64_t a, int64_t b) {
    return static_cast<double>(b - a);
  };

  for (uint64_t s = 0; s < slots; ++s) {
    // Every kSpanStride-th slot is traced with all of its calls, and its
    // spans stand for the kSpanStride slots around it.
    const bool sampled = spans->enabled() && s % kSpanStride == 0;
    const int32_t slot_span =
        sampled ? spans->begin("slot", "driver", s, kSpanStride) : -1;

    const int64_t tick_due = due.slot_due(s);
    wait_until(tick_due);
    const int64_t t0 = now_ns();
    for (auto& server : d.servers) server->advance_slot();
    const int64_t t1 = now_ns();
    d.tick_us.push_back(elapsed(t0, t1) / 1e3);
    d.tick_busy_s += elapsed(t0, t1) / 1e9;
    if (paced) d.lag.record(tick_due, t0, t1);
    if (sampled) spans->add("advance_slot", "server", s, t0, t1);
    for (int i = 0; i < kServers; ++i) {
      const int in_use = d.servers[static_cast<size_t>(i)]->channels_in_use();
      d.channels[static_cast<size_t>(i)].push_back(in_use);
      if (s < kPrefixSlots) {
        fnv_mix(static_cast<uint64_t>(in_use), &d.prefix_hash);
      }
    }

    const uint32_t begin = script.slot_begin[s];
    const uint32_t end = script.slot_begin[s + 1];
    for (uint32_t i = begin; i < end; ++i) {
      const Op& op = script.ops[i];
      const int64_t op_due = due.op_due(s, i - begin, end - begin);
      wait_until(op_due);
      const int64_t a = now_ns();
      const bool ok = issue(op, *d.servers[op.server]);
      const int64_t b = now_ns();
      ++d.ops;
      if (!ok) ++d.bad_ids;
      const double from_due = paced ? static_cast<double>(
                                          d.lag.record(op_due, a, b)) / 1e3
                                    : elapsed(a, b) / 1e3;
      const auto kind = static_cast<size_t>(op.kind);
      ++d.op_calls[kind];
      d.op_busy_s[kind] += elapsed(a, b) / 1e9;
      if (op.kind == OpKind::kStart || op.kind == OpKind::kResume) {
        d.admit_us.push_back(from_due);
      }
      if (sampled) spans->add(kOpNames[kind], "server", op.session, a, b);
    }
    if (slot_span >= 0) spans->end(slot_span);

    // Outside the paced loop's timing: how many sessions the next tick
    // walks, read from the servers' own session tables.
    if (s % kSessionSampleStride == 0) {
      double total = 0.0;
      for (const auto& server : d.servers) {
        total += static_cast<double>(server->session_ids().size());
      }
      d.walked.push_back(total);
    }
  }
  return d;
}

// Per-server final state digest: every session's state, position, and
// playout verdict, plus the server's channel counters.
uint64_t state_hash(const Servers& servers) {
  uint64_t h = kFnvBasis;
  for (const auto& server : servers) {
    for (vod::VodServer::ClientId id : server->session_ids()) {
      const vod::VodServer::SessionInfo& info = server->session(id);
      fnv_mix(static_cast<uint64_t>(info.state), &h);
      fnv_mix(static_cast<uint64_t>(info.next_segment), &h);
      fnv_mix(info.playout_ok ? 1 : 0, &h);
    }
    fnv_mix(server->total_transmissions(), &h);
    fnv_mix(static_cast<uint64_t>(server->peak_channels()), &h);
  }
  return h;
}

// The run's inputs and reference digests, made in set-up.
struct Setup {
  Script script;
  std::vector<double> trace_gen_s;  // per set-up
  uint64_t prefix_hash = 0;
  uint64_t prefix_state = 0;
};

// One set-up: generate the script from the seed, construct servers and
// replay the first kWarmupSlots slots unpaced (warms allocator and caches;
// also the fast side of the fast-vs-naive check). The first set-up's
// script and digests are the run's; a repeat must reproduce them. Returns
// the set-up time.
double setup_once(uint64_t seed, uint64_t slots, Setup* set,
                  Report* report) {
  SpanRecorder off(false);
  const int64_t t0 = now_ns();
  // Long enough for the warm-up replay even when the run is short.
  Script script = generate_script(seed, std::max(slots, kWarmupSlots));
  const int64_t t1 = now_ns();
  const Drive warm = drive(script, kWarmupSlots, false, true, &off);
  const int64_t t2 = now_ns();
  set->trace_gen_s.push_back(static_cast<double>(t1 - t0) / 1e9);
  const uint64_t state = state_hash(warm.servers);
  if (set->trace_gen_s.size() == 1) {
    set->script = std::move(script);
    set->prefix_hash = warm.prefix_hash;
    set->prefix_state = state;
  } else {
    ++report->attempted;
    if (!(script == set->script) || warm.prefix_hash != set->prefix_hash ||
        state != set->prefix_state) {
      report->fail("a set-up repeat did not reproduce the first set-up");
    }
  }
  return static_cast<double>(t2 - t0) / 1e9;
}

// Correctness gate over a finished drive; returns the schedule audit's
// violation count.
uint64_t check(const Drive& d, const Setup& set, Report* report) {
  if (d.bad_ids != 0) report->fail("a start returned an unexpected id");
  if (d.prefix_hash != set.prefix_hash) {
    report->fail("paced drive diverged from the unpaced warm-up replay");
  }
  uint64_t bad_plans = 0;
  uint64_t violations = 0;
  for (const auto& server : d.servers) {
    for (vod::VodServer::ClientId id : server->session_ids()) {
      if (!server->session(id).playout_ok) ++bad_plans;
    }
    vod::ScheduleAuditor auditor(
        vod::AuditOptions{.allow_multiple_instances = true});
    const vod::AuditReport audit = auditor.audit(server->scheduler());
    ++report->attempted;
    violations += audit.violations.size();
    if (!audit.ok()) report->fail("schedule audit: " + audit.to_string());
  }
  if (bad_plans != 0) {
    report->fail(std::to_string(bad_plans) + " sessions failed verify_plan");
  }
  return violations;
}

// Unpaced replays of the whole script until `seconds` are spent (at least
// three). In a traced run every other replay records spans, and the
// overhead share compares the traced replays' median busy time with the
// untraced ones'. Set-up repeats, when given, run between replays.
struct Capacity {
  std::vector<double> tick_s;  // per replay
  std::vector<double> op_s;
  std::array<double, kOpKinds> op_busy_s{};  // summed over untraced replays
  uint64_t ops = 0;
  double overhead_share = 0.0;
};

Capacity capacity(const Script& script, uint64_t slots, double seconds,
                  uint64_t state, SpanRecorder* spans, SetupRepeats* setup,
                  Report* report) {
  Capacity c;
  SpanRecorder off(false);
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  const int64_t deadline = now_ns() + static_cast<int64_t>(seconds * 1e9);
  for (uint64_t i = 0; i < 3 || now_ns() < deadline; ++i) {
    const bool traced = spans->enabled() && i % 2 == 1;
    const Drive d = drive(script, slots, false, true, traced ? spans : &off);
    const double op_s =
        std::accumulate(d.op_busy_s.begin(), d.op_busy_s.end(), 0.0);
    (traced ? traced_s : plain_s).push_back(d.tick_busy_s + op_s);
    if (!traced) {
      c.tick_s.push_back(d.tick_busy_s);
      c.op_s.push_back(op_s);
      for (size_t k = 0; k < kOpKinds; ++k) c.op_busy_s[k] += d.op_busy_s[k];
    }
    c.ops = d.ops;
    report->attempted += d.ops;
    if (state_hash(d.servers) != state) {
      report->fail("an unpaced replay ended in a different state than the "
                   "paced drive");
    }
    if (setup != nullptr) setup->between();
  }
  if (!traced_s.empty()) {
    c.overhead_share = median_of(traced_s) / median_of(plain_s) - 1.0;
  }
  return c;
}

// The mix as it ran: each operation kind's share of the scripted operations
// and of the unpaced replays' operation time.
void note_mix(const Drive& d, const Capacity& cap, Report* report) {
  const double busy =
      std::accumulate(cap.op_busy_s.begin(), cap.op_busy_s.end(), 0.0);
  for (size_t k = 0; k < kOpKinds; ++k) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "mix %-7s %5.1f%% of operations, %5.1f%% of operation time",
                  kOpNames[k],
                  100.0 * static_cast<double>(d.op_calls[k]) /
                      static_cast<double>(d.ops),
                  100.0 * cap.op_busy_s[k] / busy);
    report->note(buf);
  }
}

}  // namespace

Report run_live_sessions(const Options& options) {
  Report report;
  const uint64_t slots =
      static_cast<uint64_t>(options.seconds / 2 * 1e9 / kSlotNs);
  if (slots < kSegments + kProvisionWindow) {
    report.fail("run too short for the live_sessions script");
    return report;
  }
  Setup set;
  SetupRepeats setup(
      [&] { return setup_once(options.seed, slots, &set, &report); });
  SpanRecorder spans(options.trace);
  SpanRecorder off(false);

  // The naive Figure-6 reference over the warm-up prefix must match the
  // fast path slot for slot and session for session.
  {
    const Drive naive = drive(set.script, kWarmupSlots, false, false, &off);
    ++report.attempted;
    if (naive.prefix_hash != set.prefix_hash ||
        state_hash(naive.servers) != set.prefix_state) {
      report.fail("fast admission diverged from the naive reference");
    }
  }

  // The paced drive is not traced: its slot spans would be mostly the
  // generator's spin until the next due instant. The traced unpaced
  // replays give the self times.
  const Drive d = drive(set.script, slots, true, true, &off);
  report.attempted += d.ops + slots;
  const uint64_t violations = check(d, set, &report);
  // The set-up repeats run between the unpaced replays, not inside the
  // paced drive's schedule.
  if (!options.trace) setup.spread_over(options.seconds / 2);
  const Capacity cap =
      capacity(set.script, slots, options.seconds / 2, state_hash(d.servers),
               &spans, options.trace ? nullptr : &setup, &report);
  if (options.trace) {
    // The input generation, traced once more: the same seed must give the
    // same script.
    ScopedSpan span(&spans, "generate_script", "sim", options.seed);
    ++report.attempted;
    if (!(generate_script(options.seed, set.script.slot_begin.size() - 1) ==
          set.script)) {
      report.fail("the same seed generated a different script");
    }
  }
  note_mix(d, cap, &report);

  const Summary admit = summarize(d.admit_us);
  const Summary tick = summarize(d.tick_us);
  const Summary lag = summarize(d.lag.lag_us());
  if (!admit.p99_supported || !tick.p99_supported) {
    report.fail("too few samples for a p99");
  }
  double sessions = 0.0;
  double active = 0.0;
  for (const auto& server : d.servers) {
    sessions += static_cast<double>(server->session_ids().size());
    active += server->active_sessions();
  }

  if (!options.trace) {
    EndToEnd e;
    e.setup_s = setup.median();
    e.video_slots_per_s =
        static_cast<double>(slots) * kServers / median_of(cap.tick_s);
    e.requests_per_s = static_cast<double>(cap.ops) / median_of(cap.op_s);
    std::vector<int> total(slots, 0);
    for (const auto& series : d.channels) {
      for (uint64_t s = 0; s < slots; ++s) total[s] += series[s];
      e.provisioned_streams += mean_window_peak(
          std::vector<int>(series.begin() + kSegments, series.end()),
          kProvisionWindow);
    }
    double sum = 0.0;
    int peak = 0;
    for (uint64_t s = kSegments; s < slots; ++s) {
      sum += total[s];
      peak = std::max(peak, total[s]);
    }
    e.avg_streams = sum / static_cast<double>(slots - kSegments);
    e.peak_streams = peak;
    add_end_to_end(e, &report);
    report.note(format_summary("admit (from due)", admit, "us"));
    report.note(format_summary("tick", tick, "us"));
    report.note(format_summary("generator lag", lag, "us"));
    report.note(format_note("late share", d.lag.late_share(), "ratio"));
    report.note(format_note("unpaced replays",
                            static_cast<double>(cap.tick_s.size()), "count"));
    report.note(format_note("sessions retained / active at end", sessions,
                            "count") +
                " / " + std::to_string(static_cast<int64_t>(active)));
    return report;
  }

  vod::obs::MetricShard c;
  for (const auto& server : d.servers) {
    c.merge_from(server->scheduler().metrics());
  }
  const auto v = [&](const char* name) {
    return static_cast<double>(c.counter_value(name));
  };
  const double requests = v("dhb_requests_total");
  const double attempts = requests + v("dhb_rejected_admissions_total");
  report.metric("sim.trace_gen_s", median_of(set.trace_gen_s), "s");
  report.metric("schedule.advance_calls", v("schedule_advances_total"),
                "count");
  double transmitted = 0.0;
  for (const auto& server : d.servers) {
    transmitted += static_cast<double>(server->total_transmissions());
  }
  report.metric("schedule.streams_per_advance",
                transmitted / v("schedule_advances_total"), "count");
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
  report.metric("core.probes_per_attempt",
                v("dhb_slot_probes_total") / attempts, "count");
  report.metric("core.work_units_per_attempt",
                v("dhb_work_units_total") / attempts, "count");
  report.metric("core.coalesced_share",
                v("dhb_coalesced_requests_total") / requests, "ratio");
  report.metric("core.new_per_request", v("dhb_new_instances_total") / requests,
                "count");
  report.metric("server.start_busy_s",
                d.op_busy_s[static_cast<size_t>(OpKind::kStart)], "s");
  report.metric("server.resume_busy_s",
                d.op_busy_s[static_cast<size_t>(OpKind::kResume)], "s");
  report.metric("server.tick_busy_s", d.tick_busy_s, "s");
  report.metric("server.admit_p50_us", admit.median, "us");
  report.metric("server.admit_p99_us", admit.p99, "us");
  report.metric("server.tick_p50_us", tick.median, "us");
  report.metric("server.tick_p99_us", tick.p99, "us");
  double walked = 0.0;
  for (double w : d.walked) walked += w;
  report.metric("server.sessions_walked_per_tick",
                walked / static_cast<double>(d.walked.size()), "count");
  report.metric("server.active_share", active / sessions, "ratio");
  report.metric("driver.gen_lag_p99_us", lag.p99, "us");
  report.metric("driver.late_share", d.lag.late_share(), "ratio");
  report.metric("analysis.audit_violations",
                static_cast<double>(violations), "count");
  report.metric("obs.trace_overhead_share", cap.overhead_share, "ratio");
  finish_spans(spans, options, "live_sessions", &report);
  return report;
}

}  // namespace perfbench
