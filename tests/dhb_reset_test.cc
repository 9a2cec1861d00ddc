// DhbScheduler::reset() must be indistinguishable from construction: a
// scheduler that has run arbitrary traffic, once reset, answers a second
// script exactly as a freshly built scheduler with the same config does —
// plans, instance tallies, transmitted slots, schedule occupancy, audit
// verdicts, and counter/op-meter deltas, compared on every step. The
// catalog engine leans on this to recycle one scheduler per shard kernel.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "analysis/schedule_auditor.h"
#include "core/dhb.h"
#include "sim/random.h"

namespace vod {
namespace {

constexpr int kSegments = 12;
constexpr int kHeuristics = 5;  // SlotHeuristic's rules, in enum order

enum class OpKind {
  kBatch,
  kResume,
  kRange,
  kBounded,
  kSetHeuristic,
  kAdvance,
};

struct Op {
  OpKind kind;
  int a = 0;  // batch size, first segment, channel cap, or heuristic
  int b = 0;  // last segment (kRange)
};

struct Variant {
  SlotHeuristic heuristic;
  bool vbr;
  int client_cap;
};

std::string describe(const Variant& v) {
  return to_string(v.heuristic) + (v.vbr ? "/vbr" : "/cbr") + "/cap" +
         std::to_string(v.client_cap);
}

DhbConfig config_for(const Variant& v) {
  DhbConfig c;
  c.num_segments = kSegments;
  c.heuristic = v.heuristic;
  c.client_stream_cap = v.client_cap;
  c.heuristic_seed = 99;
  c.placement_index_cutover = 0;  // the index engages: dormancy matters
  if (v.vbr) {
    // §4 work-ahead: later segments may be delayed past their CBR window.
    c.periods.resize(kSegments);
    for (int j = 1; j <= kSegments; ++j) {
      c.periods[static_cast<size_t>(j - 1)] = j == 1 ? 1 : j + j / 3;
    }
  }
  return c;
}

// A random script of `slots` slots. Each slot holds a few admissions of
// every kind the variant supports (bounded admission needs an uncapped
// client), an occasional live heuristic switch, then a clock advance —
// except the last slot, which ends on a full-request batch so the
// same-slot memo is valid when the script stops.
std::vector<Op> make_script(uint64_t seed, int slots, const Variant& v) {
  Rng rng(seed);
  const auto draw = [&rng](int n) {
    return static_cast<int>(rng.uniform_index(static_cast<uint64_t>(n)));
  };
  std::vector<Op> ops;
  ops.push_back({OpKind::kBatch, 3});
  for (int s = 0; s < slots; ++s) {
    const int admissions = draw(4);
    for (int i = 0; i < admissions; ++i) {
      const int kind = draw(5);
      if (kind <= 1) {
        ops.push_back({OpKind::kBatch, 1 + draw(4)});
      } else if (kind == 2) {
        ops.push_back({OpKind::kResume, 1 + draw(kSegments)});
      } else if (kind == 3) {
        const int first = 1 + draw(kSegments);
        const int last = first + draw(kSegments - first + 1);
        ops.push_back({OpKind::kRange, first, last});
      } else if (v.client_cap == 0) {
        ops.push_back({OpKind::kBounded, 2 + draw(6)});
      }
    }
    if (draw(16) == 0) {
      ops.push_back({OpKind::kSetHeuristic, draw(kHeuristics)});
    }
    ops.push_back({OpKind::kAdvance});
  }
  ops.push_back({OpKind::kBatch, 2});
  return ops;
}

// What one op did, in comparable form.
struct Outcome {
  bool admitted = true;
  Slot arrival = 0;
  std::vector<Slot> reception;
  int new_instances = 0;
  int shared_instances = 0;
  int cap_violations = 0;
  std::vector<Segment> sent;

  bool operator==(const Outcome&) const = default;
};

Outcome record(const DhbRequestResult& r) {
  Outcome o;
  o.arrival = r.plan.arrival_slot;
  o.reception = r.plan.reception_slot;
  o.new_instances = r.new_instances;
  o.shared_instances = r.shared_instances;
  o.cap_violations = r.cap_violations;
  return o;
}

Outcome apply(DhbScheduler* d, const Op& op) {
  switch (op.kind) {
    case OpKind::kBatch:
      return record(d->on_request_batch(static_cast<uint64_t>(op.a)));
    case OpKind::kResume:
      return record(d->on_resume(op.a));
    case OpKind::kRange:
      return record(d->on_range(op.a, op.b));
    case OpKind::kBounded: {
      const std::optional<DhbRequestResult> r = d->on_request_bounded(op.a);
      if (r) return record(*r);
      Outcome refused;
      refused.admitted = false;
      return refused;
    }
    case OpKind::kSetHeuristic:
      d->set_heuristic(static_cast<SlotHeuristic>(op.a));
      return {};
    case OpKind::kAdvance: {
      Outcome o;
      const std::span<const Segment> sent = d->advance_slot_view();
      o.sent.assign(sent.begin(), sent.end());
      return o;
    }
  }
  return {};
}

void run(DhbScheduler* d, const std::vector<Op>& script) {
  for (const Op& op : script) apply(d, op);
}

DhbCounters minus(DhbCounters a, const DhbCounters& b) {
  a.requests -= b.requests;
  a.new_instances -= b.new_instances;
  a.shared -= b.shared;
  a.slot_probes -= b.slot_probes;
  a.rejected_admissions -= b.rejected_admissions;
  a.work_units -= b.work_units;
  a.coalesced_requests -= b.coalesced_requests;
  a.admissions_placed -= b.admissions_placed;
  a.admissions_all_shared -= b.admissions_all_shared;
  a.cap_violation_slots -= b.cap_violation_slots;
  return a;
}

// The schedule's monotone op meters that a fresh scheduler starts at 0.
struct Meters {
  uint64_t instances_added = 0;
  uint64_t advances = 0;
  uint64_t overlay_ops = 0;
  uint64_t index_queries = 0;
  uint64_t index_updates = 0;

  bool operator==(const Meters&) const = default;
};

Meters meters(const DhbScheduler& d) {
  const SlotSchedule& s = d.schedule();
  Meters m;
  m.instances_added = s.total_instances_added();
  m.advances = s.total_advances();
  m.overlay_ops = s.total_overlay_ops();
  m.index_queries = s.total_index_queries();
  m.index_updates = s.total_index_updates();
  return m;
}

Meters minus(Meters a, const Meters& b) {
  a.instances_added -= b.instances_added;
  a.advances -= b.advances;
  a.overlay_ops -= b.overlay_ops;
  a.index_queries -= b.index_queries;
  a.index_updates -= b.index_updates;
  return a;
}

std::string audit(const DhbScheduler& d) {
  AuditOptions options;
  options.allow_multiple_instances =
      d.config().client_stream_cap > 0 || d.had_clamped_admissions();
  return ScheduleAuditor(options).audit_schedule(d.schedule()).to_string();
}

// Drives `recycled` (reset just before) and `fresh` through `script` in
// lockstep, comparing everything observable after every op.
void expect_lockstep(DhbScheduler* recycled, DhbScheduler* fresh,
                     const std::vector<Op>& script) {
  const DhbCounters counters0 = recycled->counters();
  const Meters meters0 = meters(*recycled);
  const auto compare_state = [&](size_t step) {
    ASSERT_EQ(recycled->current_slot(), fresh->current_slot()) << step;
    ASSERT_EQ(recycled->schedule().total_scheduled(),
              fresh->schedule().total_scheduled())
        << step;
    ASSERT_EQ(recycled->config().heuristic, fresh->config().heuristic)
        << step;
    ASSERT_EQ(recycled->had_clamped_admissions(),
              fresh->had_clamped_admissions())
        << step;
    ASSERT_EQ(audit(*recycled), "ok") << step;
    ASSERT_EQ(audit(*fresh), "ok") << step;
    ASSERT_EQ(minus(recycled->counters(), counters0), fresh->counters())
        << step;
    ASSERT_EQ(minus(meters(*recycled), meters0), meters(*fresh)) << step;
  };
  compare_state(0);
  for (size_t i = 0; i < script.size(); ++i) {
    const Outcome got = apply(recycled, script[i]);
    const Outcome want = apply(fresh, script[i]);
    ASSERT_EQ(got, want) << "op " << i;
    compare_state(i + 1);
  }
}

std::vector<Variant> all_variants() {
  std::vector<Variant> out;
  for (int h = 0; h < kHeuristics; ++h) {
    for (bool vbr : {false, true}) {
      for (int cap : {0, 2}) {
        out.push_back({static_cast<SlotHeuristic>(h), vbr, cap});
      }
    }
  }
  return out;
}

TEST(DhbReset, ResetSchedulerMatchesFreshOneOpByOp) {
  for (const Variant& v : all_variants()) {
    SCOPED_TRACE(describe(v));
    const DhbConfig config = config_for(v);
    DhbScheduler recycled(config);
    // Dirty phase: many ring wraps (ring <= 32 slots), slab growth, live
    // index, clamped admissions, switched heuristic, pending instances and
    // a valid same-slot memo at the moment of reset.
    const uint64_t dirty_seed = 1000 + static_cast<uint64_t>(v.client_cap);
    run(&recycled, make_script(dirty_seed, 300, v));
    ASSERT_GT(recycled.schedule().total_scheduled(), 0);
    ASSERT_GT(recycled.schedule().total_slab_grows(), 0u);
    ASSERT_GT(recycled.current_slot(), 8 * kSegments);

    recycled.reset();
    DhbScheduler fresh(config);
    expect_lockstep(&recycled, &fresh, make_script(7, 200, v));
  }
}

TEST(DhbReset, ResetRestoresTheConstructedHeuristic) {
  DhbConfig config;
  config.num_segments = kSegments;
  config.heuristic = SlotHeuristic::kEarliest;
  DhbScheduler d(config);
  d.set_heuristic(SlotHeuristic::kRandom);
  d.on_request();
  ASSERT_EQ(d.config().heuristic, SlotHeuristic::kRandom);
  d.reset();
  EXPECT_EQ(d.config().heuristic, SlotHeuristic::kEarliest);
}

TEST(DhbReset, ResetLeavesThePlacementIndexDormant) {
  // Constructed with a rule that never queries the index; a switched-in
  // min-load rule wakes it. After reset() the constructed rule places
  // again, and a dormant index is not maintained: its update meter stays
  // flat until the next indexed use, exactly as on a fresh scheduler.
  // (The dormant phase does not advance the clock: VOD_AUDIT builds audit
  // the index after every slot, which wakes it.)
  DhbConfig config;
  config.num_segments = kSegments;
  config.heuristic = SlotHeuristic::kLatest;
  config.placement_index_cutover = 0;
  DhbScheduler d(config);
  d.set_heuristic(SlotHeuristic::kMinLoadLatest);
  d.on_request();
  const uint64_t live = d.schedule().total_index_updates();
  ASSERT_GT(d.schedule().total_index_queries(), 0u);
  d.advance_slot_view();
  d.on_request();  // places segment 1 under the live index
  ASSERT_GT(d.schedule().total_index_updates(), live);

  d.reset();
  const uint64_t dormant = d.schedule().total_index_updates();
  const uint64_t added = d.schedule().total_instances_added();
  d.on_request();  // kLatest again: places every segment, no index use
  EXPECT_EQ(d.schedule().total_instances_added(), added + kSegments);
  EXPECT_EQ(d.schedule().total_index_updates(), dormant);

  d.set_heuristic(SlotHeuristic::kMinLoadLatest);
  d.advance_slot_view();
  d.on_request();  // an indexed placement: the index wakes, exact
  EXPECT_GT(d.schedule().total_index_updates(), dormant);
  EXPECT_EQ(audit(d), "ok");
}

TEST(DhbReset, ResetReseedsTheRandomHeuristic) {
  DhbConfig config;
  config.num_segments = kSegments;
  config.heuristic = SlotHeuristic::kRandom;
  const auto plans = [](DhbScheduler* d) {
    std::vector<Slot> out;
    for (int s = 0; s < 4 * kSegments; ++s) {
      const DhbRequestResult r = d->on_request();
      out.insert(out.end(), r.plan.reception_slot.begin(),
                 r.plan.reception_slot.end());
      d->advance_slot_view();
    }
    return out;
  };
  DhbScheduler d(config);
  const std::vector<Slot> first = plans(&d);
  d.reset();
  EXPECT_EQ(plans(&d), first);
}

TEST(DhbReset, ResetOfAnUnusedSchedulerIsANoOp) {
  for (const Variant& v : all_variants()) {
    SCOPED_TRACE(describe(v));
    DhbScheduler reset_unused(config_for(v));
    reset_unused.reset();
    EXPECT_EQ(reset_unused.counters(), DhbCounters{});
    EXPECT_EQ(reset_unused.schedule().total_arena_blocks(), 1u);
    DhbScheduler fresh(config_for(v));
    expect_lockstep(&reset_unused, &fresh, make_script(5, 60, v));
  }
}

}  // namespace
}  // namespace vod
