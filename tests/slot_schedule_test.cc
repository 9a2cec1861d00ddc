#include "schedule/slot_schedule.h"

#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "sim/random.h"

namespace vod {
namespace {

TEST(SlotSchedule, StartsEmptyAtSlotZero) {
  SlotSchedule s(10, 10);
  EXPECT_EQ(s.now(), 0);
  EXPECT_EQ(s.total_scheduled(), 0);
  for (Slot t = 1; t <= 10; ++t) EXPECT_EQ(s.load(t), 0);
}

TEST(SlotSchedule, AddInstanceUpdatesLoadAndIndex) {
  SlotSchedule s(5, 5);
  s.add_instance(3, 2);
  EXPECT_EQ(s.load(2), 1);
  EXPECT_EQ(s.total_scheduled(), 1);
  EXPECT_TRUE(s.has_future_instance(3));
  EXPECT_FALSE(s.has_future_instance(2));
  ASSERT_EQ(s.instances_of(3).size(), 1u);
  EXPECT_EQ(s.instances_of(3)[0], 2);
}

TEST(SlotSchedule, FindInstanceRespectsRange) {
  SlotSchedule s(5, 5);
  s.add_instance(2, 3);
  EXPECT_EQ(s.find_instance(2, 1, 5).value(), 3);
  EXPECT_EQ(s.find_instance(2, 3, 3).value(), 3);
  EXPECT_FALSE(s.find_instance(2, 4, 5).has_value());
  EXPECT_FALSE(s.find_instance(2, 1, 2).has_value());
  EXPECT_FALSE(s.find_instance(1, 1, 5).has_value());
}

TEST(SlotSchedule, FindInstanceReturnsLatest) {
  SlotSchedule s(5, 10);
  s.add_instance(2, 3);
  s.add_instance(2, 7);
  EXPECT_EQ(s.find_instance(2, 1, 10).value(), 7);
  EXPECT_EQ(s.find_instance(2, 1, 5).value(), 3);
}

TEST(SlotSchedule, AdvanceReturnsSlotContents) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 1);
  s.add_instance(4, 1);
  s.add_instance(2, 2);
  const std::span<const Segment> slot1 = s.advance();
  EXPECT_EQ(s.now(), 1);
  ASSERT_EQ(slot1.size(), 2u);
  EXPECT_EQ(slot1[0], 1);
  EXPECT_EQ(slot1[1], 4);
  EXPECT_EQ(s.total_scheduled(), 1);
  const std::span<const Segment> slot2 = s.advance();
  ASSERT_EQ(slot2.size(), 1u);
  EXPECT_EQ(slot2[0], 2);
  EXPECT_TRUE(s.advance().empty());
}

TEST(SlotSchedule, AdvanceClearsPerSegmentIndex) {
  SlotSchedule s(5, 5);
  s.add_instance(3, 1);
  s.advance();
  EXPECT_FALSE(s.has_future_instance(3));
  EXPECT_TRUE(s.instances_of(3).empty());
}

TEST(SlotSchedule, RingReuseAfterManyAdvances) {
  SlotSchedule s(4, 4);
  for (int round = 0; round < 50; ++round) {
    s.add_instance(1, s.now() + 1);
    s.add_instance(4, s.now() + 4);
    const auto got = s.advance();
    if (round < 3) {
      // Only the S1 scheduled one round earlier; the first S4 lands in
      // slot 4.
      ASSERT_EQ(got.size(), 1u);
      EXPECT_EQ(got[0], 1);
    } else {
      // S1 scheduled last round plus the S4 scheduled 4 rounds ago.
      ASSERT_EQ(got.size(), 2u);
    }
  }
}

TEST(SlotSchedule, MultipleInstancesOfSameSegmentSorted) {
  SlotSchedule s(5, 10);
  s.add_instance(2, 7);
  s.add_instance(2, 3);
  s.add_instance(2, 9);
  const std::span<const Slot> v = s.instances_of(2);
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[0], 3);
  EXPECT_EQ(v[1], 7);
  EXPECT_EQ(v[2], 9);
}

TEST(SlotSchedule, LoadsAccumulate) {
  SlotSchedule s(5, 5);
  s.add_instance(1, 2);
  s.add_instance(2, 2);
  s.add_instance(3, 2);
  EXPECT_EQ(s.load(2), 3);
  s.advance();
  EXPECT_EQ(s.load(2), 3);  // still in the future
  s.advance();
  EXPECT_EQ(s.total_scheduled(), 0);
}

// Places loads[k] instances (all of segment 1) in slot now + 1 + k.
void lay_loads(SlotSchedule* s, const std::vector<int>& loads) {
  for (size_t k = 0; k < loads.size(); ++k) {
    for (int i = 0; i < loads[k]; ++i) {
      s->add_instance(1, s->now() + 1 + static_cast<Slot>(k));
    }
  }
}

// One random step of schedule traffic: a few placements anywhere in the
// window, then one advance.
void random_traffic(SlotSchedule* s, Rng* rng) {
  const int placements = static_cast<int>(rng->uniform_index(4));
  for (int i = 0; i < placements; ++i) {
    const Segment j =
        static_cast<Segment>(1 + rng->uniform_index(s->num_segments()));
    const Slot slot = s->now() + 1 +
                      static_cast<Slot>(rng->uniform_index(s->window()));
    s->add_instance(j, slot);
  }
  s->advance();
}

// Every window (lo, hi] of the live future: the index answers must equal
// the raw-ring scans (no overlay is live).
void expect_index_matches_scans(const SlotSchedule& s) {
  for (Slot lo = s.now() + 1; lo <= s.now() + s.window(); ++lo) {
    for (Slot hi = lo; hi <= s.now() + s.window(); ++hi) {
      const SlotSchedule::MinLoad want_l = s.scan_min_load_latest(lo, hi);
      const SlotSchedule::MinLoad want_e = s.scan_min_load_earliest(lo, hi);
      const SlotSchedule::MinLoad got_l = s.min_load_latest(lo, hi);
      const SlotSchedule::MinLoad got_e = s.min_load_earliest(lo, hi);
      ASSERT_EQ(got_l.slot, want_l.slot)
          << "now " << s.now() << " [" << lo << "," << hi << "]";
      ASSERT_EQ(got_l.load, want_l.load);
      ASSERT_EQ(got_e.slot, want_e.slot)
          << "now " << s.now() << " [" << lo << "," << hi << "]";
      ASSERT_EQ(got_e.load, want_e.load);
    }
  }
}

TEST(SlotScheduleLazyIndex, ScanOnlyScheduleNeverTouchesTheIndex) {
  // The placement path of sub-cutover videos: add_instance, advance and
  // the raw-ring scans only. The index stays dormant — no update, no query.
  SlotSchedule s(/*num_segments=*/12, /*window=*/12);
  Rng rng(5);
  for (int step = 0; step < 200; ++step) {
    random_traffic(&s, &rng);
    s.scan_min_load_latest(s.now() + 1, s.now() + s.window());
    s.scan_min_load_earliest(s.now() + 1, s.now() + 1 + step % 12);
  }
  EXPECT_GT(s.total_instances_added(), 0u);
  EXPECT_EQ(s.total_index_updates(), 0u);
  EXPECT_EQ(s.total_index_queries(), 0u);
}

TEST(SlotScheduleLazyIndex, FirstQueryAfterWrapsMatchesScansAndStaysExact) {
  // Window 9 sits in a 16-slot ring: 100 advances wrap it six times before
  // the first indexed query, so the build must read every ring row at its
  // current (not initial) meaning. After the build, later adds and
  // advances must keep it exact.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SlotSchedule s(/*num_segments=*/9, /*window=*/9);
    Rng rng(seed);
    for (int step = 0; step < 100; ++step) random_traffic(&s, &rng);
    ASSERT_EQ(s.total_index_updates(), 0u);
    expect_index_matches_scans(s);
    EXPECT_GT(s.total_index_queries(), 0u);
    for (int step = 0; step < 40; ++step) {
      random_traffic(&s, &rng);
      expect_index_matches_scans(s);
    }
    EXPECT_GT(s.total_index_updates(), 0u);
  }
}

TEST(SlotScheduleLazyIndex, OverlayOnDormantIndexBuildsItFirst) {
  // Loads 2,1,3,1 in slots now+1..now+4 of a wrapped ring, never queried.
  // An overlay on the dormant index must land on top of the real loads,
  // not on an empty tree.
  SlotSchedule s(/*num_segments=*/4, /*window=*/4);  // ring 8
  for (int i = 0; i < 21; ++i) s.advance();
  const Slot base = s.now();
  lay_loads(&s, {2, 1, 3, 1});
  ASSERT_EQ(s.total_index_updates(), 0u);
  s.add_load_overlay(base + 4, 5);  // slot base+4: 1 + 5
  const SlotSchedule::MinLoad m = s.min_load_latest(base + 1, base + 4);
  EXPECT_EQ(m.slot, base + 2);
  EXPECT_EQ(m.load, 1);
  EXPECT_EQ(s.min_load_latest(base + 4, base + 4).load, 6);
  s.clear_load_overlay();
  EXPECT_EQ(s.min_load_latest(base + 1, base + 4).slot, base + 4);
  expect_index_matches_scans(s);
}

// Expected winners of the Figure 6 scans on one window, checked against
// the raw-ring probes and the index alike.
void expect_winners(const SlotSchedule& s, Slot lo, Slot hi, Slot latest,
                    Slot earliest, int load) {
  EXPECT_EQ(s.scan_min_load_latest(lo, hi).slot, latest);
  EXPECT_EQ(s.scan_min_load_latest(lo, hi).load, load);
  EXPECT_EQ(s.scan_min_load_earliest(lo, hi).slot, earliest);
  EXPECT_EQ(s.scan_min_load_earliest(lo, hi).load, load);
  EXPECT_EQ(s.min_load_latest(lo, hi).slot, latest);
  EXPECT_EQ(s.min_load_earliest(lo, hi).slot, earliest);
}

TEST(SlotScheduleZeroFloor, ZeroAtHi) {
  SlotSchedule s(/*num_segments=*/6, /*window=*/6);
  lay_loads(&s, {2, 1, 3, 1, 2, 0});
  expect_winners(s, 1, 6, /*latest=*/6, /*earliest=*/6, 0);
  // Another 0 below: latest keeps hi, earliest moves down to it.
  SlotSchedule t(/*num_segments=*/6, /*window=*/6);
  lay_loads(&t, {2, 0, 3, 1, 2, 0});
  expect_winners(t, 1, 6, /*latest=*/6, /*earliest=*/2, 0);
}

TEST(SlotScheduleZeroFloor, ZeroAtLo) {
  SlotSchedule s(/*num_segments=*/6, /*window=*/6);
  lay_loads(&s, {0, 1, 3, 1, 2, 1});
  expect_winners(s, 1, 6, /*latest=*/1, /*earliest=*/1, 0);
  // A zero above: earliest keeps lo, latest moves up to it.
  SlotSchedule t(/*num_segments=*/6, /*window=*/6);
  lay_loads(&t, {0, 1, 3, 0, 2, 1});
  expect_winners(t, 1, 6, /*latest=*/4, /*earliest=*/1, 0);
  // Without lo in the window, the zero in the middle wins both ways.
  expect_winners(t, 2, 6, /*latest=*/4, /*earliest=*/4, 0);
}

TEST(SlotScheduleZeroFloor, ZerosOnBothSidesOfTheSeam) {
  // Window 6 in a ring of 8; now = 5 puts slots 6 and 7 at ring
  // positions 6 and 7, before the seam, and wraps slots 8..11 to
  // positions 0..3. With zeros on both sides, latest must return the
  // highest 0 and earliest the lowest 0: a zero-floor exit in the first
  // range scanned must also skip the second range.
  for (int i = 0; i < 5; ++i) {
    SlotSchedule s(/*num_segments=*/6, /*window=*/6);
    for (int k = 0; k < 5; ++k) s.advance();
    ASSERT_EQ(s.now(), 5);
    std::vector<int> loads = {1, 0, 2, 0, 1, 0};  // slots 6..11
    loads[static_cast<size_t>(i)] = i % 2 == 0 ? 0 : 3;
    lay_loads(&s, loads);
    Slot lowest = 0;
    Slot highest = 0;
    for (size_t k = 0; k < loads.size(); ++k) {
      if (loads[k] != 0) continue;
      const Slot slot = 6 + static_cast<Slot>(k);
      if (lowest == 0) lowest = slot;
      highest = slot;
    }
    expect_winners(s, 6, 11, highest, lowest, 0);
  }
  // The only zeros straddle the seam exactly: last pre-seam slot (7) and
  // first post-seam slot (8).
  SlotSchedule s(/*num_segments=*/6, /*window=*/6);
  for (int k = 0; k < 5; ++k) s.advance();
  lay_loads(&s, {1, 0, 0, 2, 1, 3});
  expect_winners(s, 6, 11, /*latest=*/8, /*earliest=*/7, 0);
}

TEST(SlotScheduleZeroFloor, NoZeroKeepsTheFullScan) {
  // Minimum 1, tied three times and spread across the seam: the scans run
  // to the end of both ranges and keep the Figure 6 tie rules.
  SlotSchedule s(/*num_segments=*/6, /*window=*/6);
  for (int k = 0; k < 5; ++k) s.advance();
  lay_loads(&s, {3, 1, 2, 1, 4, 1});  // slots 6..11, seam after slot 7
  expect_winners(s, 6, 11, /*latest=*/11, /*earliest=*/7, 1);
  expect_winners(s, 6, 10, /*latest=*/9, /*earliest=*/7, 1);
  SlotSchedule t(/*num_segments=*/6, /*window=*/6);
  lay_loads(&t, {2, 3, 2, 4, 5, 2});  // unwrapped
  expect_winners(t, 1, 6, /*latest=*/6, /*earliest=*/1, 2);
  expect_winners(t, 2, 5, /*latest=*/3, /*earliest=*/3, 2);
}

TEST(SlotScheduleZeroFloor, OneSlotWindow) {
  SlotSchedule s(/*num_segments=*/4, /*window=*/4);
  lay_loads(&s, {0, 2, 0, 1});
  for (Slot t = 1; t <= 4; ++t) {
    expect_winners(s, t, t, t, t, s.load(t));
  }
}

TEST(SlotScheduleDeath, RejectsOutOfWindow) {
  SlotSchedule s(5, 5);
  EXPECT_DEATH(s.add_instance(1, 0), "window");
  EXPECT_DEATH(s.add_instance(1, 6), "window");
  EXPECT_DEATH(s.add_instance(0, 2), "");
  EXPECT_DEATH(s.add_instance(6, 2), "");
}

}  // namespace
}  // namespace vod
