// Steady-state allocation audit for the data-oriented slot kernel
// (DESIGN.md §14): after a warmup phase in which the slab capacities and
// arena blocks plateau, a scheduler slot — admissions plus the clock
// advance — must complete without touching the system allocator at all.
//
// Two layers of evidence, cross-checked:
//   * a global operator new/delete override counts every heap allocation
//     in the process; the measured phase must add exactly zero;
//   * the kernel's own meters (slab re-layouts, arena block acquisitions)
//     must be flat across the measured phase, proving the zero above is
//     the warm-arena design working and not an accounting accident.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <optional>

#include "core/dhb.h"
#include "protocols/npb.h"
#include "server/adaptive_video.h"
#include "server/multi_video.h"

namespace {

std::atomic<uint64_t> g_heap_allocations{0};

void* counted_alloc(std::size_t size) {
  ++g_heap_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace vod {
namespace {

// Drives the engine's hot path: batch admissions whose plan is left unread
// (what the sharded multi-video engine calls per slot) plus the
// span-returning clock advance. `phase` seeds a deterministic small batch
// size.
void run_slots(DhbScheduler* dhb, int slots, int phase) {
  for (int s = 0; s < slots; ++s) {
    dhb->on_request_batch(1 + static_cast<uint64_t>((s + phase) % 3));
    dhb->advance_slot_view();
  }
}

TEST(AllocAudit, UncappedSteadySlotsAreAllocationFree) {
  DhbConfig config;  // n = 99, coalescing on: the bench engine's shape
  DhbScheduler dhb(config);

  // Warmup: let every slab hit its plateau capacity and the scratch arena
  // acquire its blocks. 3n slots cover several full window generations.
  run_slots(&dhb, 300, 0);

  const uint64_t slab_grows = dhb.schedule().total_slab_grows();
  const uint64_t arena_blocks = dhb.schedule().total_arena_blocks();
  const uint64_t heap_before = g_heap_allocations.load();

  run_slots(&dhb, 200, 1);

  EXPECT_EQ(g_heap_allocations.load() - heap_before, 0u)
      << "steady-state slots reached the system allocator";
  EXPECT_EQ(dhb.schedule().total_slab_grows(), slab_grows)
      << "a slab re-layout happened after warmup";
  EXPECT_EQ(dhb.schedule().total_arena_blocks(), arena_blocks)
      << "the schedule arena acquired a new block after warmup";
}

TEST(AllocAudit, CappedSteadySlotsAreAllocationFree) {
  // The capped variant exercises the per-admission scratch arrays
  // (client_load) and the overlay machinery: the scratch arena must warm
  // up once and then recycle the same blocks under mark/rewind/reset.
  DhbConfig config;
  config.num_segments = 40;
  config.client_stream_cap = 3;
  DhbScheduler dhb(config);

  run_slots(&dhb, 200, 0);

  const uint64_t heap_before = g_heap_allocations.load();
  run_slots(&dhb, 150, 1);
  EXPECT_EQ(g_heap_allocations.load() - heap_before, 0u)
      << "capped steady-state slots reached the system allocator";
}

TEST(AllocAudit, ProbelessAdaptiveDhbSlotsAreAllocationFree) {
  // The engine's kAdaptive policy runs AdaptiveVideo with no probe. In
  // steady kDhb mode a batch admission must read the scheduler's plan in
  // place: only a probe needs its own copy.
  const int n = 99;
  const std::optional<NpbMapping> mapping =
      NpbMapping::build(NpbMapping::streams_for(n), n);
  ASSERT_TRUE(mapping.has_value());
  AdaptiveVideoConfig config;
  config.num_segments = n;
  AdaptiveVideo video(config, &*mapping);
  // 0.25 arrivals/slot, in pairs: inside the default ladder's DHB band, and
  // every batch has a coalesced follower.
  const auto run = [&video](int slots) {
    for (int s = 0; s < slots; ++s) {
      video.advance_slot();
      video.on_slot_arrivals(s % 8 == 7 ? 2 : 0);
    }
  };

  run(1000);
  ASSERT_EQ(video.mode(), ServingMode::kDhb);
  const uint64_t switches = video.switches();
  const uint64_t heap_before = g_heap_allocations.load();

  run(2000);

  EXPECT_EQ(g_heap_allocations.load() - heap_before, 0u)
      << "steady DHB-mode adaptive slots reached the system allocator";
  EXPECT_EQ(video.mode(), ServingMode::kDhb);
  EXPECT_EQ(video.switches(), switches) << "the video left the DHB rung";
}

TEST(AllocAudit, WarmupItselfIsBounded) {
  // Sanity on the meters the audit leans on: construction plus warmup
  // performs a handful of arena block acquisitions (the slabs are sized at
  // construction to fit one block), and slab growth stops instead of
  // recurring every slot.
  DhbConfig config;
  DhbScheduler dhb(config);
  run_slots(&dhb, 300, 0);
  EXPECT_LE(dhb.schedule().total_arena_blocks(), 4u);
  EXPECT_LE(dhb.schedule().total_slab_grows(), 16u);
  EXPECT_GT(dhb.schedule().total_instances_added(), 0u);
}

TEST(AllocAudit, EngineAllocationsScaleWithShardsNotVideos) {
  // The catalog engine recycles one scheduler per shard kernel and keeps
  // the flat Poisson process by value, so a call's heap traffic is set by
  // its shards (64 videos each) and result vectors, not by its videos —
  // an idle Zipf-tail video costs no allocation at all.
  const auto allocations = [](int videos) {
    MultiVideoConfig config;  // kDhb, n = 99, flat Poisson, Zipf 0.729
    config.catalog_size = videos;
    config.total_requests_per_hour = 2000.0;
    config.warmup_hours = 1.0;
    config.measured_hours = 4.0;
    config.num_threads = 1;
    const uint64_t before = g_heap_allocations.load();
    const MultiVideoResult result = run_multi_video_simulation(config);
    const uint64_t used = g_heap_allocations.load() - before;
    EXPECT_GT(result.requests, 0u);
    return used;
  };
  const uint64_t small = allocations(640);
  const uint64_t large = allocations(6400);
  EXPECT_LE(small, 640u) << "more than one heap allocation per video";
  EXPECT_LE(large, 6400u) << "more than one heap allocation per video";
  EXPECT_LE(large, 10 * small) << "allocations grow faster than shards";
}

}  // namespace
}  // namespace vod
