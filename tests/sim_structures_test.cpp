// Unit tests for the simulator's building blocks: geometry, the
// set-associative tag store (LRU, eviction, invalidation, and a seeded
// differential fuzz against a per-set LRU list), the DTLB, the drain queue,
// the line-fill buffer and the coherence-protocol auto-select policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <list>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "sim/cache.hpp"
#include "sim/geometry.hpp"
#include "sim/machine_config.hpp"
#include "sim/store_buffer.hpp"
#include "sim/tlb.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsml;
using sim::MesiState;

// ---- geometry ---------------------------------------------------------------

TEST(Geometry, DerivedQuantities) {
  sim::CacheGeometry g{32 * 1024, 8, 64};
  g.validate();
  EXPECT_EQ(g.num_lines(), 512u);
  EXPECT_EQ(g.num_sets(), 64u);
}

TEST(Geometry, NonPowerOfTwoSetsSupported) {
  // Westmere's L3: 12 MiB / 16-way = 12288 sets.
  sim::CacheGeometry g{12 * 1024 * 1024, 16, 64};
  g.validate();
  EXPECT_EQ(g.num_sets(), 12288u);
  // The set must stay within bounds for arbitrary addresses.
  const sim::SetIndex idx(g);
  for (sim::Addr a = 0; a < 1 << 22; a += 4093)
    EXPECT_LT(idx.set_of(idx.line_number(a)), g.num_sets());
}

TEST(Geometry, SetIndexMatchesDivision) {
  // The precomputed shift/mask/modulo must agree with the textbook
  // (a / line) % sets on power-of-two and non-power-of-two set counts.
  for (const sim::CacheGeometry g :
       {sim::CacheGeometry{256, 2, 64}, sim::CacheGeometry{32 * 1024, 8, 64},
        sim::CacheGeometry{12 * 1024 * 1024, 16, 64},
        sim::CacheGeometry{3 * 128, 1, 128}, sim::CacheGeometry{128, 2, 64}}) {
    const sim::SetIndex idx(g);
    for (sim::Addr a = 0; a < sim::Addr{1} << 40; a = a * 3 + 977) {
      EXPECT_EQ(idx.line_number(a), a / g.line_bytes);
      EXPECT_EQ(idx.set_of(idx.line_number(a)),
                (a / g.line_bytes) % g.num_sets());
    }
    // The reciprocal must hold over the whole 64-bit line-number range.
    util::Rng rng(7);
    for (const std::uint64_t n :
         {std::uint64_t{0}, g.num_sets() - 1, g.num_sets(),
          ~std::uint64_t{0}, ~std::uint64_t{0} - 1, std::uint64_t{1} << 63})
      EXPECT_EQ(idx.set_of(n), n % g.num_sets()) << n;
    for (int i = 0; i < 20000; ++i) {
      const std::uint64_t n = rng.next() >> (i % 64);
      ASSERT_EQ(idx.set_of(n), n % g.num_sets()) << n;
    }
  }
}

TEST(Geometry, LineAddrMasksOffset) {
  sim::CacheGeometry g{1024, 2, 64};
  EXPECT_EQ(g.line_addr(0x1234), 0x1200u);
  EXPECT_EQ(g.line_addr(0x1240), 0x1240u);
}

TEST(Geometry, SameSetSameTagMeansSameLine) {
  sim::CacheGeometry g{4096, 4, 64};
  const sim::SetIndex idx(g);
  const sim::Addr a = 0x10040, b = 0x10050;  // same line
  EXPECT_EQ(idx.line_number(a), idx.line_number(b));
  EXPECT_EQ(idx.set_of(idx.line_number(a)), idx.set_of(idx.line_number(b)));
}

TEST(Geometry, InvalidConfigsRejected) {
  sim::CacheGeometry zero{0, 8, 64};
  EXPECT_THROW(zero.validate(), util::CheckFailure);
  sim::CacheGeometry odd_line{1024, 2, 48};
  EXPECT_THROW(odd_line.validate(), util::CheckFailure);
  sim::CacheGeometry indivisible{1000, 3, 64};
  EXPECT_THROW(indivisible.validate(), util::CheckFailure);
}

// ---- cache tag store ---------------------------------------------------------

sim::Cache tiny_cache() { return sim::Cache({256, 2, 64}); }  // 2 sets, 2 ways

TEST(Cache, FillAndLookup) {
  sim::Cache c = tiny_cache();
  EXPECT_EQ(c.state_of(0x1000).state, MesiState::kInvalid);
  EXPECT_FALSE(
      c.fill(c.state_of(0x1000), MesiState::kExclusive).has_value());
  EXPECT_EQ(c.state_of(0x1000).state, MesiState::kExclusive);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, SameLineDifferentOffsets) {
  sim::Cache c = tiny_cache();
  c.fill(c.state_of(0x1000), MesiState::kShared);
  EXPECT_EQ(c.state_of(0x103F).state, MesiState::kShared);
  EXPECT_EQ(c.state_of(0x1040).state, MesiState::kInvalid);
}

TEST(Cache, LruEvictionOrder) {
  sim::Cache c = tiny_cache();  // set stride = 128 bytes
  // Three lines mapping to set 0 (addresses 0x0, 0x80 apart... use 128B).
  c.fill(c.state_of(0x0000), MesiState::kExclusive);
  c.fill(c.state_of(0x0080), MesiState::kExclusive);
  c.touch(0x0000);  // 0x0000 is now MRU; 0x0080 is LRU
  const auto ev = c.fill(c.state_of(0x0100), MesiState::kExclusive);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->line_addr, 0x0080u);
  EXPECT_EQ(c.state_of(0x0000).state, MesiState::kExclusive);
  EXPECT_EQ(c.state_of(0x0080).state, MesiState::kInvalid);
}

TEST(Cache, EvictionReportsState) {
  sim::Cache c = tiny_cache();
  c.fill(c.state_of(0x0000), MesiState::kModified);
  c.fill(c.state_of(0x0080), MesiState::kExclusive);
  const auto ev = c.fill(c.state_of(0x0100), MesiState::kShared);
  ASSERT_TRUE(ev.has_value());
  EXPECT_EQ(ev->state, MesiState::kModified);
}

TEST(Cache, RefillingResidentLineUpdatesStateWithoutEviction) {
  sim::Cache c = tiny_cache();
  c.fill(c.state_of(0x0000), MesiState::kShared);
  const auto ev = c.fill(c.state_of(0x0000), MesiState::kModified);
  EXPECT_FALSE(ev.has_value());
  EXPECT_EQ(c.state_of(0x0000).state, MesiState::kModified);
  EXPECT_EQ(c.occupancy(), 1u);
}

TEST(Cache, InvalidateReturnsPriorState) {
  sim::Cache c = tiny_cache();
  c.fill(c.state_of(0x0000), MesiState::kModified);
  EXPECT_EQ(c.invalidate(c.state_of(0x0000)), MesiState::kModified);
  EXPECT_EQ(c.invalidate(c.state_of(0x0000)), MesiState::kInvalid);
  EXPECT_EQ(c.occupancy(), 0u);
}

TEST(Cache, SetStateRequiresResidency) {
  sim::Cache c = tiny_cache();
  EXPECT_THROW(c.set_state(c.state_of(0x0000), MesiState::kShared),
               util::CheckFailure);
}

TEST(Cache, ForEachLineVisitsAllValid) {
  sim::Cache c = tiny_cache();
  c.fill(c.state_of(0x0000), MesiState::kExclusive);
  c.fill(c.state_of(0x0040), MesiState::kShared);  // set 1
  std::size_t visited = 0;
  c.for_each_line([&](sim::Addr addr, MesiState s) {
    ++visited;
    EXPECT_EQ(c.state_of(addr).state, s);
  });
  EXPECT_EQ(visited, 2u);
}

TEST(Cache, FillPrefersInvalidWays) {
  sim::Cache c = tiny_cache();
  c.fill(c.state_of(0x0000), MesiState::kExclusive);
  c.invalidate(c.state_of(0x0000));
  c.fill(c.state_of(0x0080), MesiState::kExclusive);
  // Set 0 has one invalid way; filling must not evict 0x0080.
  const auto ev = c.fill(c.state_of(0x0100), MesiState::kExclusive);
  EXPECT_FALSE(ev.has_value());
  EXPECT_EQ(c.state_of(0x0080).state, MesiState::kExclusive);
}

// ---- differential tag-store fuzz ----------------------------------------------

struct LineEvent {
  sim::Addr line;
  MesiState from;
  MesiState to;
  bool operator==(const LineEvent&) const = default;
};

void record_event(void* ctx, sim::Addr line, MesiState from, MesiState to) {
  static_cast<std::vector<LineEvent>*>(ctx)->push_back({line, from, to});
}

// Obviously-correct reference: per set, the resident lines in recency order
// (front = MRU), no ways and no packing. A fill into a full set evicts the
// back of the list.
class ReferenceCache {
 public:
  explicit ReferenceCache(const sim::CacheGeometry& g)
      : g_(g), sets_(g.num_sets()) {}

  MesiState state_of(sim::Addr a) const {
    const auto& set = set_of(a);
    const auto it = find(set, a);
    return it == set.end() ? MesiState::kInvalid : it->state;
  }

  MesiState touch(sim::Addr a) {
    auto& set = set_of(a);
    const auto it = find(set, a);
    if (it == set.end()) return MesiState::kInvalid;
    set.splice(set.begin(), set, it);
    return it->state;
  }

  std::optional<sim::Eviction> fill(sim::Addr a, MesiState s) {
    auto& set = set_of(a);
    const auto it = find(set, a);
    if (it != set.end()) {
      log(g_.line_addr(a), it->state, s);
      it->state = s;
      set.splice(set.begin(), set, it);
      return std::nullopt;
    }
    std::optional<sim::Eviction> ev;
    if (set.size() == g_.ways) {
      ev = sim::Eviction{set.back().line, set.back().state};
      log(ev->line_addr, ev->state, MesiState::kInvalid);
      set.pop_back();
    }
    set.push_front({g_.line_addr(a), s});
    log(g_.line_addr(a), MesiState::kInvalid, s);
    return ev;
  }

  void set_state(sim::Addr a, MesiState s) {
    auto& set = set_of(a);
    const auto it = find(set, a);
    ASSERT_NE(it, set.end());
    log(it->line, it->state, s);
    it->state = s;
  }

  MesiState invalidate(sim::Addr a) {
    auto& set = set_of(a);
    const auto it = find(set, a);
    if (it == set.end()) return MesiState::kInvalid;
    const MesiState prior = it->state;
    log(it->line, prior, MesiState::kInvalid);
    set.erase(it);
    return prior;
  }

  std::vector<std::pair<sim::Addr, MesiState>> lines() const {
    std::vector<std::pair<sim::Addr, MesiState>> out;
    for (const auto& set : sets_)
      for (const Line& l : set) out.emplace_back(l.line, l.state);
    std::sort(out.begin(), out.end());
    return out;
  }

  std::vector<LineEvent> events;

 private:
  struct Line {
    sim::Addr line;
    MesiState state;
  };
  using Set = std::list<Line>;

  const Set& set_of(sim::Addr a) const {
    return sets_[(a / g_.line_bytes) % g_.num_sets()];
  }
  Set& set_of(sim::Addr a) {
    return sets_[(a / g_.line_bytes) % g_.num_sets()];
  }
  Set::iterator find(Set& set, sim::Addr a) {
    return std::find_if(set.begin(), set.end(), [&](const Line& l) {
      return l.line == g_.line_addr(a);
    });
  }
  Set::const_iterator find(const Set& set, sim::Addr a) const {
    return std::find_if(set.begin(), set.end(), [&](const Line& l) {
      return l.line == g_.line_addr(a);
    });
  }
  void log(sim::Addr line, MesiState from, MesiState to) {
    if (from != to) events.push_back({line, from, to});
  }

  sim::CacheGeometry g_;
  std::vector<Set> sets_;
};

std::vector<std::pair<sim::Addr, MesiState>> cache_lines(const sim::Cache& c) {
  std::vector<std::pair<sim::Addr, MesiState>> out;
  c.for_each_line([&](sim::Addr a, MesiState s) { out.emplace_back(a, s); });
  std::sort(out.begin(), out.end());
  return out;
}

class TagStoreFuzz : public ::testing::TestWithParam<sim::CacheGeometry> {};

TEST_P(TagStoreFuzz, MatchesPerSetLruReference) {
  const sim::CacheGeometry g = GetParam();
  sim::Cache cache(g);
  std::vector<LineEvent> events;
  cache.set_line_event_hook(&record_event, &events);
  ReferenceCache ref(g);
  util::Rng rng(0xCAC4E + g.size_bytes + g.ways);

  // Lines crowd a handful of sets (three sets' worth of tags per set, so
  // sets overflow and evict), spread over low and very high addresses.
  const std::uint64_t sets = g.num_sets();
  const std::uint64_t hot_sets = std::min<std::uint64_t>(sets, 4);
  const auto random_addr = [&] {
    const std::uint64_t set = rng.next_below(hot_sets) * (sets / hot_sets);
    std::uint64_t tag = rng.next_below(3 * g.ways);
    if (rng.next_below(4) == 0) tag += std::uint64_t{1} << 40;
    return (tag * sets + set) * g.line_bytes + rng.next_below(g.line_bytes);
  };
  const auto random_state = [&] {
    return static_cast<MesiState>(1 + rng.next_below(3));
  };

  for (int op = 0; op < 20000; ++op) {
    const sim::Addr a = random_addr();
    switch (rng.next_below(6)) {
      case 0:
        ASSERT_EQ(cache.touch(a).state, ref.touch(a)) << op;
        break;
      case 1:
        ASSERT_EQ(cache.state_of(a).state, ref.state_of(a)) << op;
        break;
      case 2: {
        // The handle from a touch feeds the fill, as MemorySystem does.
        const MesiState s = random_state();
        const sim::Cache::Way w = cache.touch(a);
        ref.touch(a);
        const auto got = cache.fill(w, s);
        const auto want = ref.fill(a, s);
        ASSERT_EQ(got.has_value(), want.has_value()) << op;
        if (got) {
          EXPECT_EQ(got->line_addr, want->line_addr) << op;
          EXPECT_EQ(got->state, want->state) << op;
        }
        break;
      }
      case 3: {
        // A miss handle stays good while other lines of its set go away.
        const sim::Cache::Way w = cache.state_of(a);
        if (w.hit()) break;
        const sim::Addr other = random_addr();
        if (g.line_addr(other) != g.line_addr(a)) {
          ASSERT_EQ(cache.invalidate(cache.state_of(other)),
                    ref.invalidate(other))
              << op;
        }
        const MesiState s = random_state();
        const auto got = cache.fill(w, s);
        const auto want = ref.fill(a, s);
        ASSERT_EQ(got.has_value(), want.has_value()) << op;
        if (got) {
          EXPECT_EQ(got->line_addr, want->line_addr) << op;
        }
        break;
      }
      case 4: {
        const sim::Cache::Way w = cache.state_of(a);
        ASSERT_EQ(w.state, ref.state_of(a)) << op;
        if (!w.hit()) break;
        const MesiState s = random_state();
        cache.set_state(w, s);
        ref.set_state(a, s);
        break;
      }
      case 5:
        ASSERT_EQ(cache.invalidate(cache.state_of(a)), ref.invalidate(a))
            << op;
        break;
    }
    ASSERT_EQ(events, ref.events) << "line-event hooks diverge at op " << op;
    if (op % 512 == 0) {
      ASSERT_EQ(cache_lines(cache), ref.lines()) << op;
    }
  }
  EXPECT_EQ(cache_lines(cache), ref.lines());
  EXPECT_EQ(cache.occupancy(), ref.lines().size());
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, TagStoreFuzz,
    ::testing::Values(sim::CacheGeometry{256, 2, 64},             // tiny
                      sim::CacheGeometry{32 * 1024, 8, 64},       // L1D
                      sim::CacheGeometry{256 * 1024, 8, 64},      // L2
                      sim::CacheGeometry{12 * 1024 * 1024, 16, 64}),  // L3
    [](const ::testing::TestParamInfo<sim::CacheGeometry>& geometry) {
      return "sets" + std::to_string(geometry.param.num_sets()) + "ways" +
             std::to_string(geometry.param.ways);
    });

// ---- dtlb --------------------------------------------------------------------

TEST(Dtlb, HitAfterInstall) {
  sim::Dtlb tlb(8, 2, 4096);
  EXPECT_FALSE(tlb.access(0x1000));  // cold miss installs
  EXPECT_TRUE(tlb.access(0x1000));
  EXPECT_TRUE(tlb.access(0x1FFF));  // same page
  EXPECT_FALSE(tlb.access(0x2000));  // next page
}

TEST(Dtlb, CapacityEviction) {
  sim::Dtlb tlb(4, 4, 4096);  // 1 set, 4 ways
  for (sim::Addr p = 0; p < 5; ++p) tlb.access(p * 4096);
  EXPECT_FALSE(tlb.access(0));  // page 0 was LRU-evicted by page 4
}

TEST(Dtlb, LruKeepsHotPages) {
  sim::Dtlb tlb(4, 4, 4096);
  for (sim::Addr p = 0; p < 4; ++p) tlb.access(p * 4096);
  tlb.access(0);                  // refresh page 0
  tlb.access(5 * 4096);           // evicts page 1 (LRU), not page 0
  EXPECT_TRUE(tlb.access(0));
  EXPECT_FALSE(tlb.access(1 * 4096));
}

TEST(Dtlb, ResetForgetsEverything) {
  sim::Dtlb tlb(8, 2, 4096);
  tlb.access(0x1000);
  tlb.reset();
  EXPECT_FALSE(tlb.access(0x1000));
}

// ---- drain queue --------------------------------------------------------------

TEST(DrainQueue, NoStallBelowCapacity) {
  sim::DrainQueue q(4, 1);
  for (int i = 0; i < 3; ++i) q.push(0, 100);
  q.retire_completed(0);
  EXPECT_EQ(q.stall_until_slot(0), 0u);
}

TEST(DrainQueue, StallsWhenFullUntilEarliestCompletion) {
  sim::DrainQueue q(2, 1);
  q.push(0, 10);   // completes at 10
  q.push(0, 10);   // serialized on one port: completes at 20
  q.retire_completed(5);
  EXPECT_EQ(q.stall_until_slot(5), 5u);  // wait until t=10
  q.retire_completed(10);
  EXPECT_EQ(q.stall_until_slot(10), 0u);
}

TEST(DrainQueue, PortsDrainInParallel) {
  sim::DrainQueue q(8, 4);
  // Four drains issued together with 4 ports: all complete at t=100.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(q.push(0, 100), 100u);
  // The fifth must wait for a port: completes at 200.
  EXPECT_EQ(q.push(0, 100), 200u);
}

TEST(DrainQueue, SlowDrainDoesNotBlockFastOnesOnOtherPorts) {
  sim::DrainQueue q(8, 2);
  EXPECT_EQ(q.push(0, 1000), 1000u);  // port A busy until 1000
  EXPECT_EQ(q.push(0, 5), 5u);        // port B: immediate
  EXPECT_EQ(q.push(10, 5), 15u);      // port B again at t=10
}

TEST(DrainQueue, RetireDropsCompleted) {
  sim::DrainQueue q(2, 2);
  q.push(0, 5);
  q.push(0, 7);
  q.retire_completed(6);
  EXPECT_EQ(q.size(), 1u);
  q.retire_completed(7);
  EXPECT_TRUE(q.empty());
}

// ---- line fill buffer ----------------------------------------------------------

TEST(LineFillBuffer, TracksPendingFills) {
  sim::LineFillBuffer lfb(4);
  lfb.insert(0x1000, 50, 0);
  EXPECT_TRUE(lfb.pending_fill(0x1000, 10).has_value());
  EXPECT_EQ(*lfb.pending_fill(0x1000, 10), 50u);
  EXPECT_FALSE(lfb.pending_fill(0x2000, 10).has_value());
}

TEST(LineFillBuffer, ExpiresCompletedFills) {
  sim::LineFillBuffer lfb(4);
  lfb.insert(0x1000, 50, 0);
  EXPECT_FALSE(lfb.pending_fill(0x1000, 50).has_value());
}

TEST(LineFillBuffer, MergingKeepsLatestCompletion) {
  sim::LineFillBuffer lfb(4);
  lfb.insert(0x1000, 50, 0);
  lfb.insert(0x1000, 80, 0);
  EXPECT_EQ(*lfb.pending_fill(0x1000, 10), 80u);
  EXPECT_EQ(lfb.size(), 1u);
}

TEST(LineFillBuffer, RecyclesOldestWhenFull) {
  sim::LineFillBuffer lfb(2);
  lfb.insert(0x1000, 100, 0);
  lfb.insert(0x2000, 200, 0);
  lfb.insert(0x3000, 300, 0);  // recycles the 0x1000 entry
  EXPECT_FALSE(lfb.pending_fill(0x1000, 0).has_value());
  EXPECT_TRUE(lfb.pending_fill(0x2000, 0).has_value());
  EXPECT_TRUE(lfb.pending_fill(0x3000, 0).has_value());
}

// ---- coherence-protocol auto-select ---------------------------------------

TEST(DirectoryAutoSelect, SmallMachinesUseTheSnoopScan) {
  // At 1-2 cores a directory probe costs more than scanning the only other
  // L2 (the 0.946x row in BENCH_sim.json); auto-select turns it off there
  // unless explicitly forced.
  EXPECT_FALSE(sim::MachineConfig::tiny(1).directory_enabled());
  EXPECT_FALSE(sim::MachineConfig::tiny(2).directory_enabled());
  EXPECT_TRUE(sim::MachineConfig::tiny(3).directory_enabled());
  EXPECT_TRUE(sim::MachineConfig::westmere_dp(12).directory_enabled());

  sim::MachineConfig forced_on = sim::MachineConfig::tiny(2);
  forced_on.use_coherence_directory = true;
  EXPECT_TRUE(forced_on.directory_enabled());
  sim::MachineConfig forced_off = sim::MachineConfig::westmere_dp(12);
  forced_off.use_coherence_directory = false;
  EXPECT_FALSE(forced_off.directory_enabled());
}

}  // namespace
