// Set-associative tag store with true-LRU replacement and per-line MESI
// state. Used for both private levels (L1D, L2) and the shared L3.
//
// The store is tags-only: the simulator models coherence and timing, not
// data values (kernels compute on host values and drive the simulator with
// their access streams).
//
// Every operation costs at most one probe of one set. state_of()/touch()
// find the line and hand back a Way handle; fill(), set_state() and
// invalidate() act on that handle instead of looking the line up again.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "sim/geometry.hpp"
#include "sim/types.hpp"

namespace fsml::sim {

/// A line evicted to make room for a fill.
struct Eviction {
  Addr line_addr = 0;
  MesiState state = MesiState::kInvalid;  ///< state at eviction time
};

/// Observes every per-line MESI transition a cache makes, including the
/// implicit victim invalidation inside fill(). Plain function pointer +
/// context (no std::function) — it sits on the access hot path. The
/// coherence directory hangs off every L2 through this hook so it can stay
/// exactly in sync without MemorySystem hand-maintaining it at each of the
/// dozen mutation sites.
using LineEventHook = void (*)(void* ctx, Addr line, MesiState from,
                               MesiState to);

class Cache {
 public:
  /// Result of one probe: the line, the set it maps to and, on a hit, the
  /// way holding it. A hit handle stays valid until its line is evicted or
  /// invalidated; a miss handle stays valid until its line is filled (the
  /// victim is chosen at fill time, so fills and invalidations of other
  /// lines in the set do not stale it). Debug builds check both on use.
  struct Way {
    Addr line = 0;                          ///< line address (offset cleared)
    std::uint32_t set = 0;
    std::uint8_t way = 0;                   ///< meaningful only on a hit
    MesiState state = MesiState::kInvalid;  ///< state when probed
    bool hit() const { return state != MesiState::kInvalid; }
  };

  explicit Cache(CacheGeometry geometry);

  const CacheGeometry& geometry() const { return geometry_; }

  /// Finds the line containing `addr` without touching LRU order.
  Way state_of(Addr addr) const { return probe(addr); }

  bool contains(Addr addr) const { return probe(addr).hit(); }

  /// Finds the line and, on hit, promotes it to MRU.
  Way touch(Addr addr) {
    const Way w = probe(addr);
    if (w.hit()) stamps(w.set)[w.way] = ++stamp_;
    return w;
  }

  /// Inserts the probed line in `state` (a hit re-states it and promotes it
  /// to MRU), evicting the LRU way if the set is full. Returns the eviction,
  /// if one happened.
  std::optional<Eviction> fill(const Way& w, MesiState state);

  /// Changes the state of a resident line (hit handle required).
  void set_state(const Way& w, MesiState state);

  /// Removes the probed line if it was present; returns its prior state.
  MesiState invalidate(const Way& w);

  /// Number of valid lines currently resident (for tests/invariants).
  std::size_t occupancy() const;

  /// Visits every valid line (for inclusion checks in tests).
  void for_each_line(
      const std::function<void(Addr, MesiState)>& visit) const;

  /// Installs (or clears, with nullptr) the line-event hook. Fires on every
  /// state transition where `from != to`; eviction victims report
  /// `to == kInvalid`.
  void set_line_event_hook(LineEventHook hook, void* ctx) {
    hook_ = hook;
    hook_ctx_ = ctx;
  }

 private:
  // A way's key packs its line number and MESI state into one word:
  // (line_number + 1) << 2 | state. The +1 keeps every valid key non-zero,
  // so an all-zero word is an invalid way, and a lookup is one masked
  // compare per way.
  static constexpr std::uint64_t kStateMask = 3;
  static std::uint64_t key_of(std::uint64_t line_number) {
    return (line_number + 1) << 2;
  }
  static MesiState state_of_key(std::uint64_t key) {
    return static_cast<MesiState>(key & kStateMask);
  }
  Addr line_of_key(std::uint64_t key) const {
    return ((key >> 2) - 1) << index_.line_shift();
  }

  /// Set s occupies store_[s * 2W, (s + 1) * 2W): its W keys, then their W
  /// LRU stamps (larger = more recently used). The lookup loop reads only
  /// the keys; the stamps sit right behind them for touch and victim choice.
  /// Ways fill in index order (a fill takes the first invalid way), so only
  /// ways [0, used_[s]) have ever held a line: the words above are never
  /// initialised or read, and a lookup in a sparse set scans just its
  /// used prefix.
  std::uint64_t* keys(std::uint32_t set) {
    return store_ + static_cast<std::size_t>(set) * 2 * ways_;
  }
  const std::uint64_t* keys(std::uint32_t set) const {
    return store_ + static_cast<std::size_t>(set) * 2 * ways_;
  }
  std::uint64_t* stamps(std::uint32_t set) { return keys(set) + ways_; }

  Way probe(Addr addr) const {
    const std::uint64_t line_number = index_.line_number(addr);
    Way w;
    w.line = addr & ~index_.offset_mask();
    w.set = static_cast<std::uint32_t>(index_.set_of(line_number));
    const std::uint64_t want = key_of(line_number);
    const std::uint64_t* k = keys(w.set);
    const std::uint32_t used = used_[w.set];
    for (std::uint32_t i = 0; i < used; ++i) {
      if ((k[i] & ~kStateMask) == want) {
        w.way = static_cast<std::uint8_t>(i);
        w.state = state_of_key(k[i]);
        return w;
      }
    }
    return w;
  }

  /// Debug check that `w` still describes the tag store.
  bool handle_current(const Way& w) const;

  void notify(Addr line, MesiState from, MesiState to) {
    if (hook_ != nullptr && from != to) hook_(hook_ctx_, line, from, to);
  }

  CacheGeometry geometry_;
  SetIndex index_;
  std::uint32_t ways_;
  /// The store starts on a 128-byte boundary inside a plain, slightly
  /// larger allocation, so an 8-way set's keys fill exactly one host cache
  /// line and its stamps the adjacent one. It is left uninitialised (see
  /// used_), so a new cache costs one byte per set up front and host pages
  /// only as its sets fill.
  static constexpr std::size_t kStoreAlign = 128;
  std::unique_ptr<std::uint64_t[]> storage_;
  std::uint64_t* store_ = nullptr;
  std::vector<std::uint8_t> used_;  ///< per set: ways ever filled
  std::uint64_t stamp_ = 0;
  LineEventHook hook_ = nullptr;
  void* hook_ctx_ = nullptr;
};

}  // namespace fsml::sim
