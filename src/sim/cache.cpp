#include "sim/cache.hpp"

#include <limits>

#include "util/check.hpp"

namespace fsml::sim {

namespace {
CacheGeometry validated(CacheGeometry geometry) {
  geometry.validate();
  FSML_CHECK_MSG(geometry.ways <= std::numeric_limits<std::uint8_t>::max() &&
                     geometry.num_sets() <=
                         std::numeric_limits<std::uint32_t>::max(),
                 "cache geometry too large for the tag store");
  return geometry;
}
}  // namespace

Cache::Cache(CacheGeometry geometry)
    : geometry_(validated(geometry)),
      index_(geometry_),
      ways_(geometry_.ways),
      used_(index_.num_sets(), 0) {
  const std::size_t bytes = 2 * geometry_.num_lines() * sizeof(std::uint64_t);
  std::size_t space = bytes + kStoreAlign;
  storage_ = std::make_unique_for_overwrite<std::uint64_t[]>(
      space / sizeof(std::uint64_t));
  void* start = storage_.get();
  store_ = static_cast<std::uint64_t*>(
      std::align(kStoreAlign, bytes, start, space));
}

bool Cache::handle_current(const Way& w) const {
  const Way now = probe(w.line);
  return now.set == w.set && now.hit() == w.hit() &&
         (!w.hit() || now.way == w.way);
}

std::optional<Eviction> Cache::fill(const Way& w, MesiState state) {
  FSML_DCHECK(state != MesiState::kInvalid);
  FSML_DCHECK(handle_current(w));
  std::uint64_t* const k = keys(w.set);
  std::uint64_t* const lru = stamps(w.set);
  const std::uint64_t key = key_of(index_.line_number(w.line));
  if (w.hit()) {
    notify(w.line, state_of_key(k[w.way]), state);
    k[w.way] = key | static_cast<std::uint64_t>(state);
    lru[w.way] = ++stamp_;
    return std::nullopt;
  }
  // One pass: the first invalid way wins — a hole in the used prefix, else
  // the first never-used way; a full set evicts true-LRU (stamps are
  // unique, so the oldest way is well defined).
  std::uint8_t& used = used_[w.set];
  std::uint32_t victim = 0;
  bool full = true;
  for (std::uint32_t i = 0; i < used; ++i) {
    if (k[i] == 0) {
      victim = i;
      full = false;
      break;
    }
    if (lru[i] < lru[victim]) victim = i;
  }
  if (full && used < ways_) {
    victim = used++;
    full = false;
  }
  std::optional<Eviction> eviction;
  if (full) {
    eviction = Eviction{line_of_key(k[victim]), state_of_key(k[victim])};
    notify(eviction->line_addr, eviction->state, MesiState::kInvalid);
  }
  k[victim] = key | static_cast<std::uint64_t>(state);
  lru[victim] = ++stamp_;
  notify(w.line, MesiState::kInvalid, state);
  return eviction;
}

void Cache::set_state(const Way& w, MesiState state) {
  FSML_CHECK_MSG(w.hit(), "set_state on a non-resident line");
  FSML_DCHECK(state != MesiState::kInvalid);
  FSML_DCHECK(handle_current(w));
  std::uint64_t& key = keys(w.set)[w.way];
  notify(w.line, state_of_key(key), state);
  key = (key & ~kStateMask) | static_cast<std::uint64_t>(state);
}

MesiState Cache::invalidate(const Way& w) {
  if (!w.hit()) return MesiState::kInvalid;
  FSML_DCHECK(handle_current(w));
  std::uint64_t& key = keys(w.set)[w.way];
  const MesiState prior = state_of_key(key);
  notify(w.line, prior, MesiState::kInvalid);
  key = 0;
  return prior;
}

std::size_t Cache::occupancy() const {
  std::size_t n = 0;
  for_each_line([&](Addr, MesiState) { ++n; });
  return n;
}

void Cache::for_each_line(
    const std::function<void(Addr, MesiState)>& visit) const {
  for (std::uint64_t s = 0; s < index_.num_sets(); ++s) {
    const std::uint64_t* k = keys(static_cast<std::uint32_t>(s));
    for (std::uint32_t i = 0; i < used_[s]; ++i)
      if (k[i] != 0) visit(line_of_key(k[i]), state_of_key(k[i]));
  }
}

}  // namespace fsml::sim
