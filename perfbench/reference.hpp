// Host-speed reference for the benchmark's timed metrics.
//
// The hosts this benchmark runs on share their memory system with other
// tenants, and memory-bound code such as the simulator slows and speeds up
// with what those tenants do: one train_reduced pass took 7 s in one
// minute and 11 s twenty minutes later, while a compute-only loop hardly
// moved. A fixed memory-bound round timed in the same run, between the
// workload's passes, drifts with the simulator (on the development host,
// correlation 0.94 over 20-second windows; dividing by it halved the
// window-to-window spread of a simulator job, 11.5% to 6.1%). The
// benchmark scales its timed end-to-end metrics by kNominalSeconds /
// (round time), so they read as on a host where the round takes
// kNominalSeconds; the raw times stay in the report line.
//
// The round shares no code with fsml, so a change to fsml moves the scaled
// times and never the reference: it allocates a fresh 1 MiB table (as every
// simulated run allocates a fresh machine), links it into one random cycle
// and follows 2M dependent reads around it.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "trace.hpp"

namespace perfbench {

class HostReference {
 public:
  /// Round time on the host the nominal figures were taken on.
  static constexpr double kNominalSeconds = 0.020;

  /// Times five rounds and keeps their median.
  void sample() {
    std::vector<double> rounds;
    for (int r = 0; r < 5; ++r) {
      const Clock::time_point t0 = Clock::now();
      checksum_ += round();
      rounds.push_back(seconds_between(t0, Clock::now()));
    }
    samples_.push_back(median(rounds));
  }

  /// Median round time over the samples so far.
  double seconds() const { return median(samples_); }
  /// Multiplier taking a time measured in this run to the nominal host
  /// (divide rates by it).
  double factor() const { return kNominalSeconds / seconds(); }
  /// One round; returns the sum of the indices visited so the walk cannot
  /// be optimised away.
  static std::uint64_t round() {
    constexpr std::uint32_t kSlots = 1u << 18;  // 1 MiB of uint32
    constexpr std::uint32_t kReads = 1u << 21;
    std::vector<std::uint32_t> next(kSlots);
    for (std::uint32_t i = 0; i < kSlots; ++i) next[i] = i;
    // Sattolo's shuffle: a single cycle through every slot.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::uint32_t i = kSlots - 1; i > 0; --i) {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      std::swap(next[i], next[static_cast<std::uint32_t>((state >> 33) % i)]);
    }
    std::uint32_t at = 0;
    std::uint64_t sum = 0;
    for (std::uint32_t n = 0; n < kReads; ++n) {
      at = next[at];
      sum += at;
    }
    return sum;
  }

 private:
  std::vector<double> samples_;
  std::uint64_t checksum_ = 0;  ///< keeps every round's result observable
};

}  // namespace perfbench
