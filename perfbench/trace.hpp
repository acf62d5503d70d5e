// Span recording and the summary statistics the benchmark reports.
//
// A span covers one call into a layer of fsml (sim, exec, trainers,
// workloads, pmu, core, ml, par, serve) made from the benchmark's own code:
// its layer, the public call it wraps, start/end on the steady clock, the
// span that caused it, and a request id shared by the spans of one job,
// case or session. Spans are kept in memory and written out when the run
// ends. A layer's self time is its spans' durations minus the part of each
// interval that child spans cover (children may overlap when they ran on
// several host threads, so the covered part is the union of their
// intervals).
//
// A disabled Tracer records nothing and never reads the clock, so the
// untraced run measures the end-to-end numbers without tracing cost.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---- percentiles -----------------------------------------------------------

/// Nearest-rank percentile of an ascending sample: the smallest value with
/// at least a fraction `q` of the sample at or below it. 0 for no samples.
inline double percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

/// Samples strictly beyond the nearest-rank percentile `q` of `n` samples.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(n) - 1e-9));
  return n - std::clamp<std::size_t>(rank, n == 0 ? 0 : 1, n);
}

struct Tail {
  double q = 1.0;      ///< the percentile used; 1.0 = the sample maximum
  double value = 0.0;
};

/// The highest of the reporting percentiles p99, p95, p90, p75 and p50
/// that keeps at least ten samples beyond it. A sample too small for any
/// of them (under 20 values) reports its maximum, with q = 1.
inline Tail tail_percentile(const std::vector<double>& sorted) {
  for (const double q : {0.99, 0.95, 0.90, 0.75, 0.50})
    if (samples_beyond(sorted.size(), q) >= 10)
      return {q, percentile(sorted, q)};
  return {1.0, sorted.empty() ? 0.0 : sorted.back()};
}

inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  if (values.empty()) return 0.0;
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// ---- spans -----------------------------------------------------------------

struct Span {
  const char* layer = "";  ///< fsml module the call enters (a literal)
  const char* name = "";   ///< the public call, e.g. "exec.Machine::run"
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t id = 0;
  std::int64_t parent = -1;   ///< -1: a root span
  std::int64_t request = -1;  ///< job / case / session the span serves

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Self time of every span, by span id: its duration minus the union of
/// its children's intervals clipped to its own.
inline std::map<std::int64_t, std::int64_t> self_times(
    const std::vector<Span>& spans) {
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      children;
  for (const Span& s : spans)
    if (s.parent >= 0) children[s.parent].push_back({s.start_ns, s.end_ns});
  std::map<std::int64_t, std::int64_t> self;
  for (const Span& s : spans) {
    std::int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& ivs = it->second;
      std::sort(ivs.begin(), ivs.end());
      std::int64_t run_start = 0, run_end = 0;
      bool open = false;
      for (auto [a, b] : ivs) {
        a = std::max(a, s.start_ns);
        b = std::min(b, s.end_ns);
        if (b <= a) continue;
        if (open && a <= run_end) {
          run_end = std::max(run_end, b);
        } else {
          if (open) covered += run_end - run_start;
          run_start = a;
          run_end = b;
          open = true;
        }
      }
      if (open) covered += run_end - run_start;
    }
    self[s.id] = s.duration_ns() - covered;
  }
  return self;
}

/// The spans named `root` and everything below them.
inline std::vector<Span> subtrees(const std::vector<Span>& spans,
                                  const char* root) {
  std::map<std::int64_t, const Span*> by_id;
  for (const Span& s : spans) by_id[s.id] = &s;
  std::vector<Span> out;
  for (const Span& s : spans) {
    for (const Span* a = &s; a != nullptr;) {
      if (std::string_view(a->name) == root) {
        out.push_back(s);
        break;
      }
      const auto it = by_id.find(a->parent);
      a = it == by_id.end() ? nullptr : it->second;
    }
  }
  return out;
}

/// Σ self time per layer, in seconds.
inline std::map<std::string, double> layer_self_seconds(
    const std::vector<Span>& spans) {
  const auto self = self_times(spans);
  std::map<std::string, double> out;
  for (const Span& s : spans)
    out[s.layer] += 1e-9 * static_cast<double>(self.at(s.id));
  return out;
}

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Scope parent argument: the innermost open span of this thread.
  static constexpr std::int64_t kInherit = -2;

  /// RAII span. The parent defaults to the innermost open span of this
  /// thread; work handed to another thread names its parent explicitly.
  class Scope {
   public:
    /// `layer` and `name` must be string literals (spans keep the
    /// pointers).
    Scope(Tracer& tracer, const char* layer, const char* name,
          std::int64_t request = -1, std::int64_t parent = kInherit)
        : tracer_(tracer) {
      if (!tracer_.enabled_) return;
      span_.layer = layer;
      span_.name = name;
      span_.request = request;
      span_.parent = parent == kInherit ? current() : parent;
      span_.id = tracer_.next_id();
      saved_ = current();
      current() = span_.id;
      span_.start_ns = tracer_.now_ns();
    }
    ~Scope() {
      if (!tracer_.enabled_) return;
      span_.end_ns = tracer_.now_ns();
      current() = saved_;
      tracer_.record(std::move(span_));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::int64_t id() const { return span_.id; }
    /// Span duration so far (the full duration once it ended); 0 when
    /// tracing is off.
    double elapsed_seconds() const {
      return tracer_.enabled_
                 ? 1e-9 * static_cast<double>(tracer_.now_ns() - span_.start_ns)
                 : 0.0;
    }

   private:
    Tracer& tracer_;
    Span span_;
    std::int64_t saved_ = -1;
  };

  /// Every span recorded so far, in completion order.
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
  }

  /// One JSON object per span per line.
  void write_jsonl(std::ostream& os) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const Span& s : spans_)
      os << "{\"id\":" << s.id << ",\"parent\":" << s.parent
         << ",\"request\":" << s.request << ",\"layer\":\"" << s.layer
         << "\",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
         << ",\"end_ns\":" << s.end_ns << "}\n";
  }

 private:
  static std::int64_t& current() {
    thread_local std::int64_t id = -1;
    return id;
  }
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch_)
        .count();
  }
  std::int64_t next_id() {
    std::lock_guard<std::mutex> lock(mutex_);
    return next_id_++;
  }
  void record(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
  }

  const bool enabled_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;  // guards spans_ and next_id_
  std::vector<Span> spans_;
  std::int64_t next_id_ = 0;
};

}  // namespace perfbench
