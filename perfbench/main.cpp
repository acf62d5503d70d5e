// fsml repository benchmark: the binary perfbench/run.py builds and runs.
//
//   fsml_perfbench --workload=NAME --seed=N --seconds=S --trace=0|1
//                  --work-dir=DIR [--rev=ID]
//
// Workloads (README.md explains why each exists):
//   train_reduced  core::collect_or_load(TrainingConfig::reduced()) at
//                  jobs=1 into a fresh cache path, detector training and
//                  10-fold cross-validation: `fsml_analyze train --reduced`.
//   sweep_table5   the Table-5 case grid (19 proxies x opt levels x paper
//                  thread counts, two smallest inputs) run and classified
//                  on a jobs=nproc pool, then per-program majorities.
//   serve_steady   an open loop of >= 10k sessions at ~3/4 of the batch
//                  service rate through serve::Server.
//
// Each run sets up several times (the median is setup_s), then repeats
// the workload's pass while the next pass still fits in --seconds, and
// checks every pass. stdout carries a provenance line, digest lines, a
// report line with the per-workload metric names, and as its last line
// the result object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace=0, the per-layer metrics with --trace=1.
// A failed check still prints the result (correct: false) and exits 1.
#include <sys/resource.h>
#include <unistd.h>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/detector.hpp"
#include "core/training.hpp"
#include "exec/machine.hpp"
#include "ml/c45.hpp"
#include "ml/eval.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "pmu/counters.hpp"
#include "pmu/events.hpp"
#include "pmu/noise.hpp"
#include "reference.hpp"
#include "serve/drill.hpp"
#include "serve/server.hpp"
#include "serve/session.hpp"
#include "sim/raw_events.hpp"
#include "trace.hpp"
#include "trainers/trainer.hpp"
#include "util/crc32.hpp"
#include "util/rng.hpp"
#include "workloads/workload.hpp"

namespace fs = std::filesystem;
using namespace fsml;
using perfbench::Clock;
using perfbench::Tracer;
using perfbench::median;
using perfbench::seconds_between;
using Scope = perfbench::Tracer::Scope;

namespace {

constexpr int kSetupReps = 3;
constexpr std::size_t kCvFolds = 10;
constexpr std::size_t kServeSessions = 10000;
constexpr std::size_t kServeRate = 4;         // batches served per step
constexpr std::size_t kMaxBatches = 5;        // per session: 1..5, mean 3
constexpr double kMalformedRate = 0.02;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string rev = "unknown";
};

Args parse_args(int argc, char** argv) {
  Args args;
  bool seen_seed = false, seen_seconds = false, seen_trace = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    std::string value;
    const auto eq = a.find('=');
    if (a.rfind("--", 0) != 0 || eq == std::string::npos)
      throw std::runtime_error("expected --name=value, got '" + a + "'");
    value = a.substr(eq + 1);
    a = a.substr(2, eq - 2);
    if (a == "workload") {
      args.workload = value;
    } else if (a == "seed") {
      args.seed = std::stoull(value);
      seen_seed = true;
    } else if (a == "seconds") {
      args.seconds = std::stod(value);
      seen_seconds = args.seconds > 0.0;
    } else if (a == "trace") {
      if (value != "0" && value != "1")
        throw std::runtime_error("--trace expects 0 or 1");
      args.trace = value == "1";
      seen_trace = true;
    } else if (a == "work-dir") {
      args.work_dir = value;
    } else if (a == "rev") {
      args.rev = value;
    } else {
      throw std::runtime_error("unknown option --" + a);
    }
  }
  if (args.workload.empty() || !seen_seed || !seen_seconds || !seen_trace ||
      args.work_dir.empty())
    throw std::runtime_error(
        "usage: fsml_perfbench --workload=NAME --seed=N --seconds=S "
        "--trace=0|1 --work-dir=DIR [--rev=ID]");
  return args;
}

// ---- results ---------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Result {
  std::vector<std::string> failures;  ///< failed checks
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> e2e;     ///< end-to-end metrics (--trace=0)
  std::vector<Metric> named;   ///< the workload's own metric names
  std::vector<Metric> layers;  ///< per-layer metrics (--trace=1)
  std::vector<std::pair<std::string, std::string>> digests;
  double host_reference_s = 0.0;  ///< median host-reference round

  void check(bool ok, const std::string& what) {
    if (!ok) failures.push_back(what);
  }
};

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string metrics_json(const std::vector<Metric>& metrics) {
  std::string s = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) s += ", ";
    s += json_string(metrics[i].name) + ": {\"value\": " +
         json_number(metrics[i].value) +
         ", \"unit\": " + json_string(metrics[i].unit) + "}";
  }
  return s + "}";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  unsigned top = __get_cpuid_max(0x80000000, nullptr);
  if (top >= 0x80000004) {
    for (unsigned i = 0; i < 3; ++i)
      __get_cpuid(0x80000002 + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s = brand;
    s.erase(0, s.find_first_not_of(' '));
    return s;
  }
#endif
  return "unknown";
}

std::string hex32(std::uint32_t v) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%08x", v);
  return buf;
}

/// Compares this run's digests with those an earlier run of the same
/// sources, workload and seed stored, or stores them when none exist.
void check_persisted_digests(Result& result, const Args& args) {
  const fs::path dir = fs::path(args.work_dir) / "digests";
  fs::create_directories(dir);
  const fs::path file = dir / (args.rev + "-" + args.workload + "-" +
                               std::to_string(args.seed) + ".txt");
  std::map<std::string, std::string> stored;
  {
    std::ifstream in(file);
    std::string key, value;
    while (in >> key >> value) stored[key] = value;
  }
  bool added = false;
  for (const auto& [key, value] : result.digests) {
    const auto it = stored.find(key);
    if (it == stored.end()) {
      stored[key] = value;
      added = true;
    } else {
      result.check(it->second == value,
                   "digest " + key + " differs from an earlier run of seed " +
                       std::to_string(args.seed) + ": " + value + " vs " +
                       it->second);
    }
  }
  if (added) {
    std::ofstream out(file, std::ios::trunc);
    for (const auto& [key, value] : stored) out << key << ' ' << value << '\n';
  }
}

// ---- simulated-run tallies ---------------------------------------------------

/// Exact per-event RawCounters sums and derived simulator statistics over
/// every simulated run the benchmark saw in one pass.
struct SimTally {
  std::array<std::uint64_t, sim::kNumRawEvents> raw{};
  std::uint64_t runs = 0;
  std::uint64_t accesses = 0;
  std::uint64_t cycles = 0;
  std::uint64_t directory_entries = 0;

  void add(const exec::RunResult& r, std::size_t directory_size) {
    for (std::size_t e = 0; e < sim::kNumRawEvents; ++e)
      raw[e] += r.aggregate.get(static_cast<sim::RawEvent>(e));
    ++runs;
    accesses += r.memory_ops;
    cycles += r.total_cycles;
    directory_entries += directory_size;
  }
  std::uint64_t get(sim::RawEvent e) const {
    return raw[static_cast<std::size_t>(e)];
  }
  double per_kaccess(std::uint64_t n) const {
    return accesses == 0 ? 0.0
                         : 1000.0 * static_cast<double>(n) /
                               static_cast<double>(accesses);
  }
  /// The sums as one JSON object, every digit kept.
  std::string raw_json() const {
    std::string s = "{";
    for (std::size_t e = 0; e < sim::kNumRawEvents; ++e) {
      if (e) s += ", ";
      s += json_string(std::string(
               sim::raw_event_name(static_cast<sim::RawEvent>(e)))) +
           ": " + std::to_string(raw[e]);
    }
    return s + "}";
  }
  std::string crc() const { return hex32(util::crc32(raw_json())); }
};

void add_sim_layer(Result& r, const SimTally& t, double run_seconds) {
  using E = sim::RawEvent;
  r.layers.push_back({"sim.ns_per_access",
                      t.accesses == 0 ? 0.0
                                      : 1e9 * run_seconds /
                                            static_cast<double>(t.accesses),
                      "ns"});
  r.layers.push_back({"sim.accesses", static_cast<double>(t.accesses),
                      "count"});
  r.layers.push_back({"sim.simulated_cycles", static_cast<double>(t.cycles),
                      "count"});
  r.layers.push_back(
      {"sim.l1_miss_per_kaccess",
       t.per_kaccess(t.get(E::kL1dLoadMiss) + t.get(E::kL1dStoreMiss)),
       "count"});
  r.layers.push_back({"sim.hitm_per_kaccess",
                      t.per_kaccess(t.get(E::kHitmTransfersIn)), "count"});
  r.layers.push_back(
      {"sim.l3_miss_per_kaccess", t.per_kaccess(t.get(E::kL3Miss)), "count"});
  r.layers.push_back(
      {"sim.dram_per_kaccess", t.per_kaccess(t.get(E::kDramReads)), "count"});
  r.layers.push_back({"sim.dtlb_miss_per_kaccess",
                      t.per_kaccess(t.get(E::kDtlbMiss)), "count"});
  r.layers.push_back({"sim.directory_entries",
                      static_cast<double>(t.directory_entries), "count"});
}

// ---- span summaries ----------------------------------------------------------

/// Ascending durations (seconds) of the spans with this call name.
std::vector<double> durations(const std::vector<perfbench::Span>& spans,
                              const char* name) {
  std::vector<double> out;
  for (const perfbench::Span& s : spans)
    if (std::strcmp(s.name, name) == 0) out.push_back(1e-9 * static_cast<double>(s.duration_ns()));
  std::sort(out.begin(), out.end());
  return out;
}

double total(const std::vector<double>& v) {
  double sum = 0.0;
  for (const double x : v) sum += x;
  return sum;
}

/// Self time by layer inside the timed passes (set-up, mirrored runs and
/// probes excluded), averaged over the passes.
void add_self_times(Result& r, const std::vector<perfbench::Span>& spans) {
  const auto in_passes = perfbench::subtrees(spans, "bench.pass");
  const auto self = perfbench::layer_self_seconds(in_passes);
  const double passes =
      std::max<double>(1.0, static_cast<double>(durations(spans, "bench.pass")
                                                    .size()));
  for (const char* layer : {"sim_exec", "trainers", "workloads", "pmu", "core",
                            "ml", "par", "serve", "bench"}) {
    const auto it = self.find(layer);
    r.layers.push_back({std::string(layer) + ".self_s",
                        it == self.end() ? 0.0 : it->second / passes, "s"});
  }
  r.layers.push_back({"trace.spans", static_cast<double>(spans.size()),
                      "count"});
}

void write_spans(const Tracer& tracer, const Args& args) {
  const fs::path dir = fs::path(args.work_dir) / "traces";
  fs::create_directories(dir);
  std::ofstream out(dir / (args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl"),
                    std::ios::trunc);
  tracer.write_jsonl(out);
}

/// Traced runs keep every span in memory, so they stop after this many
/// passes (a serve pass records ~60k spans).
constexpr int kMaxTracedPasses = 3;

/// Repeats `pass` while the next one is expected to end within the budget
/// (always at least once, at most kMaxTracedPasses when tracing), sampling
/// the host reference before the first pass, between passes at least two
/// seconds after the previous sample, and after the last pass. Returns the
/// pass count.
template <class Fn>
int repeat_passes(Tracer& tracer, perfbench::HostReference& host,
                  double budget_s, Fn&& pass) {
  const Clock::time_point start = Clock::now();
  host.sample();
  Clock::time_point sampled = Clock::now();
  double longest = 0.0;
  int passes = 0;
  while (!tracer.enabled() || passes < kMaxTracedPasses) {
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(tracer, "bench", "bench.pass");
      pass(passes);
    }
    ++passes;
    longest = std::max(longest, seconds_between(t0, Clock::now()));
    if (seconds_between(start, Clock::now()) + longest > budget_s) break;
    if (seconds_between(sampled, Clock::now()) >= 2.0) {
      host.sample();
      sampled = Clock::now();
    }
  }
  host.sample();
  return passes;
}

std::string fresh_path(const Args& args, const std::string& stem) {
  static std::atomic<int> counter{0};
  const fs::path dir = fs::path(args.work_dir) / "tmp";
  fs::create_directories(dir);
  const fs::path path =
      dir / (stem + "-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)) + ".csv");
  fs::remove(path);
  fs::remove(path.string() + ".journal");
  return path.string();
}

void remove_cache(const std::string& path) {
  fs::remove(path);
  fs::remove(path + ".journal");
}

std::string cache_crc(const std::string& path) {
  std::ifstream in(path);
  std::string line, last;
  while (std::getline(in, line))
    if (line.rfind("# crc32 ", 0) == 0) last = line.substr(8);
  return last;
}

// ---- a trained detector (set-up of sweep_table5 and serve_steady) ----------

struct TrainedModel {
  core::FalseSharingDetector detector;
  core::CollectReport report;
  core::TrainingData data;
  std::string cache_crc;
  double collect_s = 0.0;
  double fit_s = 0.0;
};

TrainedModel train_reduced_model(Tracer& tracer, const Args& args,
                                 std::size_t jobs) {
  TrainedModel m;
  core::TrainingConfig config = core::TrainingConfig::reduced();
  config.seed = args.seed;
  config.jobs = jobs;
  const std::string path = fresh_path(args, "model");
  {
    Scope s(tracer, "core", "core.collect_or_load");
    const Clock::time_point t0 = Clock::now();
    m.data = core::collect_or_load(config, path, nullptr,
                                   core::CollectOptions{}, &m.report);
    m.collect_s = seconds_between(t0, Clock::now());
  }
  m.cache_crc = cache_crc(path);
  remove_cache(path);
  {
    Scope s(tracer, "ml", "ml.FalseSharingDetector::train");
    const Clock::time_point t0 = Clock::now();
    m.detector.train(m.data);
    m.fit_s = seconds_between(t0, Clock::now());
  }
  return m;
}

void add_core_layer(Result& r, const core::TrainingData& data,
                    const core::CollectReport& report, double collect_s,
                    double collect_self_s) {
  const std::size_t initial =
      data.census_a.initial_good + data.census_a.initial_bad_fs +
      data.census_a.initial_bad_ma + data.census_b.initial_good +
      data.census_b.initial_bad_fs + data.census_b.initial_bad_ma;
  const std::size_t final_rows =
      data.census_a.final_total() + data.census_b.final_total();
  r.layers.push_back({"core.collect_s", collect_s, "s"});
  r.layers.push_back({"core.collect_self_s", collect_self_s, "s"});
  r.layers.push_back({"core.useful_frac",
                      initial == 0 ? 0.0
                                   : static_cast<double>(final_rows) /
                                         static_cast<double>(initial),
                      "frac"});
  r.layers.push_back({"core.retried_attempts",
                      static_cast<double>(report.retried_attempts), "count"});
  // collect_or_load journals every executed job as one record.
  r.layers.push_back({"core.journal_records",
                      static_cast<double>(report.executed), "count"});
}

/// ns per FalseSharingDetector::classify and per classify_many row over
/// `rows` (row-major, kNumFeatures wide).
void add_classify_probes(Result& r, Tracer& tracer,
                         const core::FalseSharingDetector& detector,
                         const std::vector<pmu::FeatureVector>& rows) {
  double classify_ns = 0.0, many_ns = 0.0;
  if (!rows.empty()) {
    std::vector<trainers::Mode> verdicts(rows.size());
    {
      Scope s(tracer, "ml", "ml.FalseSharingDetector::classify");
      const Clock::time_point t0 = Clock::now();
      for (std::size_t i = 0; i < rows.size(); ++i)
        verdicts[i] = detector.classify(rows[i]);
      classify_ns = 1e9 * seconds_between(t0, Clock::now()) /
                    static_cast<double>(rows.size());
    }
    std::vector<double> xs;
    xs.reserve(rows.size() * pmu::kNumFeatures);
    for (const pmu::FeatureVector& f : rows)
      xs.insert(xs.end(), f.values().begin(), f.values().end());
    std::vector<int> out(rows.size());
    {
      Scope s(tracer, "ml", "ml.FlatTree::classify_many");
      const Clock::time_point t0 = Clock::now();
      detector.flat()->classify_many(xs, pmu::kNumFeatures, out);
      many_ns = 1e9 * seconds_between(t0, Clock::now()) /
                static_cast<double>(rows.size());
    }
    for (std::size_t i = 0; i < rows.size(); ++i)
      r.check(out[i] == core::label_of(verdicts[i]),
              "FlatTree::classify_many disagrees with classify");
  }
  r.layers.push_back({"ml.classify_ns", classify_ns, "ns"});
  r.layers.push_back({"ml.classify_many_ns_per_row", many_ns, "ns"});
  r.layers.push_back({"ml.tree_leaves",
                      static_cast<double>(detector.model().num_leaves()),
                      "count"});
}

void add_pmu_read_probe(Result& r, Tracer& tracer,
                        const std::vector<const sim::RawCounters*>& raws) {
  double us = 0.0;
  if (!raws.empty()) {
    std::vector<pmu::FeatureVector> features;
    Scope s(tracer, "pmu", "pmu.read");
    const Clock::time_point t0 = Clock::now();
    for (const sim::RawCounters* raw : raws)
      features.push_back(
          pmu::FeatureVector::normalize(pmu::CounterSnapshot::from_raw(*raw)));
    us = 1e6 * seconds_between(t0, Clock::now()) /
         static_cast<double>(raws.size());
  }
  r.layers.push_back({"pmu.read_us", us, "us"});
}

void add_zero_layers(Result& r, std::initializer_list<const char*> names,
                     const char* unit) {
  for (const char* n : names) r.layers.push_back({n, 0.0, unit});
}

/// The serve layer's metrics on a workload that never calls it.
void add_idle_serve_layer(Result& r) {
  add_zero_layers(r,
                  {"serve.open_us_p50", "serve.open_us_p99",
                   "serve.submit_us_p50", "serve.submit_us_p99",
                   "serve.tick_us_p50", "serve.tick_us_p99",
                   "serve.classify_robust_us", "serve.classify_p99_us"},
                  "us");
  add_zero_layers(r, {"serve.validate_ns"}, "ns");
  add_zero_layers(r, {"serve.drain_ms"}, "ms");
  add_zero_layers(r,
                  {"serve.queue_peak", "serve.retry_afters", "serve.shed",
                   "serve.quarantined", "serve.batches_processed"},
                  "count");
}

// ---- train_reduced -----------------------------------------------------------

/// Seed of one collection job: the same derivation core::collect_training_data
/// applies to its job coordinates (the mirrored grid re-runs exactly the
/// collected simulations; the run checks that their features match).
std::uint64_t collection_job_seed(std::uint64_t base, const std::string& program,
                                  std::uint64_t size, std::uint32_t threads,
                                  trainers::Mode mode,
                                  trainers::AccessPattern pattern, int rep) {
  std::uint64_t h = 1469598103934665603ULL ^ base;
  const auto mix = [&h](std::uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const char c : program) mix(static_cast<std::uint64_t>(c));
  mix(size);
  mix(threads);
  mix(static_cast<std::uint64_t>(mode));
  mix(static_cast<std::uint64_t>(pattern));
  mix(static_cast<std::uint64_t>(rep));
  return util::SplitMix64(h).next();
}

struct MirrorJob {
  const trainers::MiniProgram* program = nullptr;
  trainers::TrainerParams params;
};

/// The collection grid of `config`, in core's enumeration order.
std::vector<MirrorJob> mirror_grid(const core::TrainingConfig& config) {
  using trainers::AccessPattern;
  using trainers::Mode;
  std::vector<MirrorJob> jobs;
  const auto push = [&](const trainers::MiniProgram* p, std::uint64_t size,
                        std::uint32_t threads, Mode mode,
                        AccessPattern pattern, int rep) {
    MirrorJob job;
    job.program = p;
    job.params.mode = mode;
    job.params.threads = threads;
    job.params.size = size;
    job.params.pattern = pattern;
    job.params.seed = collection_job_seed(config.seed, std::string(p->name()),
                                          size, threads, mode, pattern, rep);
    jobs.push_back(job);
  };
  for (const trainers::MiniProgram* p : trainers::multithreaded_set())
    for (const std::uint64_t size : p->default_sizes())
      for (const std::uint32_t t : config.thread_counts) {
        for (int r = 0; r < config.reps_good; ++r)
          push(p, size, t, Mode::kGood, AccessPattern::kLinear, r);
        for (int r = 0; r < config.reps_bad_fs; ++r)
          push(p, size, t, Mode::kBadFs, AccessPattern::kLinear, r);
        if (p->supports_bad_ma())
          for (int r = 0; r < config.reps_bad_ma; ++r)
            push(p, size, t, Mode::kBadMa,
                 r % 2 == 0 ? AccessPattern::kRandom : AccessPattern::kStrided,
                 r);
      }
  for (const trainers::MiniProgram* p : trainers::sequential_set())
    for (const std::uint64_t size : p->default_sizes()) {
      for (int r = 0; r < config.seq_reps_good; ++r)
        push(p, size, 1, Mode::kGood, AccessPattern::kLinear, r);
      for (const AccessPattern pattern :
           {AccessPattern::kRandom, AccessPattern::kStrided})
        for (int r = 0; r < config.seq_reps_bad_ma; ++r)
          push(p, size, 1, Mode::kBadMa, pattern, r);
    }
  return jobs;
}

/// One simulated run through the public calls run_trainer /
/// run_workload make, each wrapped in a span. The exec.Machine::run span
/// covers the simulator too: sim and exec self time cannot be separated
/// from outside the program.
struct TracedRun {
  exec::RunResult result;
  pmu::FeatureVector features;
  std::size_t directory_entries = 0;
};

template <class BuildFn>
TracedRun traced_run(Tracer& tracer, sim::MachineConfig config,
                     std::uint32_t threads, std::uint64_t seed,
                     const char* build_layer, const char* build_name,
                     BuildFn&& build) {
  if (!config.topology.multi_socket()) config.num_cores = threads;
  std::optional<exec::Machine> machine;
  {
    Scope s(tracer, "sim_exec", "exec.Machine::Machine");
    machine.emplace(config, seed);
  }
  {
    Scope s(tracer, build_layer, build_name);
    build(*machine);
  }
  TracedRun run;
  {
    Scope s(tracer, "sim_exec", "exec.Machine::run");
    run.result = machine->run();
  }
  run.directory_entries = machine->memory().directory().size();
  {
    Scope s(tracer, "pmu", "pmu.read");
    run.features = pmu::FeatureVector::normalize(
        pmu::CounterSnapshot::from_raw(run.result.aggregate));
  }
  return run;
}

Result run_train_reduced(const Args& args, Tracer& tracer) {
  Result r;
  perfbench::HostReference host;
  host.sample();
  core::TrainingConfig config;
  std::vector<double> setups;
  std::vector<MirrorJob> grid;
  std::string ref_crc, ref_tree;
  // Set-up: the reference collection of this seed on a jobs=nproc pool.
  // Collection is bit-identical for any jobs value, so every timed jobs=1
  // pass must reproduce its cache CRC and tree text exactly.
  for (int i = 0; i < kSetupReps; ++i) {
    Scope s(tracer, "bench", "bench.setup");
    const Clock::time_point t0 = Clock::now();
    config = core::TrainingConfig::reduced();
    config.seed = args.seed;
    config.jobs = 1;
    grid = mirror_grid(config);
    const TrainedModel ref =
        train_reduced_model(tracer, args, par::ThreadPool::hardware_workers());
    setups.push_back(seconds_between(t0, Clock::now()));
    const std::string tree = ref.detector.model().describe();
    if (i > 0)
      r.check(ref.cache_crc == ref_crc && tree == ref_tree,
              "reference collections of one seed differ");
    ref_crc = ref.cache_crc;
    ref_tree = tree;
  }

  struct Pass {
    double total_s = 0, collect_s = 0, fit_s = 0, cv_s = 0;
    double runs_per_s = 0, cv_accuracy = 0;
    std::size_t jobs = 0, quarantined = 0;
    std::string crc, tree;
  };
  std::vector<Pass> passes;
  core::TrainingData last_data;
  core::CollectReport last_report;
  std::optional<core::FalseSharingDetector> last_detector;

  repeat_passes(tracer, host, args.seconds, [&](int) {
    const std::string path = fresh_path(args, "train");
    Pass p;
    core::CollectReport report;
    core::TrainingData data;
    core::FalseSharingDetector detector;
    double cv_accuracy = 0.0;
    const Clock::time_point t0 = Clock::now();
    {
      Scope s(tracer, "core", "core.collect_or_load");
      data = core::collect_or_load(config, path, nullptr,
                                   core::CollectOptions{}, &report);
    }
    const Clock::time_point t1 = Clock::now();
    {
      Scope s(tracer, "ml", "ml.FalseSharingDetector::train");
      detector.train(data);
    }
    const Clock::time_point t2 = Clock::now();
    {
      Scope s(tracer, "ml", "ml.cross_validate");
      util::Rng rng(args.seed);
      cv_accuracy =
          ml::cross_validate(ml::C45Tree(), data.to_dataset(), kCvFolds, rng)
              .accuracy;
    }
    const Clock::time_point t3 = Clock::now();
    p.total_s = seconds_between(t0, t3);
    p.collect_s = seconds_between(t0, t1);
    p.fit_s = seconds_between(t1, t2);
    p.cv_s = seconds_between(t2, t3);
    p.jobs = report.total_jobs;
    p.quarantined = report.quarantined.size();
    p.runs_per_s = static_cast<double>(report.executed) / p.collect_s;
    p.cv_accuracy = cv_accuracy;
    p.crc = cache_crc(path);
    p.tree = detector.model().describe();
    remove_cache(path);

    r.check(report.executed == report.total_jobs && report.replayed == 0,
            "collection loaded or replayed instead of simulating every job");
    r.check(report.total_jobs == grid.size(),
            "collection grid size differs from the mirrored grid");
    r.check(!p.crc.empty(), "training cache has no crc32 footer");
    const auto* root = detector.model().root();
    r.check(root != nullptr && !root->is_leaf &&
                static_cast<pmu::WestmereEvent>(root->attribute) ==
                    pmu::WestmereEvent::kSnoopResponseHitM,
            "root split is not on event 11 (Snoop_Response.HIT_M)");
    r.check(p.crc == ref_crc,
            "training cache CRC differs from the jobs=nproc reference");
    r.check(p.tree == ref_tree,
            "tree text differs from the jobs=nproc reference");
    r.attempted += report.total_jobs;
    r.failed += report.quarantined.size();
    passes.push_back(p);
    last_data = std::move(data);
    last_report = report;
    last_detector.emplace(std::move(detector));
  });

  const Pass& first = passes.front();
  r.digests.push_back({"cache_crc32", first.crc});
  r.digests.push_back({"tree_crc32", hex32(util::crc32(first.tree))});

  std::vector<double> total_s, runs_per_s, cv_acc, done;
  for (const Pass& p : passes) {
    total_s.push_back(1e3 * p.total_s);
    runs_per_s.push_back(p.runs_per_s);
    cv_acc.push_back(p.cv_accuracy);
    done.push_back(1.0 - static_cast<double>(p.quarantined) /
                             static_cast<double>(p.jobs));
  }
  std::sort(total_s.begin(), total_s.end());
  const perfbench::Tail tail = perfbench::tail_percentile(total_s);
  const double setup_s = median(setups);
  const double rss = peak_rss_mb();

  const double f = host.factor();
  r.host_reference_s = host.seconds();
  r.e2e = {{"setup_s", f * setup_s, "s"},
           {"latency_p50_ms", f * median(total_s), "ms"},
           {"latency_tail_ms", f * tail.value, "ms"},
           {"throughput_per_s", median(runs_per_s) / f, "1/s"},
           {"right_frac", median(cv_acc), "frac"},
           {"completed_frac", median(done), "frac"},
           {"peak_rss_mb", rss, "MB"}};
  r.named = {{"setup_s", setup_s, "s"},
             {"train_s", 1e-3 * median(total_s), "s"},
             {"sim_runs_per_s", median(runs_per_s), "1/s"},
             {"cv_accuracy", median(cv_acc), "frac"},
             {"failed_frac", 1.0 - median(done), "frac"},
             {"peak_rss_mb", rss, "MB"},
             {"passes", static_cast<double>(passes.size()), "count"},
             {"latency_tail_q", tail.q, "frac"}};

  if (!tracer.enabled()) return r;

  // Mirrored grid: the collection's jobs again, one span per public call,
  // so per-run construction / build / run / read time is visible and the
  // collection's own work (journal fsyncs, filtering, CSV publish) is the
  // collect span minus these job spans.
  SimTally tally;
  std::vector<pmu::FeatureVector> mirrored;
  std::vector<double> job_s;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const MirrorJob& job = grid[i];
    Scope s(tracer, "bench", "bench.mirror_job", static_cast<std::int64_t>(i));
    const TracedRun run = traced_run(
        tracer, config.machine, job.params.threads, job.params.seed,
        "trainers", "trainers.MiniProgram::build",
        [&](exec::Machine& m) { job.program->build(m, job.params); });
    tally.add(run.result, run.directory_entries);
    mirrored.push_back(run.features);
    job_s.push_back(s.elapsed_seconds());
  }
  std::vector<std::array<double, pmu::kNumFeatures>> keys;
  for (const pmu::FeatureVector& fv : mirrored) keys.push_back(fv.values());
  std::sort(keys.begin(), keys.end());
  bool all_found = true;
  for (const core::LabeledInstance& inst : last_data.instances)
    all_found = all_found && std::binary_search(keys.begin(), keys.end(),
                                                inst.features.values());
  r.check(all_found,
          "mirrored grid does not reproduce the collected features");
  r.digests.push_back({"raw_counters_crc32", tally.crc()});
  std::printf("digest.raw_counters %s\n", tally.raw_json().c_str());

  const auto spans = tracer.spans();
  const auto run_ms = [&] {
    auto v = durations(spans, "exec.Machine::run");
    for (double& x : v) x *= 1e3;
    return v;
  }();
  add_sim_layer(r, tally, total(durations(spans, "exec.Machine::run")));
  const auto ctor = durations(spans, "exec.Machine::Machine");
  r.layers.push_back({"exec.construct_us", 1e6 * median(ctor), "us"});
  r.layers.push_back({"exec.run_ms_p50", median(run_ms), "ms"});
  r.layers.push_back(
      {"exec.run_ms_tail", perfbench::tail_percentile(run_ms).value, "ms"});
  r.layers.push_back(
      {"trainers.build_us",
       1e6 * median(durations(spans, "trainers.MiniProgram::build")), "us"});
  add_zero_layers(r, {"workloads.build_us"}, "us");
  r.layers.push_back(
      {"pmu.read_us", 1e6 * median(durations(spans, "pmu.read")), "us"});
  add_zero_layers(r, {"pmu.measure_us"}, "us");
  const Pass& last = passes.back();
  add_core_layer(r, last_data, last_report, last.collect_s,
                 last.collect_s - total(job_s));
  r.layers.push_back({"ml.fit_ms", 1e3 * last.fit_s, "ms"});
  r.layers.push_back({"ml.cv_ms", 1e3 * last.cv_s, "ms"});
  std::vector<pmu::FeatureVector> rows;
  for (const core::LabeledInstance& inst : last_data.instances)
    rows.push_back(inst.features);
  add_classify_probes(r, tracer, *last_detector, rows);
  add_zero_layers(r, {"par.busy_frac"}, "frac");
  add_zero_layers(r, {"par.tail_ms"}, "ms");
  add_idle_serve_layer(r);
  return r;
}

// ---- sweep_table5 ------------------------------------------------------------

std::string paper_table5(std::string_view program) {
  if (program == "linear_regression" || program == "streamcluster")
    return "bad-fs";
  if (program == "matrix_multiply") return "bad-ma";
  return "good";
}

struct SweepCase {
  const workloads::Workload* workload = nullptr;
  std::size_t program = 0;  ///< index into all_workloads()
  workloads::WorkloadCase wcase;
};

std::vector<SweepCase> table5_cases(std::uint64_t seed) {
  std::vector<SweepCase> cases;
  const auto all = workloads::all_workloads();
  for (std::size_t p = 0; p < all.size(); ++p) {
    const workloads::Workload* w = all[p];
    const std::vector<std::uint32_t> threads =
        w->suite() == workloads::Suite::kPhoenix
            ? std::vector<std::uint32_t>{3, 6, 9, 12}
            : std::vector<std::uint32_t>{4, 8, 12};
    std::vector<std::string> inputs = w->input_sets();
    inputs.resize(std::min<std::size_t>(2, inputs.size()));
    for (const std::string& input : inputs)
      for (const workloads::OptLevel opt : w->opt_levels())
        for (const std::uint32_t t : threads)
          cases.push_back({w, p, {input, opt, t, seed}});
  }
  return cases;
}

struct CaseOut {
  trainers::Mode mode = trainers::Mode::kGood;
  bool threw = false;
  std::string error;
  double start_s = 0.0, end_s = 0.0;  ///< since the pass started
  std::thread::id thread;
  exec::RunResult result;
  std::size_t directory_entries = 0;
  pmu::FeatureVector features;
};

Result run_sweep_table5(const Args& args, Tracer& tracer) {
  Result r;
  perfbench::HostReference host;
  host.sample();
  const std::size_t jobs = par::ThreadPool::hardware_workers();
  const auto machine = sim::MachineConfig::westmere_dp(12);
  std::vector<double> setups;
  std::optional<TrainedModel> model;
  std::vector<SweepCase> cases;
  for (int i = 0; i < kSetupReps; ++i) {
    Scope s(tracer, "bench", "bench.setup");
    const Clock::time_point t0 = Clock::now();
    model.emplace(train_reduced_model(tracer, args, jobs));
    cases = table5_cases(args.seed);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const core::FalseSharingDetector& detector = model->detector;
  par::ThreadPool pool(jobs - 1);
  const auto programs = workloads::all_workloads();

  struct Pass {
    double wall_s = 0, p50_ms = 0;
    perfbench::Tail tail;
    std::size_t threw = 0, matches = 0;
    double busy_frac = 0, tail_ms = 0;
  };
  std::vector<Pass> passes;
  std::string verdict_crc, raw_crc;
  SimTally tally;
  std::vector<pmu::FeatureVector> rows;

  repeat_passes(tracer, host, args.seconds, [&](int pass_index) {
    Pass p;
    std::vector<CaseOut> outs;
    const Clock::time_point t0 = Clock::now();
    {
      Scope pass_span(tracer, "par", "par.parallel_transform");
      const std::int64_t parent = pass_span.id();
      std::vector<std::size_t> index(cases.size());
      for (std::size_t i = 0; i < index.size(); ++i) index[i] = i;
      outs = par::parallel_transform(pool, index, [&](std::size_t i) {
        const SweepCase& c = cases[i];
        CaseOut out;
        out.thread = std::this_thread::get_id();
        out.start_s = seconds_between(t0, Clock::now());
        try {
          if (tracer.enabled()) {
            Scope s(tracer, "bench", "bench.case",
                    static_cast<std::int64_t>(i), parent);
            const TracedRun run = traced_run(
                tracer, machine, c.wcase.threads, c.wcase.seed, "workloads",
                "workloads.Workload::build", [&](exec::Machine& m) {
                  m.set_thread_placement(c.wcase.placement);
                  c.workload->build(m, c.wcase);
                });
            {
              Scope cs(tracer, "ml", "ml.FalseSharingDetector::classify");
              out.mode = detector.classify(run.features);
            }
            out.result = run.result;
            out.directory_entries = run.directory_entries;
            out.features = run.features;
          } else {
            const workloads::WorkloadRun run =
                workloads::run_workload(*c.workload, c.wcase, machine);
            out.mode = detector.classify(run.features);
            out.result = run.result;
            out.features = run.features;
          }
        } catch (const std::exception& e) {
          out.threw = true;
          out.error = e.what();
        }
        out.end_s = seconds_between(t0, Clock::now());
        return out;
      });
    }
    // Per-program majorities, as in Table 5.
    std::vector<std::vector<trainers::Mode>> verdicts(programs.size());
    std::string verdict_lines;
    SimTally pass_tally;
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const SweepCase& c = cases[i];
      const CaseOut& out = outs[i];
      if (out.threw) {
        ++p.threw;
        r.check(false, "case " + std::string(c.workload->name()) + "/" +
                           c.wcase.input + " threw: " + out.error);
        continue;
      }
      verdicts[c.program].push_back(out.mode);
      pass_tally.add(out.result, out.directory_entries);
      verdict_lines += std::string(c.workload->name()) + "/" + c.wcase.input +
                       "/" + std::string(workloads::to_string(c.wcase.opt)) +
                       "/" + std::to_string(c.wcase.threads) + "=" +
                       std::string(trainers::to_string(out.mode)) + "\n";
    }
    for (std::size_t w = 0; w < programs.size(); ++w) {
      const std::string ours(trainers::to_string(
          core::FalseSharingDetector::majority(verdicts[w])));
      const bool match =
          !verdicts[w].empty() && ours == paper_table5(programs[w]->name());
      p.matches += match ? 1 : 0;
      r.check(match, std::string(programs[w]->name()) + " majority is " +
                         ours + ", paper Table 5 says " +
                         paper_table5(programs[w]->name()));
    }
    p.wall_s = seconds_between(t0, Clock::now());

    std::vector<double> case_ms;
    double busy = 0.0;
    std::map<std::thread::id, double> thread_last;
    for (const CaseOut& out : outs) {
      case_ms.push_back(1e3 * (out.end_s - out.start_s));
      busy += out.end_s - out.start_s;
      double& last = thread_last[out.thread];
      last = std::max(last, out.end_s);
    }
    std::sort(case_ms.begin(), case_ms.end());
    p.p50_ms = perfbench::percentile(case_ms, 0.5);
    p.tail = perfbench::tail_percentile(case_ms);
    p.busy_frac = busy / (p.wall_s * static_cast<double>(jobs));
    double first_idle = 0.0;  // a thread that ran no case idled from the start
    if (thread_last.size() == jobs) {
      first_idle = p.wall_s;
      for (const auto& [id, last] : thread_last)
        first_idle = std::min(first_idle, last);
    }
    p.tail_ms = 1e3 * (p.wall_s - first_idle);

    const std::string vcrc = hex32(util::crc32(verdict_lines));
    if (pass_index == 0) {
      verdict_crc = vcrc;
      raw_crc = pass_tally.crc();
      tally = pass_tally;
      for (const CaseOut& out : outs)
        if (!out.threw) rows.push_back(out.features);
    } else {
      r.check(vcrc == verdict_crc, "per-case verdict digest differs between "
                                   "passes");
      r.check(pass_tally.crc() == raw_crc,
              "RawCounters sums differ between passes");
    }
    r.attempted += cases.size();
    r.failed += p.threw;
    passes.push_back(p);
  });

  r.digests.push_back({"verdicts_crc32", verdict_crc});
  r.digests.push_back({"raw_counters_crc32", raw_crc});
  std::printf("digest.raw_counters %s\n", tally.raw_json().c_str());

  std::vector<double> p50, tail, throughput, right, done;
  for (const Pass& p : passes) {
    p50.push_back(p.p50_ms);
    tail.push_back(p.tail.value);
    throughput.push_back(static_cast<double>(cases.size()) / p.wall_s);
    right.push_back(static_cast<double>(p.matches) /
                    static_cast<double>(programs.size()));
    done.push_back(1.0 - static_cast<double>(p.threw) /
                             static_cast<double>(cases.size()));
  }
  const double setup_s = median(setups);
  const double rss = peak_rss_mb();
  const double f = host.factor();
  r.host_reference_s = host.seconds();
  r.e2e = {{"setup_s", f * setup_s, "s"},
           {"latency_p50_ms", f * median(p50), "ms"},
           {"latency_tail_ms", f * median(tail), "ms"},
           {"throughput_per_s", median(throughput) / f, "1/s"},
           {"right_frac", median(right), "frac"},
           {"completed_frac", median(done), "frac"},
           {"peak_rss_mb", rss, "MB"}};
  std::size_t wrong = 0;
  for (const Pass& p : passes)
    wrong = std::max(wrong, programs.size() - p.matches);
  r.named = {{"setup_s", setup_s, "s"},
             {"sim_runs_per_s", median(throughput), "1/s"},
             {"case_p50_ms", median(p50), "ms"},
             {"case_p95_ms", median(tail), "ms"},
             {"wrong_verdicts", static_cast<double>(wrong), "count"},
             {"failed_frac", 1.0 - median(done), "frac"},
             {"peak_rss_mb", rss, "MB"},
             {"cases", static_cast<double>(cases.size()), "count"},
             {"passes", static_cast<double>(passes.size()), "count"},
             {"latency_tail_q", passes.front().tail.q, "frac"}};

  if (!tracer.enabled()) return r;
  const auto spans = tracer.spans();
  std::vector<double> run_ms = durations(spans, "exec.Machine::run");
  const double run_total = total(run_ms);
  for (double& x : run_ms) x *= 1e3;
  // Sim statistics of one pass (every pass simulates the same cases).
  add_sim_layer(r, tally, run_total / static_cast<double>(passes.size()));
  r.layers.push_back(
      {"exec.construct_us",
       1e6 * median(durations(spans, "exec.Machine::Machine")), "us"});
  r.layers.push_back({"exec.run_ms_p50", median(run_ms), "ms"});
  r.layers.push_back(
      {"exec.run_ms_tail", perfbench::tail_percentile(run_ms).value, "ms"});
  add_zero_layers(r, {"trainers.build_us"}, "us");
  r.layers.push_back(
      {"workloads.build_us",
       1e6 * median(durations(spans, "workloads.Workload::build")), "us"});
  r.layers.push_back(
      {"pmu.read_us", 1e6 * median(durations(spans, "pmu.read")), "us"});
  add_zero_layers(r, {"pmu.measure_us"}, "us");
  add_core_layer(r, model->data, model->report, model->collect_s, 0.0);
  r.layers.push_back({"ml.fit_ms", 1e3 * model->fit_s, "ms"});
  add_zero_layers(r, {"ml.cv_ms"}, "ms");
  add_classify_probes(r, tracer, detector, rows);
  std::vector<double> busy, tail_ms;
  for (const Pass& p : passes) {
    busy.push_back(p.busy_frac);
    tail_ms.push_back(p.tail_ms);
  }
  r.layers.push_back({"par.busy_frac", median(busy), "frac"});
  r.layers.push_back({"par.tail_ms", median(tail_ms), "ms"});
  add_idle_serve_layer(r);
  return r;
}

// ---- serve_steady ------------------------------------------------------------

struct SessionPlan {
  std::size_t template_index = 0;
  bool malformed = false;
  std::vector<serve::SampleBatch> batches;
};

/// One degraded measurement as the wire-format batch a client sends:
/// present events only, in Table-2 order.
serve::SampleBatch to_batch(const pmu::DegradedSnapshot& snapshot) {
  serve::SampleBatch batch;
  for (const pmu::EventInfo& info : pmu::westmere_event_table()) {
    if (!snapshot.present[static_cast<std::size_t>(info.id)]) continue;
    batch.push_back({std::string(info.name),
                     static_cast<double>(snapshot.counts.get(info.id))});
  }
  return batch;
}

/// The ways a client stream can be malformed: unknown event, NaN count,
/// negative count, duplicate event. Each must quarantine the session.
void corrupt(serve::SampleBatch& batch, std::uint64_t variant) {
  if (batch.empty()) batch.push_back({"Instructions_Retired", 1.0});
  switch (variant % 4) {
    case 0: batch.push_back({"Bogus_Event.NOT_IN_TABLE_2", 1.0}); break;
    case 1: batch.front().count = std::nan(""); break;
    case 2: batch.front().count = -7.0; break;
    default: batch.push_back(batch.front()); break;
  }
}

std::vector<SessionPlan> make_sessions(Tracer& tracer,
                                       const std::vector<core::EvalRun>& runs,
                                       std::uint64_t seed) {
  pmu::NoiseConfig noise;  // moderate: 4-counter multiplexing, 5% jitter
  noise.counters = 4;
  noise.jitter = 0.05;
  noise.seed = seed;
  const pmu::MeasurementModel model(noise);
  std::vector<SessionPlan> plans(kServeSessions);
  for (std::size_t i = 0; i < plans.size(); ++i) {
    util::SplitMix64 mix(seed ^ (0x5e55ULL + i * 0x9e3779b97f4a7c15ULL));
    SessionPlan& plan = plans[i];
    plan.template_index = static_cast<std::size_t>(mix.next() % runs.size());
    const std::size_t n = 1 + static_cast<std::size_t>(mix.next() % kMaxBatches);
    plan.malformed =
        static_cast<double>(mix.next() >> 11) * 0x1.0p-53 < kMalformedRate;
    const std::size_t bad_at = static_cast<std::size_t>(mix.next() % n);
    const std::uint64_t variant = mix.next();
    const core::EvalRun& run = runs[plan.template_index];
    for (std::size_t j = 0; j < n; ++j) {
      pmu::DegradedSnapshot snap;
      {
        Scope s(tracer, "pmu", "pmu.MeasurementModel::measure",
                static_cast<std::int64_t>(i));
        snap = model.measure(run.result.aggregate, run.result.slices,
                             static_cast<std::uint64_t>(i) * 1024 + j);
      }
      plan.batches.push_back(to_batch(snap));
      if (plan.malformed && j == bad_at) corrupt(plan.batches.back(), variant);
    }
  }
  return plans;
}

struct ServePass {
  double wall_s = 0.0;
  /// Session latency in host µs, from the instant of the step the session
  /// was due, and in virtual steps; summaries only, so a run's memory does
  /// not grow with its pass count.
  double p50_us = 0.0, p99_us = 0.0, p99_steps = 0.0;
  perfbench::Tail tail_us;
  std::uint64_t offered = 0, turned_away = 0, lost = 0, records = 0;
  std::uint64_t verdicts = 0, correct = 0, false_positives = 0;
  std::uint64_t shed = 0, expired = 0, bad_quarantines = 0;
  std::size_t queue_peak = 0;
  std::string fingerprint;
  serve::HealthSnapshot health;

  std::uint64_t failed() const {
    return shed + expired + turned_away + lost + bad_quarantines;
  }
};

ServePass serve_pass(Tracer& tracer, const core::FalseSharingDetector& detector,
                     par::ThreadPool& pool,
                     const std::vector<core::EvalRun>& runs,
                     const std::vector<SessionPlan>& plans,
                     std::uint64_t seed, bool sample_queue = false) {
  enum class Kind : std::uint8_t { kOpen, kSubmit, kClose };
  struct Event {
    std::uint64_t id;
    Kind kind;
    std::size_t batch;
    std::size_t tries;
  };
  serve::ServeConfig config;
  config.seed = seed;
  serve::Server server(detector, pool, config);
  ServePass out;
  out.offered = plans.size();

  // Open loop: session i is due at step i, one arrival per step, whatever
  // the server does; 3 batches per session on average against 4 served
  // per step puts the load at 3/4 of the batch service rate.
  std::vector<std::vector<Event>> calendar(plans.size() + 64);
  for (std::size_t i = 0; i < plans.size(); ++i)
    calendar[i].push_back({i, Kind::kOpen, 0, 0});
  const auto at = [&](std::uint64_t step) -> std::vector<Event>& {
    if (step >= calendar.size()) calendar.resize(step + 64);
    return calendar[step];
  };
  std::vector<Clock::time_point> step_start;
  step_start.reserve(calendar.size());
  std::vector<double> latency_us, latency_steps;
  latency_us.reserve(plans.size());
  latency_steps.reserve(plans.size());
  std::vector<std::string> lines;
  lines.reserve(plans.size());

  const auto account = [&](const std::vector<serve::SessionRecord>& records) {
    const Clock::time_point now = Clock::now();
    for (const serve::SessionRecord& rec : records) {
      const SessionPlan& plan = plans[rec.id];
      latency_us.push_back(
          1e6 * seconds_between(step_start[rec.id], now));
      latency_steps.push_back(static_cast<double>(rec.final_step - rec.id));
      lines.push_back(rec.to_string());
      ++out.records;
      const trainers::Mode label = runs[plan.template_index].label;
      switch (rec.outcome) {
        case serve::Outcome::kVerdict:
          ++out.verdicts;
          if (rec.verdict.mode == label) ++out.correct;
          if (label == trainers::Mode::kGood &&
              rec.verdict.mode != trainers::Mode::kGood)
            ++out.false_positives;
          break;
        case serve::Outcome::kShed: ++out.shed; break;
        case serve::Outcome::kExpired: ++out.expired; break;
        case serve::Outcome::kQuarantined:
          if (!plan.malformed) ++out.bad_quarantines;
          break;
        default: break;
      }
    }
  };

  const Clock::time_point t0 = Clock::now();
  std::uint64_t step = 0;
  for (; step < calendar.size(); ++step) {
    step_start.push_back(Clock::now());
    std::vector<Event> events = std::move(calendar[step]);
    for (const Event& e : events) {
      const SessionPlan& plan = plans[e.id];
      switch (e.kind) {
        case Kind::kOpen: {
          serve::AdmitResult a;
          {
            Scope s(tracer, "serve", "serve.Server::open_session",
                    static_cast<std::int64_t>(e.id));
            a = server.open_session(e.id, step);
          }
          if (a.admission == serve::Admission::kAdmitted ||
              a.admission == serve::Admission::kDegraded)
            at(step + 1).push_back({e.id, Kind::kSubmit, 0, 0});
          else if (a.admission == serve::Admission::kRetryAfter && e.tries < 3)
            at(step + std::max<std::uint64_t>(1, a.retry_after_steps))
                .push_back({e.id, Kind::kOpen, 0, e.tries + 1});
          else
            ++out.turned_away;
          break;
        }
        case Kind::kSubmit: {
          serve::SubmitResult sr;
          {
            Scope s(tracer, "serve", "serve.Server::submit",
                    static_cast<std::int64_t>(e.id));
            sr = server.submit(e.id, plan.batches[e.batch], step);
          }
          if (sr.status == serve::Submit::kAccepted ||
              sr.status == serve::Submit::kUnusable) {
            if (e.batch + 1 < plan.batches.size())
              at(step + 1).push_back({e.id, Kind::kSubmit, e.batch + 1, 0});
            else
              at(step + 1).push_back({e.id, Kind::kClose, 0, 0});
          } else if (sr.status == serve::Submit::kRetryAfter && e.tries < 8) {
            at(step + std::max<std::uint64_t>(1, sr.retry_after_steps))
                .push_back({e.id, Kind::kSubmit, e.batch, e.tries + 1});
          } else if (sr.status == serve::Submit::kRetryAfter) {
            at(step + 1).push_back({e.id, Kind::kClose, 0, 0});
          }
          break;
        }
        case Kind::kClose: {
          Scope s(tracer, "serve", "serve.Server::close_session",
                  static_cast<std::int64_t>(e.id));
          server.close_session(e.id, step);
          break;
        }
      }
    }
    std::vector<serve::SessionRecord> produced;
    {
      Scope s(tracer, "serve", "serve.Server::tick");
      produced = server.tick(step, kServeRate);
    }
    account(produced);
    if (sample_queue)
      out.queue_peak = std::max(out.queue_peak, server.snapshot().queue_size);
  }
  {
    Scope s(tracer, "serve", "serve.Server::drain");
    account(server.drain(step, kServeRate));
  }
  out.wall_s = seconds_between(t0, Clock::now());
  out.health = server.snapshot();
  out.lost = out.health.admitted > out.records
                 ? out.health.admitted - out.records
                 : 0;
  std::sort(lines.begin(), lines.end());
  util::Crc32 crc;
  for (const std::string& line : lines) {
    crc.update(line.data(), line.size());
    crc.update("\n", 1);
  }
  out.fingerprint = hex32(crc.value());
  std::sort(latency_us.begin(), latency_us.end());
  std::sort(latency_steps.begin(), latency_steps.end());
  out.p50_us = perfbench::percentile(latency_us, 0.5);
  out.p99_us = perfbench::percentile(latency_us, 0.99);
  out.tail_us = perfbench::tail_percentile(latency_us);
  out.p99_steps = perfbench::percentile(latency_steps, 0.99);
  return out;
}

Result run_serve_steady(const Args& args, Tracer& tracer) {
  Result r;
  perfbench::HostReference host;
  host.sample();
  const std::size_t jobs = par::ThreadPool::hardware_workers();
  std::vector<double> setups;
  std::optional<TrainedModel> model;
  std::vector<core::EvalRun> runs;
  std::vector<SessionPlan> plans;
  double templates_s = 0.0;
  for (int i = 0; i < kSetupReps; ++i) {
    Scope s(tracer, "bench", "bench.setup");
    const Clock::time_point t0 = Clock::now();
    model.emplace(train_reduced_model(tracer, args, jobs));
    {
      Scope ts(tracer, "sim_exec", "serve.drill_templates");
      const Clock::time_point t1 = Clock::now();
      runs = serve::drill_templates(args.seed, 1);
      templates_s = seconds_between(t1, Clock::now());
    }
    plans = make_sessions(tracer, runs, args.seed);
    setups.push_back(seconds_between(t0, Clock::now()));
  }
  const core::FalseSharingDetector& detector = model->detector;
  par::ThreadPool pool(jobs - 1);

  std::vector<ServePass> passes;
  repeat_passes(tracer, host, args.seconds, [&](int) {
    ServePass p = serve_pass(tracer, detector, pool, runs, plans, args.seed);
    r.check(p.lost == 0, std::to_string(p.lost) + " sessions lost");
    r.check(p.false_positives == 0,
            std::to_string(p.false_positives) + " false positives");
    if (!passes.empty())
      r.check(p.fingerprint == passes.front().fingerprint,
              "terminal-record fingerprint differs between passes");
    r.attempted += p.offered;
    r.failed += p.failed();
    passes.push_back(std::move(p));
  });
  r.digests.push_back({"records_fingerprint", passes.front().fingerprint});

  std::vector<double> p50, p99, tail, steps99, throughput, right, done, fp;
  std::vector<double> wrong;
  for (const ServePass& p : passes) {
    p50.push_back(p.p50_us);
    p99.push_back(p.p99_us);
    tail.push_back(p.tail_us.value);
    steps99.push_back(p.p99_steps);
    throughput.push_back(static_cast<double>(p.records) / p.wall_s);
    right.push_back(p.verdicts == 0 ? 0.0
                                    : static_cast<double>(p.correct) /
                                          static_cast<double>(p.verdicts));
    wrong.push_back(static_cast<double>(p.verdicts - p.correct));
    fp.push_back(static_cast<double>(p.false_positives));
    done.push_back(1.0 - static_cast<double>(p.failed()) /
                             static_cast<double>(p.offered));
  }
  const double setup_s = median(setups);
  const double rss = peak_rss_mb();
  const double f = host.factor();
  r.host_reference_s = host.seconds();
  r.e2e = {{"setup_s", f * setup_s, "s"},
           {"latency_p50_ms", f * 1e-3 * median(p50), "ms"},
           {"latency_tail_ms", f * 1e-3 * median(tail), "ms"},
           {"throughput_per_s", median(throughput) / f, "1/s"},
           {"right_frac", median(right), "frac"},
           {"completed_frac", median(done), "frac"},
           {"peak_rss_mb", rss, "MB"}};
  r.named = {{"setup_s", setup_s, "s"},
             {"wrong_verdicts", median(wrong), "count"},
             {"false_positives", median(fp), "count"},
             {"sessions_per_s", median(throughput), "1/s"},
             {"session_p50_us", median(p50), "us"},
             {"session_p99_us", median(p99), "us"},
             {"session_p99_steps", median(steps99), "steps"},
             {"failed_frac", 1.0 - median(done), "frac"},
             {"peak_rss_mb", rss, "MB"},
             {"sessions", static_cast<double>(kServeSessions), "count"},
             {"passes", static_cast<double>(passes.size()), "count"},
             {"latency_tail_q", passes.front().tail_us.q, "frac"}};

  if (!tracer.enabled()) return r;
  const auto spans = tracer.spans();
  SimTally tally;
  std::vector<const sim::RawCounters*> raws;
  for (const core::EvalRun& run : runs) {
    tally.add(run.result, 0);
    raws.push_back(&run.result.aggregate);
  }
  // drill_templates runs its simulations inside one call: construction
  // and build are included in its per-access time.
  add_sim_layer(r, tally, templates_s);
  add_zero_layers(r, {"exec.construct_us"}, "us");
  add_zero_layers(r, {"exec.run_ms_p50", "exec.run_ms_tail"}, "ms");
  add_zero_layers(r, {"trainers.build_us", "workloads.build_us"}, "us");
  add_pmu_read_probe(r, tracer, raws);
  r.layers.push_back(
      {"pmu.measure_us",
       1e6 * median(durations(spans, "pmu.MeasurementModel::measure")), "us"});
  add_core_layer(r, model->data, model->report, model->collect_s, 0.0);
  r.layers.push_back({"ml.fit_ms", 1e3 * model->fit_s, "ms"});
  add_zero_layers(r, {"ml.cv_ms"}, "ms");

  // Direct calls on the served payloads: validation, the vote loop and the
  // batch kernel over every usable measurement.
  std::vector<pmu::FeatureVector> measured;
  double validate_ns = 0.0, robust_us = 0.0;
  {
    std::size_t calls = 0;
    Scope s(tracer, "serve", "serve.validate_batch");
    const Clock::time_point t0 = Clock::now();
    for (const SessionPlan& plan : plans)
      for (const serve::SampleBatch& batch : plan.batches) {
        const serve::ValidatedBatch v = serve::validate_batch(batch);
        ++calls;
        if (v.status == serve::BatchStatus::kOk)
          measured.push_back(v.features);
      }
    validate_ns = 1e9 * seconds_between(t0, Clock::now()) /
                  static_cast<double>(calls);
  }
  {
    std::size_t calls = 0, next = 0;
    Scope s(tracer, "ml", "ml.FalseSharingDetector::classify_robust");
    const Clock::time_point t0 = Clock::now();
    // RobustConfig's default vote takes five measurements per call.
    for (; next + kMaxBatches <= measured.size(); next += kMaxBatches) {
      detector.classify_robust(
          [&](std::size_t k) -> std::optional<pmu::FeatureVector> {
            return measured[next + k];
          },
          core::RobustConfig{});
      ++calls;
    }
    robust_us = calls == 0 ? 0.0
                           : 1e6 * seconds_between(t0, Clock::now()) /
                                 static_cast<double>(calls);
  }
  add_classify_probes(r, tracer, detector, measured);
  add_zero_layers(r, {"par.busy_frac"}, "frac");
  add_zero_layers(r, {"par.tail_ms"}, "ms");

  const auto micros = [&](const char* name) {
    std::vector<double> us = durations(spans, name);
    for (double& d : us) d *= 1e6;
    return us;
  };
  const std::vector<double> open_us = micros("serve.Server::open_session");
  const std::vector<double> submit_us = micros("serve.Server::submit");
  const std::vector<double> tick_us = micros("serve.Server::tick");
  const ServePass& last = passes.back();
  r.layers.push_back({"serve.open_us_p50", perfbench::percentile(open_us, 0.5),
                      "us"});
  r.layers.push_back({"serve.open_us_p99",
                      perfbench::percentile(open_us, 0.99), "us"});
  r.layers.push_back({"serve.submit_us_p50",
                      perfbench::percentile(submit_us, 0.5), "us"});
  r.layers.push_back({"serve.submit_us_p99",
                      perfbench::percentile(submit_us, 0.99), "us"});
  r.layers.push_back({"serve.tick_us_p50", perfbench::percentile(tick_us, 0.5),
                      "us"});
  r.layers.push_back({"serve.tick_us_p99",
                      perfbench::percentile(tick_us, 0.99), "us"});
  r.layers.push_back({"serve.validate_ns", validate_ns, "ns"});
  r.layers.push_back({"serve.classify_robust_us", robust_us, "us"});
  r.layers.push_back(
      {"serve.drain_ms", 1e3 * median(durations(spans, "serve.Server::drain")),
       "ms"});
  // Server::snapshot() sorts every classify time so far, so the per-step
  // queue samples come from an extra untraced, untimed pass.
  Tracer quiet(false);
  const ServePass sampled =
      serve_pass(quiet, detector, pool, runs, plans, args.seed, true);
  r.check(sampled.fingerprint == last.fingerprint,
          "queue-sampling pass changed the terminal records");
  r.layers.push_back({"serve.queue_peak",
                      static_cast<double>(sampled.queue_peak), "count"});
  r.layers.push_back({"serve.retry_afters",
                      static_cast<double>(last.health.retry_afters), "count"});
  r.layers.push_back({"serve.shed", static_cast<double>(last.health.shed),
                      "count"});
  r.layers.push_back({"serve.quarantined",
                      static_cast<double>(last.health.quarantined), "count"});
  r.layers.push_back({"serve.batches_processed",
                      static_cast<double>(last.health.batches_processed),
                      "count"});
  r.layers.push_back(
      {"serve.classify_p99_us", last.health.classify_p99_us, "us"});
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  try {
    args = parse_args(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsml_perfbench: %s\n", e.what());
    return 2;
  }

  const std::size_t nproc = par::ThreadPool::hardware_workers();
  std::printf(
      "provenance {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"jobs\": %zu, \"nproc\": %zu, \"cpu_model\": %s, "
      "\"build_type\": %s, \"compiler\": %s, \"rev\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      json_number(args.seconds).c_str(), args.trace ? 1 : 0,
      args.workload == "train_reduced" ? std::size_t{1} : nproc, nproc,
      json_string(cpu_model()).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(),
      json_string(std::string("g++ ") + __VERSION__).c_str(),
      json_string(args.rev).c_str());
  std::fflush(stdout);

  Tracer tracer(args.trace);
  Result result;
  try {
    if (args.workload == "train_reduced")
      result = run_train_reduced(args, tracer);
    else if (args.workload == "sweep_table5")
      result = run_sweep_table5(args, tracer);
    else if (args.workload == "serve_steady")
      result = run_serve_steady(args, tracer);
    else
      throw std::runtime_error("unknown workload '" + args.workload +
                               "' (train_reduced, sweep_table5, "
                               "serve_steady)");
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fsml_perfbench: %s\n", e.what());
    return 2;
  }

  check_persisted_digests(result, args);
  result.named.push_back(
      {"host_reference_ms", 1e3 * result.host_reference_s, "ms"});
  if (tracer.enabled()) {
    const auto spans = tracer.spans();
    add_self_times(result, spans);
    write_spans(tracer, args);
    // Traced end-to-end latency: compared with the untraced run's
    // latency_p50_ms it gives the tracing overhead.
    result.layers.push_back({"trace.latency_p50_ms", result.e2e[1].value,
                             "ms"});
  }

  std::string digests = "{";
  for (std::size_t i = 0; i < result.digests.size(); ++i)
    digests += (i ? ", " : "") + json_string(result.digests[i].first) + ": " +
               json_string(result.digests[i].second);
  std::printf("digests %s}\n", digests.c_str());
  std::printf("report %s\n", metrics_json(result.named).c_str());
  for (const std::string& f : result.failures)
    std::fprintf(stderr, "check failed: %s\n", f.c_str());

  const bool correct = result.failures.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed),
              metrics_json(args.trace ? result.layers : result.e2e).c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
