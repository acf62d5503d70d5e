// Google-benchmark microbenchmarks of the library's hot paths: simulator
// access throughput (hits, misses, contended lines), coroutine scheduling,
// classifier training and prediction. These bound how long the paper-table
// reproductions take and catch performance regressions in the simulator.
#include <benchmark/benchmark.h>

#include <memory>

#include "exec/machine.hpp"
#include "ml/c45.hpp"
#include "pmu/counters.hpp"
#include "sim/machine_config.hpp"
#include "trainers/trainer.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsml;

// Times Machine::run alone: building the machine (which allocates every
// core's tag stores), spawning its threads and tearing it down happen with
// the clock paused, so the items/s figures measure simulated accesses.
template <typename Spawn>
void run_sim(benchmark::State& state, std::uint32_t cores, Spawn spawn) {
  std::uint64_t ops = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto m = std::make_unique<exec::Machine>(
        sim::MachineConfig::westmere_dp(cores), 1);
    spawn(*m);
    state.ResumeTiming();
    ops += m->run().memory_ops;
    state.PauseTiming();
    m.reset();
    state.ResumeTiming();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(ops));
}

void BM_SimL1Hits(benchmark::State& state) {
  run_sim(state, 1, [](exec::Machine& m) {
    const sim::Addr a = m.arena().alloc_line_aligned(64);
    m.spawn([a](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int i = 0; i < 4096; ++i) co_await ctx.load(a);
    });
  });
}
BENCHMARK(BM_SimL1Hits);

void BM_SimStreamingLoads(benchmark::State& state) {
  run_sim(state, 1, [](exec::Machine& m) {
    const sim::Addr a = m.arena().alloc_page_aligned(4096 * 8);
    m.spawn([a](exec::ThreadCtx& ctx) -> exec::SimTask {
      for (int i = 0; i < 4096; ++i) co_await ctx.load(a + 8ULL * i);
    });
  });
}
BENCHMARK(BM_SimStreamingLoads);

void BM_SimFalseSharing(benchmark::State& state) {
  const auto threads = static_cast<std::uint32_t>(state.range(0));
  run_sim(state, threads, [threads](exec::Machine& m) {
    const sim::Addr base = m.arena().alloc_line_aligned(8ULL * threads);
    for (std::uint32_t t = 0; t < threads; ++t) {
      const sim::Addr slot = base + 8ULL * t;
      m.spawn([slot](exec::ThreadCtx& ctx) -> exec::SimTask {
        for (int i = 0; i < 1024; ++i) co_await ctx.store(slot);
      });
    }
  });
}
BENCHMARK(BM_SimFalseSharing)->Arg(2)->Arg(6)->Arg(12);

void BM_TrainerPdot(benchmark::State& state) {
  trainers::TrainerParams params;
  params.threads = 6;
  params.size = 16384;
  params.mode = trainers::Mode::kBadFs;
  const auto& pdot = trainers::find_program("pdot");
  const auto cfg = sim::MachineConfig::westmere_dp(6);
  std::uint64_t insts = 0;
  for (auto _ : state) {
    params.seed += 1;
    insts += trainers::run_trainer(pdot, params, cfg).snapshot.instructions();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(insts));
}
BENCHMARK(BM_TrainerPdot);

ml::Dataset synthetic_dataset(std::size_t n) {
  util::Rng rng(1);
  ml::Dataset d(pmu::FeatureVector::feature_names(),
                {"good", "bad-fs", "bad-ma"});
  for (std::size_t i = 0; i < n; ++i) {
    std::vector<double> x(pmu::kNumFeatures);
    for (double& v : x) v = rng.next_double() * 0.01;
    const int y = static_cast<int>(i % 3);
    if (y == 1) x[10] = 0.01 + rng.next_double() * 0.1;  // HITM
    if (y == 2) x[13] = 0.1 + rng.next_double();         // L1 replacements
    d.add(std::move(x), y);
  }
  return d;
}

void BM_C45Train(benchmark::State& state) {
  const ml::Dataset d = synthetic_dataset(880);
  for (auto _ : state) {
    ml::C45Tree tree;
    tree.train(d);
    benchmark::DoNotOptimize(tree.num_nodes());
  }
}
BENCHMARK(BM_C45Train);

void BM_C45Predict(benchmark::State& state) {
  const ml::Dataset d = synthetic_dataset(880);
  ml::C45Tree tree;
  tree.train(d);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree.predict(d.at(i % d.size()).x));
    ++i;
  }
}
BENCHMARK(BM_C45Predict);

}  // namespace

BENCHMARK_MAIN();
