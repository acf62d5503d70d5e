// Tests for ml::FlatTree, the compiled SoA serving form of the C4.5 tree.
//
// The load-bearing property is the bit-identity contract: for every input —
// clean or with NaN (missing) slots — the flat kernel's predict() and
// classify_many() must return the label of the pointer tree it was compiled
// from. On NaN rows that label is the argmax of the blended branch
// distributions, so the fuzz covers the blend arithmetic too. The suites
// below exercise the contract across tree shapes (separable, three-class,
// unpruned, depth-capped, trained on missing values), the persistence round
// trip (save → load → recompile), parallel batch chunking, and the
// detector-level vote loop, whose oracle is the pointer tree.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>
#include <vector>

#include "core/detector.hpp"
#include "core/labels.hpp"
#include "ml/c45.hpp"
#include "ml/flat_tree.hpp"
#include "ml/io.hpp"
#include "par/parallel_for.hpp"
#include "par/thread_pool.hpp"
#include "pmu/counters.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace {

using namespace fsml;
using ml::Dataset;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

Dataset separable(std::size_t n_per_class, util::Rng& rng) {
  Dataset d({"a", "b"}, {"neg", "pos"});
  for (std::size_t i = 0; i < n_per_class; ++i) {
    d.add({2.0 + rng.next_double(), rng.next_double() * 10}, 0);
    d.add({8.0 + rng.next_double(), rng.next_double() * 10}, 1);
  }
  return d;
}

Dataset three_class(std::size_t n_per_class, util::Rng& rng,
                    double missing_rate = 0.0) {
  Dataset d({"hitm", "repl", "noise1", "noise2"},
            {"good", "bad-fs", "bad-ma"});
  for (std::size_t i = 0; i < n_per_class; ++i) {
    const double n1 = rng.next_double(), n2 = rng.next_double();
    std::vector<std::vector<double>> xs = {
        {rng.next_double() * 1e-4, rng.next_double() * 0.05, n1, n2},
        {0.01 + rng.next_double() * 0.1, rng.next_double() * 0.2, n1, n2},
        {rng.next_double() * 1e-4, 0.5 + rng.next_double() * 0.5, n1, n2},
    };
    for (int y = 0; y < 3; ++y) {
      if (missing_rate > 0 && rng.next_bool(missing_rate))
        xs[static_cast<std::size_t>(y)]
          [rng.next_below(xs[static_cast<std::size_t>(y)].size())] = kNaN;
      d.add(xs[static_cast<std::size_t>(y)], y);
    }
  }
  return d;
}

/// A fuzz vector in the rough value range of the training data above, with
/// NaN slots injected at `nan_rate`.
std::vector<double> fuzz_vector(std::size_t arity, util::Rng& rng,
                                double nan_rate) {
  std::vector<double> x(arity);
  for (double& v : x) v = rng.next_double() * 12.0 - 1.0;
  for (double& v : x)
    if (rng.next_bool(nan_rate)) v = kNaN;
  return x;
}

/// The contract itself: predict identical across `rounds` fuzz vectors (a
/// quarter of them with NaN slots).
void expect_bit_identity(const ml::C45Tree& tree, const ml::FlatTree& flat,
                         std::uint64_t seed, std::size_t rounds = 400) {
  ASSERT_FALSE(flat.empty());
  EXPECT_EQ(flat.num_nodes(), tree.num_nodes());
  EXPECT_EQ(flat.num_leaves(), tree.num_leaves());
  EXPECT_EQ(flat.num_attributes(), tree.attribute_names().size());
  EXPECT_EQ(flat.num_classes(), tree.class_names().size());
  util::Rng rng(seed);
  for (std::size_t i = 0; i < rounds; ++i) {
    const std::vector<double> x =
        fuzz_vector(flat.num_attributes(), rng, i % 4 == 0 ? 0.3 : 0.0);
    ASSERT_EQ(flat.predict(x), tree.predict(x)) << "round " << i;
  }
}

// ---- compile-time structure ------------------------------------------------

TEST(FlatTree, UntrainedTreeDoesNotCompile) {
  ml::C45Tree tree;
  EXPECT_THROW(ml::FlatTree::compile(tree), util::CheckFailure);
}

TEST(FlatTree, EmptyFlatTreeRejectsLookups) {
  const ml::FlatTree flat;
  EXPECT_TRUE(flat.empty());
  const std::vector<double> x(4, 0.0);
  EXPECT_THROW(flat.predict(x), util::CheckFailure);
  std::vector<int> out(1);
  EXPECT_THROW(flat.classify_many(x, 4, out), util::CheckFailure);
}

TEST(FlatTree, SingleLeafTreeCompilesToOneNode) {
  // A pure dataset trains to a lone leaf; the flat form is one node, no
  // descent, and still answers every lookup (including all-NaN vectors).
  Dataset d({"a"}, {"only", "never"});
  for (int i = 0; i < 8; ++i) d.add({static_cast<double>(i)}, 0);
  ml::C45Tree tree;
  tree.train(d);
  ASSERT_EQ(tree.num_nodes(), 1u);
  const ml::FlatTree flat = ml::FlatTree::compile(tree);
  EXPECT_EQ(flat.num_nodes(), 1u);
  EXPECT_EQ(flat.num_leaves(), 1u);
  EXPECT_GT(flat.pool_bytes(), 0u);
  EXPECT_EQ(flat.predict(std::vector<double>{3.0}), 0);
  EXPECT_EQ(flat.predict(std::vector<double>{kNaN}), 0);
}

TEST(FlatTree, ShortFeatureVectorIsRejected) {
  util::Rng rng(7);
  ml::C45Tree tree;
  tree.train(three_class(40, rng));
  const ml::FlatTree flat = ml::FlatTree::compile(tree);
  const std::vector<double> too_short(flat.num_attributes() - 1, 0.0);
  EXPECT_THROW(flat.predict(too_short), util::CheckFailure);
}

// ---- bit-identity fuzz -----------------------------------------------------

TEST(FlatTree, BitIdenticalOnSeparableTree) {
  util::Rng rng(11);
  ml::C45Tree tree;
  tree.train(separable(60, rng));
  expect_bit_identity(tree, ml::FlatTree::compile(tree), 101);
}

TEST(FlatTree, BitIdenticalOnThreeClassTree) {
  util::Rng rng(12);
  ml::C45Tree tree;
  tree.train(three_class(80, rng));
  expect_bit_identity(tree, ml::FlatTree::compile(tree), 102);
}

TEST(FlatTree, BitIdenticalOnUnprunedTree) {
  util::Rng rng(13);
  ml::C45Params params;
  params.prune = false;
  ml::C45Tree tree(params);
  tree.train(three_class(80, rng));
  expect_bit_identity(tree, ml::FlatTree::compile(tree), 103);
}

TEST(FlatTree, BitIdenticalOnDepthCappedTree) {
  util::Rng rng(14);
  ml::C45Params params;
  params.max_depth = 2;
  ml::C45Tree tree(params);
  tree.train(three_class(80, rng));
  expect_bit_identity(tree, ml::FlatTree::compile(tree), 104);
}

TEST(FlatTree, BitIdenticalOnTreeTrainedWithMissingValues) {
  // Fractional training weights make leaf counts non-integral — exactly
  // the case where pre-normalizing ratios would break bit-identity.
  util::Rng rng(15);
  ml::C45Tree tree;
  tree.train(three_class(80, rng, /*missing_rate=*/0.25));
  expect_bit_identity(tree, ml::FlatTree::compile(tree), 105);
}

// ---- batch classify --------------------------------------------------------

TEST(FlatTree, ClassifyManyEqualsPredictLoop) {
  util::Rng rng(21);
  ml::C45Tree tree;
  tree.train(three_class(60, rng));
  const ml::FlatTree flat = ml::FlatTree::compile(tree);
  const std::size_t arity = flat.num_attributes();

  // Padded stride: rows carry trailing garbage the kernel must ignore.
  for (const std::size_t stride : {arity, arity + 3}) {
    constexpr std::size_t kRows = 257;
    std::vector<double> xs(kRows * stride, -1e9);
    for (std::size_t r = 0; r < kRows; ++r) {
      const std::vector<double> x = fuzz_vector(arity, rng, 0.2);
      std::copy(x.begin(), x.end(),
                xs.begin() + static_cast<std::ptrdiff_t>(r * stride));
    }
    std::vector<int> batch(kRows);
    flat.classify_many(xs, stride, batch);
    for (std::size_t r = 0; r < kRows; ++r) {
      const std::span<const double> row(xs.data() + r * stride, arity);
      EXPECT_EQ(batch[r], tree.predict(row))
          << "row " << r << " stride " << stride;
      EXPECT_EQ(batch[r], flat.predict(row)) << "row " << r;
    }
  }

  std::vector<int> out(4);
  EXPECT_THROW(flat.classify_many(std::vector<double>(8, 0.0), 2, out),
               util::CheckFailure)
      << "stride below the training arity must be rejected";
}

TEST(FlatTree, ClassifyManyDeterministicAcrossParallelChunks) {
  // Rows are independent, so splitting one batch across pool workers must
  // be bit-identical to the serial call — for any worker count.
  util::Rng rng(22);
  ml::C45Tree tree;
  tree.train(three_class(60, rng));
  const ml::FlatTree flat = ml::FlatTree::compile(tree);
  const std::size_t arity = flat.num_attributes();

  constexpr std::size_t kRows = 503;
  std::vector<double> xs(kRows * arity);
  for (std::size_t r = 0; r < kRows; ++r) {
    const std::vector<double> x = fuzz_vector(arity, rng, 0.25);
    std::copy(x.begin(), x.end(),
              xs.begin() + static_cast<std::ptrdiff_t>(r * arity));
  }
  std::vector<int> serial(kRows);
  flat.classify_many(xs, arity, serial);

  for (const std::size_t workers : {0u, 1u, 4u}) {
    par::ThreadPool pool(workers);
    constexpr std::size_t kChunk = 64;
    const std::size_t chunks = (kRows + kChunk - 1) / kChunk;
    std::vector<int> parallel(kRows);
    par::parallel_for(pool, chunks, [&](std::size_t c) {
      const std::size_t begin = c * kChunk;
      const std::size_t rows = std::min(kChunk, kRows - begin);
      flat.classify_many(
          std::span<const double>(xs.data() + begin * arity, rows * arity),
          arity, std::span<int>(parallel.data() + begin, rows));
    });
    EXPECT_EQ(parallel, serial) << "workers=" << workers;
  }
}

// ---- persistence: load → recompile -----------------------------------------

TEST(FlatTree, LoadedModelRecompilesBitIdentically) {
  // Model files persist only the pointer tree; the flat form is recompiled
  // on load and must match both the loaded tree and the original flat form.
  util::Rng rng(31);
  ml::C45Tree tree;
  tree.train(three_class(70, rng, /*missing_rate=*/0.1));
  const ml::FlatTree original = ml::FlatTree::compile(tree);

  std::stringstream file;
  ml::save_model(tree, file);
  const ml::C45Tree loaded = ml::load_model(file);
  const ml::FlatTree recompiled = ml::FlatTree::compile(loaded);
  expect_bit_identity(loaded, recompiled, 301);

  util::Rng probe(32);
  for (int i = 0; i < 100; ++i) {
    const std::vector<double> x =
        fuzz_vector(original.num_attributes(), probe, 0.2);
    EXPECT_EQ(recompiled.predict(x), original.predict(x));
  }
}

TEST(FlatTree, CorruptContainerIsRejectedBeforeCompile) {
  // A torn/corrupt model file must fail at load — it can never reach the
  // compiler and produce a silently wrong flat kernel.
  util::Rng rng(33);
  ml::C45Tree tree;
  tree.train(separable(40, rng));
  std::ostringstream os;
  ml::save_model(tree, os);
  std::string bytes = os.str();
  bytes[bytes.size() / 2] ^= 0x20;  // flip one payload bit
  std::istringstream corrupt(bytes);
  EXPECT_THROW(ml::load_model(corrupt), std::runtime_error);

  std::istringstream truncated(os.str().substr(0, os.str().size() / 2));
  EXPECT_THROW(ml::load_model(truncated), std::runtime_error);
}

// ---- detector integration --------------------------------------------------

/// Synthetic 15-attribute dataset in the detector's schema: class decided
/// by two feature thresholds, like the paper's HITM/replacement signals.
Dataset detector_dataset(std::size_t n_per_class, util::Rng& rng) {
  Dataset d(pmu::FeatureVector::feature_names(), core::class_names());
  for (std::size_t i = 0; i < n_per_class; ++i) {
    for (int y = 0; y < 3; ++y) {
      std::vector<double> x(pmu::kNumFeatures);
      for (double& v : x) v = rng.next_double() * 0.01;
      if (y == 1) x[4] = 0.5 + rng.next_double();   // "bad-fs" signal
      if (y == 2) x[9] = 0.5 + rng.next_double();   // "bad-ma" signal
      d.add(x, y);
    }
  }
  return d;
}

TEST(FlatTreeDetector, RobustVoteMatchesPointerTreeOracle) {
  util::Rng rng(41);
  core::FalseSharingDetector detector;
  detector.train(detector_dataset(60, rng));
  ASSERT_NE(detector.flat(), nullptr);

  // One measurement stream: some repeats unusable, some with NaN slots,
  // the rest clean.
  const auto measure = [](std::size_t r) -> std::optional<pmu::FeatureVector> {
    if (r % 5 == 4) return std::nullopt;
    util::Rng mrng(1000 + r);
    pmu::FeatureVector f;
    for (std::size_t i = 0; i < pmu::kNumFeatures; ++i)
      f.set(i, mrng.next_double() * 0.01);
    if (r % 2 == 0) f.set(4, 0.5 + mrng.next_double());
    if (r % 3 == 0) f.set(r % pmu::kNumFeatures, kNaN);
    return f;
  };

  core::RobustConfig config;
  config.repeats = 21;
  const core::RobustVerdict verdict = detector.classify_robust(measure, config);

  // The oracle: the pointer tree's label for every usable measurement, then
  // the same severity-ordered vote (ties go to the worse verdict).
  std::array<std::size_t, 3> votes{};
  std::size_t classified = 0;
  for (std::size_t r = 0; r < static_cast<std::size_t>(config.repeats); ++r) {
    const std::optional<pmu::FeatureVector> f = measure(r);
    if (!f) continue;
    ++votes[static_cast<std::size_t>(detector.model().predict(f->values()))];
    ++classified;
  }
  int best = core::kBadFs;
  for (const int label : {core::kBadMa, core::kGood})
    if (votes[static_cast<std::size_t>(label)] >
        votes[static_cast<std::size_t>(best)])
      best = label;
  const double confidence =
      static_cast<double>(votes[static_cast<std::size_t>(best)]) /
      static_cast<double>(classified);

  EXPECT_GT(classified, 0u);
  EXPECT_EQ(verdict.classified, classified);
  EXPECT_EQ(verdict.votes, votes);
  EXPECT_EQ(verdict.confidence, confidence);
  EXPECT_EQ(verdict.known, confidence >= config.min_confidence);
  if (verdict.known) {
    EXPECT_EQ(verdict.mode, core::mode_of(best));
  }
}

TEST(FlatTreeDetector, TrainLoadAndFileRoundTripRebuildFlatForm) {
  util::Rng rng(42);
  core::FalseSharingDetector detector;
  detector.train(detector_dataset(40, rng));
  ASSERT_NE(detector.flat(), nullptr);

  std::stringstream stream;
  detector.save(stream);
  const core::FalseSharingDetector loaded =
      core::FalseSharingDetector::load(stream);
  ASSERT_NE(loaded.flat(), nullptr) << "load() must recompile the flat form";

  util::Rng probe(43);
  for (int i = 0; i < 60; ++i) {
    pmu::FeatureVector f;
    for (std::size_t k = 0; k < pmu::kNumFeatures; ++k)
      f.set(k, probe.next_double());
    if (i % 4 == 0) f.set(i % pmu::kNumFeatures, kNaN);
    EXPECT_EQ(loaded.classify(f), detector.classify(f));
  }
}

}  // namespace
