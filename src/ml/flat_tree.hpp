// FlatTree: a trained C45Tree compiled into one contiguous structure-of-
// arrays node pool — the only classify engine core::FalseSharingDetector
// serves with.
//
// The pointer tree (c45.hpp) is the single source of truth: it is what
// trains, prunes, serializes and persists, and it is the test oracle.
// FlatTree is a *compiled form* derived from it for the classify hot path:
//
//  * one allocation — every per-node array (attribute, threshold, child
//    indices, leaf-distribution arena) lives in a single 8-byte-aligned
//    pool, so a compiled model is one cache-friendly block instead of a
//    heap-scattered unique_ptr graph;
//  * breadth-first layout — node 0 is the root and each level's nodes are
//    contiguous, so the hot top levels of the tree share cache lines;
//  * branch-predictable descent — `x[attr[i]] <= thr[i] ? left[i] :
//    right[i]` with no virtual dispatch and no per-call allocation;
//  * batch `classify_many()` — classifies a row-major block of feature
//    vectors in one call, amortizing dispatch; rows are independent, so
//    callers may split the output span across par::parallel_for workers;
//  * Quinlan fractional NaN descent — a vector with missing (NaN) slots
//    blends both branch distributions over the flat leaf arena with the
//    exact arithmetic (values, operation order, tie-breaks) of
//    C45Tree::predict/distribution.
//
// Bit-identity contract: for every input — clean or with NaN slots —
// predict() and classify_many() return the label of the pointer tree they
// were compiled from. The compiler copies raw training counts (never
// pre-normalized ratios) so every floating-point expression of the NaN
// blend evaluates in the same order on the same values;
// tests/flat_tree_test.cpp fuzzes the contract and
// core::FalseSharingDetector cross-checks it per lookup in debug builds,
// exactly like sim::CoherenceDirectory keeps the snoop scan as its
// reference.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "ml/c45.hpp"

namespace fsml::ml {

class FlatTree {
 public:
  /// An empty (uncompiled) tree; predict/classify_many on it throw.
  FlatTree() = default;

  /// Compiles a trained pointer tree. Throws util::CheckFailure when the
  /// tree is untrained (no root).
  static FlatTree compile(const C45Tree& tree);

  bool empty() const { return count_ == 0; }
  std::size_t num_nodes() const { return count_; }
  std::size_t num_leaves() const { return leaves_; }
  std::size_t num_classes() const { return num_classes_; }
  std::size_t num_attributes() const { return num_attributes_; }
  /// Size of the contiguous node pool, for describe/bench output.
  std::size_t pool_bytes() const { return pool_.size() * sizeof(pool_[0]); }

  /// Predicted class index; bit-identical to C45Tree::predict, including
  /// the fractional NaN descent and its first-max tie-break.
  int predict(std::span<const double> x) const;

  /// Batch classify: row r of the row-major block `xs` (rows of `stride`
  /// doubles, stride >= num_attributes()) yields out[r]. Exactly equal to
  /// a loop of predict() over the rows; `this` is immutable, so disjoint
  /// chunks of (xs, out) may run on parallel workers.
  void classify_many(std::span<const double> xs, std::size_t stride,
                     std::span<int> out) const;

 private:
  /// Raw-pointer views of every pool array, derived once per lookup (or
  /// once per batch) and passed down the descent — re-deriving them per
  /// node costs more than the descent itself on a shallow tree.
  struct View {
    const std::int32_t* attr;
    const std::int32_t* left;
    const std::int32_t* right;
    const std::int32_t* predicted;
    const std::int32_t* slot;
    const double* thr;
    const double* share;
    const double* counts;
    const double* totals;
  };
  View view() const;
  int classify_row(const View& t, const double* x) const;
  int predict_missing(const View& t, std::int32_t node,
                      const double* x) const;
  void blend(const View& t, std::int32_t node, const double* x,
             double weight, double* out) const;

  // Accessors into the single pool. Doubles and int32s share the 8-byte-
  // aligned uint64 storage; offsets are in uint64 words so default
  // copy/move keep every view valid.
  const double* thresholds() const {
    return reinterpret_cast<const double*>(pool_.data() + off_threshold_);
  }
  const double* left_shares() const {
    return reinterpret_cast<const double*>(pool_.data() + off_left_share_);
  }
  const double* leaf_counts() const {
    return reinterpret_cast<const double*>(pool_.data() + off_leaf_counts_);
  }
  const double* leaf_totals() const {
    return reinterpret_cast<const double*>(pool_.data() + off_leaf_total_);
  }
  const std::int32_t* ints(std::size_t off) const {
    return reinterpret_cast<const std::int32_t*>(pool_.data() + off);
  }
  const std::int32_t* attributes() const { return ints(off_attribute_); }
  const std::int32_t* lefts() const { return ints(off_left_); }
  const std::int32_t* rights() const { return ints(off_right_); }
  const std::int32_t* predictions() const { return ints(off_predicted_); }
  const std::int32_t* leaf_slots() const { return ints(off_leaf_slot_); }

  std::size_t count_ = 0;           ///< nodes, breadth-first; 0 == empty
  std::size_t leaves_ = 0;
  std::size_t num_classes_ = 0;
  std::size_t num_attributes_ = 0;

  std::size_t off_threshold_ = 0;   ///< double[count_]
  std::size_t off_left_share_ = 0;  ///< double[count_]; internal nodes only
  std::size_t off_leaf_counts_ = 0; ///< double[leaves_ * num_classes_]
  std::size_t off_leaf_total_ = 0;  ///< double[leaves_]
  std::size_t off_attribute_ = 0;   ///< int32[count_]
  std::size_t off_left_ = 0;        ///< int32[count_]; < 0 marks a leaf
  std::size_t off_right_ = 0;       ///< int32[count_]
  std::size_t off_predicted_ = 0;   ///< int32[count_]
  std::size_t off_leaf_slot_ = 0;   ///< int32[count_]; arena slot for leaves

  /// The single allocation backing every array above.
  std::vector<std::uint64_t> pool_;
};

}  // namespace fsml::ml
