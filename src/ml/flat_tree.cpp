#include "ml/flat_tree.hpp"

#include <algorithm>
#include <cstring>
#include <limits>
#include <numeric>

#include "ml/dataset.hpp"
#include "util/check.hpp"

namespace fsml::ml {

namespace {

constexpr std::int32_t kLeafMark = -1;

/// uint64 words needed for `n` int32 slots.
std::size_t int_words(std::size_t n) { return (n + 1) / 2; }

}  // namespace

FlatTree FlatTree::compile(const C45Tree& tree) {
  const C45Tree::Node* root = tree.root();
  FSML_CHECK_MSG(root != nullptr, "cannot compile an untrained C45Tree");

  // Breadth-first node order: children are assigned the next free indices
  // as their parent is visited, so node 0 is the root, a level's nodes are
  // contiguous, and both children of one split are adjacent.
  std::vector<const C45Tree::Node*> order{root};
  order.reserve(tree.num_nodes());
  std::vector<std::int32_t> left_of{kLeafMark}, right_of{kLeafMark};
  left_of.reserve(tree.num_nodes());
  right_of.reserve(tree.num_nodes());
  for (std::size_t i = 0; i < order.size(); ++i) {
    const C45Tree::Node* node = order[i];
    if (node->is_leaf) continue;
    left_of[i] = static_cast<std::int32_t>(order.size());
    order.push_back(node->left.get());
    right_of[i] = static_cast<std::int32_t>(order.size());
    order.push_back(node->right.get());
    left_of.insert(left_of.end(), 2, kLeafMark);
    right_of.insert(right_of.end(), 2, kLeafMark);
  }
  FSML_CHECK_MSG(
      order.size() < static_cast<std::size_t>(
                         std::numeric_limits<std::int32_t>::max()),
      "tree too large to compile (node index must fit int32)");

  FlatTree out;
  out.count_ = order.size();
  out.num_classes_ = root->class_counts.size();
  out.num_attributes_ = tree.attribute_names().size();
  for (const C45Tree::Node* node : order)
    if (node->is_leaf) ++out.leaves_;

  // Single-allocation pool layout, in uint64 words.
  const std::size_t n = out.count_;
  const std::size_t iw = int_words(n);
  out.off_threshold_ = 0;
  out.off_left_share_ = n;
  out.off_leaf_counts_ = 2 * n;
  out.off_leaf_total_ = out.off_leaf_counts_ + out.leaves_ * out.num_classes_;
  out.off_attribute_ = out.off_leaf_total_ + out.leaves_;
  out.off_left_ = out.off_attribute_ + iw;
  out.off_right_ = out.off_left_ + iw;
  out.off_predicted_ = out.off_right_ + iw;
  out.off_leaf_slot_ = out.off_predicted_ + iw;
  out.pool_.assign(out.off_leaf_slot_ + iw, 0);

  auto* thresholds = reinterpret_cast<double*>(out.pool_.data());
  auto* left_shares =
      reinterpret_cast<double*>(out.pool_.data() + out.off_left_share_);
  auto* arena =
      reinterpret_cast<double*>(out.pool_.data() + out.off_leaf_counts_);
  auto* totals =
      reinterpret_cast<double*>(out.pool_.data() + out.off_leaf_total_);
  auto* attrs =
      reinterpret_cast<std::int32_t*>(out.pool_.data() + out.off_attribute_);
  auto* lefts =
      reinterpret_cast<std::int32_t*>(out.pool_.data() + out.off_left_);
  auto* rights =
      reinterpret_cast<std::int32_t*>(out.pool_.data() + out.off_right_);
  auto* predicted =
      reinterpret_cast<std::int32_t*>(out.pool_.data() + out.off_predicted_);
  auto* slots =
      reinterpret_cast<std::int32_t*>(out.pool_.data() + out.off_leaf_slot_);

  std::size_t next_slot = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const C45Tree::Node* node = order[i];
    lefts[i] = left_of[i];
    rights[i] = right_of[i];
    predicted[i] = node->predicted_class;
    if (node->is_leaf) {
      attrs[i] = 0;
      thresholds[i] = 0.0;
      left_shares[i] = 0.0;
      // Raw training counts, never pre-normalized ratios: the blend below
      // must evaluate weight * counts[k] / total in the pointer tree's
      // exact operation order to stay bit-identical.
      const std::size_t slot = next_slot++;
      slots[i] = static_cast<std::int32_t>(slot);
      std::memcpy(arena + slot * out.num_classes_, node->class_counts.data(),
                  out.num_classes_ * sizeof(double));
      totals[slot] = std::accumulate(node->class_counts.begin(),
                                     node->class_counts.end(), 0.0);
    } else {
      attrs[i] = static_cast<std::int32_t>(node->attribute);
      thresholds[i] = node->threshold;
      slots[i] = kLeafMark;
      // Precomputed NaN blend weight: identical every call, so hoisting it
      // out of the descent is exact (same accumulate order as
      // accumulate_distribution in c45.cpp).
      const double lw = std::accumulate(node->left->class_counts.begin(),
                                        node->left->class_counts.end(), 0.0);
      const double rw = std::accumulate(node->right->class_counts.begin(),
                                        node->right->class_counts.end(), 0.0);
      const double total = lw + rw;
      left_shares[i] = total > 0 ? lw / total : 0.5;
    }
  }
  FSML_DCHECK(next_slot == out.leaves_);
  return out;
}

FlatTree::View FlatTree::view() const {
  return View{attributes(), lefts(),      rights(),     predictions(),
              leaf_slots(), thresholds(), left_shares(), leaf_counts(),
              leaf_totals()};
}

void FlatTree::blend(const View& t, std::int32_t node, const double* x,
                     double weight, double* out) const {
  if (t.left[node] < 0) {  // leaf
    const std::int32_t slot = t.slot[node];
    const double total = t.totals[slot];
    const double* counts = t.counts + slot * num_classes_;
    if (total > 0) {
      for (std::size_t k = 0; k < num_classes_; ++k)
        out[k] += weight * counts[k] / total;
    } else {
      for (std::size_t k = 0; k < num_classes_; ++k)
        out[k] += weight / static_cast<double>(num_classes_);
    }
    return;
  }
  const double v = x[t.attr[node]];
  if (is_missing(v)) {
    const double left_share = t.share[node];
    blend(t, t.left[node], x, weight * left_share, out);
    blend(t, t.right[node], x, weight * (1.0 - left_share), out);
    return;
  }
  blend(t, v <= t.thr[node] ? t.left[node] : t.right[node], x, weight, out);
}

int FlatTree::predict_missing(const View& t, std::int32_t node,
                              const double* x) const {
  // The class arity is tiny (3 for the detector); a small stack buffer
  // keeps the NaN path allocation-free too.
  double inline_buf[16];
  std::vector<double> heap;
  double* dist = inline_buf;
  if (num_classes_ > 16) {
    heap.resize(num_classes_);
    dist = heap.data();
  }
  std::fill(dist, dist + num_classes_, 0.0);
  blend(t, node, x, 1.0, dist);
  return static_cast<int>(std::distance(
      dist, std::max_element(dist, dist + num_classes_)));
}

int FlatTree::classify_row(const View& t, const double* x) const {
  std::int32_t i = 0;
  while (t.left[i] >= 0) {
    const double v = x[t.attr[i]];
    if (is_missing(v)) return predict_missing(t, i, x);
    i = v <= t.thr[i] ? t.left[i] : t.right[i];
  }
  return t.predicted[i];
}

int FlatTree::predict(std::span<const double> x) const {
  FSML_CHECK_MSG(!empty(), "FlatTree is not compiled");
  FSML_CHECK_MSG(x.size() >= num_attributes_,
                 "feature vector shorter than the training schema");
  return classify_row(view(), x.data());
}

void FlatTree::classify_many(std::span<const double> xs, std::size_t stride,
                             std::span<int> out) const {
  FSML_CHECK_MSG(!empty(), "FlatTree is not compiled");
  FSML_CHECK_MSG(stride >= num_attributes_,
                 "classify_many stride shorter than the training schema");
  FSML_CHECK_MSG(xs.size() >= stride * out.size(),
                 "classify_many input block shorter than out.size() rows");
  // The batch win: the array pointers are derived once, into a View the
  // row loop keeps in registers. Deriving them per row (as the single-
  // vector predict must) costs more than a full descent on a shallow tree,
  // and the store to out[r] could alias pool_, so the compiler cannot
  // hoist member loads itself.
  const View t = view();
  const double* row = xs.data();
  for (std::size_t r = 0; r < out.size(); ++r, row += stride)
    out[r] = classify_row(t, row);
}

}  // namespace fsml::ml
