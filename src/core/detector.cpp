#include "core/detector.hpp"

#include <array>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "ml/io.hpp"
#include "util/check.hpp"

namespace fsml::core {

void RobustConfig::validate() const {
  if (repeats < 1 || repeats > 1001)
    throw std::runtime_error("RobustConfig: repeats must be in 1..1001");
  if (std::isnan(min_confidence) || min_confidence < 0.0 ||
      min_confidence > 1.0)
    throw std::runtime_error(
        "RobustConfig: min_confidence must be in [0, 1]");
}

std::string RobustVerdict::to_string() const {
  std::ostringstream os;
  if (known) {
    os << trainers::to_string(mode) << " (confidence " << confidence << ", "
       << votes[static_cast<std::size_t>(label_of(mode))] << '/' << repeats
       << " runs)";
  } else {
    os << "unknown (" << classified << '/' << repeats
       << " runs classified)";
  }
  return os.str();
}

FalseSharingDetector::FalseSharingDetector(ml::C45Params params)
    : tree_(params) {}

void FalseSharingDetector::train(const TrainingData& data) {
  train(data.to_dataset());
}

void FalseSharingDetector::train(const ml::Dataset& dataset) {
  FSML_CHECK_MSG(dataset.num_attributes() == pmu::kNumFeatures,
                 "detector expects the 15 normalized Westmere features");
  tree_.train(dataset);
  flat_ = ml::FlatTree::compile(tree_);
  trained_ = true;
}

trainers::Mode FalseSharingDetector::classify(
    const pmu::FeatureVector& features) const {
  FSML_CHECK_MSG(trained_, "detector is not trained");
  const int label = flat_.predict(features.values());
  // The pointer tree stays the test oracle: debug builds verify every flat
  // lookup against it, like the coherence directory verifies against the
  // snoop scan.
  FSML_DCHECK(label == tree_.predict(features.values()));
  return mode_of(label);
}

RobustVerdict FalseSharingDetector::classify_robust(
    const MeasureFn& measure, const RobustConfig& config) const {
  FSML_CHECK_MSG(trained_, "detector is not trained");
  config.validate();

  RobustVerdict out;
  out.repeats = static_cast<std::size_t>(config.repeats);

  // Gather every usable measurement into one contiguous row-major block so
  // the classify stage runs once over the batch (and so the vote loop does
  // no per-measurement allocation — the old path built a distribution
  // vector per NaN descent).
  std::vector<double> rows;
  rows.reserve(out.repeats * pmu::kNumFeatures);
  for (std::size_t r = 0; r < out.repeats; ++r) {
    const std::optional<pmu::FeatureVector> features = measure(r);
    if (!features) continue;  // unusable measurement; retry bounded by loop
    rows.insert(rows.end(), features->values().begin(),
                features->values().end());
    ++out.classified;
  }
  if (out.classified == 0) return out;  // nothing usable: unknown

  std::vector<int> labels(out.classified);
  flat_.classify_many(rows, pmu::kNumFeatures, labels);
#ifndef NDEBUG
  // Per-lookup cross-check against the pointer-tree oracle.
  for (std::size_t r = 0; r < labels.size(); ++r)
    FSML_DCHECK(labels[r] ==
                tree_.predict(std::span<const double>(rows).subspan(
                    r * pmu::kNumFeatures, pmu::kNumFeatures)));
#endif
  for (const int label : labels)
    ++out.votes[static_cast<std::size_t>(label)];

  // Same severity-ordered scan as majority(): ties go to the worse verdict.
  const std::array<int, 3> severity_order = {kBadFs, kBadMa, kGood};
  int best = kGood;
  std::size_t best_count = 0;
  for (const int label : severity_order) {
    if (out.votes[static_cast<std::size_t>(label)] > best_count) {
      best = label;
      best_count = out.votes[static_cast<std::size_t>(label)];
    }
  }
  out.confidence = static_cast<double>(best_count) /
                   static_cast<double>(out.classified);
  if (out.confidence >= config.min_confidence) {
    out.known = true;
    out.mode = mode_of(best);
  }
  return out;
}

trainers::Mode FalseSharingDetector::majority(
    const std::vector<trainers::Mode>& verdicts) {
  FSML_CHECK_MSG(!verdicts.empty(), "majority of zero verdicts");
  std::array<std::size_t, 3> counts{};
  for (const trainers::Mode v : verdicts)
    ++counts[static_cast<std::size_t>(label_of(v))];
  // Scan in severity order bad-fs, bad-ma, good so ties resolve to the
  // worse verdict.
  const std::array<int, 3> severity_order = {kBadFs, kBadMa, kGood};
  int best = kGood;
  std::size_t best_count = 0;
  for (const int label : severity_order) {
    if (counts[static_cast<std::size_t>(label)] > best_count) {
      best = label;
      best_count = counts[static_cast<std::size_t>(label)];
    }
  }
  return mode_of(best);
}

void FalseSharingDetector::save(std::ostream& os) const {
  FSML_CHECK_MSG(trained_, "cannot save an untrained detector");
  tree_.save(os);
}

FalseSharingDetector FalseSharingDetector::load(std::istream& is) {
  FalseSharingDetector detector;
  detector.tree_ = ml::C45Tree::load(is);
  // Model files persist only the pointer tree; the flat serving form is
  // always recompiled from it on load (single source of truth).
  detector.flat_ = ml::FlatTree::compile(detector.tree_);
  detector.trained_ = true;
  return detector;
}

void FalseSharingDetector::save_file(const std::string& path) const {
  FSML_CHECK_MSG(trained_, "cannot save an untrained detector");
  // Versioned + checksummed container, written atomically: a crash mid-save
  // leaves the previous model intact, and a torn or corrupt file is
  // rejected at load time instead of silently mis-predicting.
  ml::save_model_file(tree_, path);
}

FalseSharingDetector FalseSharingDetector::load_file(const std::string& path) {
  FalseSharingDetector detector;
  detector.tree_ = ml::load_model_file(path);
  if (pmu::FeatureVector::feature_names() != detector.tree_.attribute_names())
    throw std::runtime_error(
        path + ": model was trained with a different feature schema than "
               "this build expects — retrain with `fsml_analyze train "
               "--save-model=" + path + "`");
  detector.flat_ = ml::FlatTree::compile(detector.tree_);
  detector.trained_ = true;
  return detector;
}

RobustVerdict classify_degraded(const FalseSharingDetector& detector,
                                const exec::RunResult& run,
                                const pmu::MeasurementModel& model,
                                const RobustConfig& config,
                                std::uint64_t measurement_base) {
  return detector.classify_robust(
      [&](std::size_t r) -> std::optional<pmu::FeatureVector> {
        const pmu::DegradedSnapshot snapshot =
            model.measure(run.aggregate, run.slices, measurement_base + r);
        if (!snapshot.usable()) return std::nullopt;
        return snapshot.to_features();
      },
      config);
}

}  // namespace fsml::core
