#include "router/smart_router.h"

#include <algorithm>

#include "common/rng.h"
#include "common/sim_clock.h"

namespace htapex {

SmartRouter::SmartRouter(uint64_t seed) : seed_(seed) {
  TreeCnn::Config config;
  config.feature_dim = kPlanFeatureDim;
  config.seed = seed;
  cnn_ = std::make_unique<TreeCnn>(config);
  RefreshFrozen();
}

void SmartRouter::RefreshFrozen() {
  // Build the snapshot off to the side, then publish it with one pointer
  // swap under the handoff mutex. Readers that grabbed the previous
  // snapshot keep it alive through their shared_ptr; nobody ever sees a
  // half-copied tensor.
  auto next =
      std::make_shared<const FrozenTreeCnn>(*cnn_, ++next_frozen_version_);
  std::lock_guard<std::mutex> lock(frozen_mu_);
  frozen_ = std::move(next);
}

Status SmartRouter::AdoptMaster(const TreeCnn& master) {
  const TreeCnn::Config& have = cnn_->config();
  const TreeCnn::Config& want = master.config();
  if (want.feature_dim != have.feature_dim || want.conv1 != have.conv1 ||
      want.conv2 != have.conv2 || want.embed != have.embed) {
    return Status::InvalidArgument(
        "AdoptMaster: architecture mismatch; serving model unchanged");
  }
  *cnn_ = master;
  RefreshFrozen();
  return Status::OK();
}

PairExample SmartRouter::MakeExample(const PlanPair& plans,
                                     EngineKind faster) const {
  PairExample ex;
  ex.tp = FeaturizePlan(plans.tp);
  ex.ap = FeaturizePlan(plans.ap);
  ex.label = faster == EngineKind::kAp ? 1 : 0;
  return ex;
}

RouterTrainStats SmartRouter::Train(const std::vector<PairExample>& dataset,
                                    int epochs, int batch_size,
                                    double learning_rate) {
  RouterTrainStats stats;
  if (dataset.empty()) return stats;
  WallTimer timer;
  Rng rng(seed_ ^ 0x5eed);
  std::vector<size_t> order(dataset.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  double loss = 0.0;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(&order);
    loss = 0.0;
    int batches = 0;
    for (size_t start = 0; start < order.size();
         start += static_cast<size_t>(batch_size)) {
      std::vector<const PairExample*> batch;
      for (size_t i = start;
           i < order.size() && i < start + static_cast<size_t>(batch_size);
           ++i) {
        batch.push_back(&dataset[order[i]]);
      }
      loss += cnn_->TrainBatch(batch, learning_rate);
      ++batches;
    }
    loss /= std::max(batches, 1);
  }
  RefreshFrozen();  // weights changed; EvaluateAccuracy below uses frozen
  stats.epochs = epochs;
  stats.final_loss = loss;
  stats.train_accuracy = EvaluateAccuracy(dataset);
  stats.wall_seconds = timer.ElapsedMillis() / 1000.0;
  return stats;
}

Status SmartRouter::Load(const std::string& path) {
  Status s = cnn_->Load(path);
  if (s.ok()) RefreshFrozen();
  return s;
}

void SmartRouter::CloneWeightsFrom(const SmartRouter& other) {
  *cnn_ = *other.cnn_;
  RefreshFrozen();
}

double SmartRouter::ApProbability(const PlanPair& plans) const {
  return frozen_snapshot()->PredictApFaster(FeaturizePlan(plans.tp),
                                            FeaturizePlan(plans.ap));
}

EngineKind SmartRouter::Route(const PlanPair& plans) const {
  return ApProbability(plans) >= 0.5 ? EngineKind::kAp : EngineKind::kTp;
}

std::vector<RoutedPair> SmartRouter::RouteBatch(
    const std::vector<const PlanPair*>& pairs) const {
  std::vector<RoutedPair> out(pairs.size());
  if (pairs.empty()) return out;
  std::vector<PlanTreeFeatures> features(2 * pairs.size());
  std::vector<const PlanTreeFeatures*> tps(pairs.size());
  std::vector<const PlanTreeFeatures*> aps(pairs.size());
  for (size_t i = 0; i < pairs.size(); ++i) {
    features[2 * i] = FeaturizePlan(pairs[i]->tp);
    features[2 * i + 1] = FeaturizePlan(pairs[i]->ap);
    tps[i] = &features[2 * i];
    aps[i] = &features[2 * i + 1];
  }
  std::vector<double> p_ap;
  std::vector<std::vector<double>> embeddings;
  // One load for the whole batch: every pair in this call is scored by the
  // same snapshot even if a hot-swap publishes mid-call.
  frozen_snapshot()->PredictBatch(tps, aps, &p_ap, &embeddings);
  for (size_t i = 0; i < pairs.size(); ++i) {
    out[i].p_ap = p_ap[i];
    out[i].route = p_ap[i] >= 0.5 ? EngineKind::kAp : EngineKind::kTp;
    out[i].embedding = std::move(embeddings[i]);
  }
  return out;
}

std::vector<double> SmartRouter::Embed(const PlanPair& plans) const {
  return EmbedFeatures(FeaturizePlan(plans.tp), FeaturizePlan(plans.ap));
}

std::vector<double> SmartRouter::EmbedFeatures(
    const PlanTreeFeatures& tp, const PlanTreeFeatures& ap) const {
  std::vector<double> embedding;
  frozen_snapshot()->PredictApFaster(tp, ap, &embedding);
  return embedding;
}

double SmartRouter::ApProbabilityMaster(const PlanPair& plans) const {
  return cnn_->PredictApFaster(FeaturizePlan(plans.tp),
                               FeaturizePlan(plans.ap));
}

std::vector<double> SmartRouter::EmbedMaster(const PlanPair& plans) const {
  std::vector<double> embedding;
  cnn_->PredictApFaster(FeaturizePlan(plans.tp), FeaturizePlan(plans.ap),
                        &embedding);
  return embedding;
}

double SmartRouter::EvaluateAccuracy(
    const std::vector<PairExample>& dataset) const {
  if (dataset.empty()) return 0.0;
  std::shared_ptr<const FrozenTreeCnn> frozen = frozen_snapshot();
  int correct = 0;
  for (const PairExample& ex : dataset) {
    double p = frozen->PredictApFaster(ex.tp, ex.ap);
    int pred = p >= 0.5 ? 1 : 0;
    if (pred == ex.label) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(dataset.size());
}

}  // namespace htapex
