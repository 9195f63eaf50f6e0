#include "nn/tree_cnn.h"

#include <cmath>
#include <cstring>

#include "common/crc32.h"
#include "common/file_io.h"
#include "common/rng.h"

namespace htapex {

namespace {

/// y[0..cols) += x[0..rows) * W[rows x cols]
void MatVecAccum(const std::vector<double>& w, const double* x, int rows,
                 int cols, double* y) {
  for (int r = 0; r < rows; ++r) {
    double xv = x[r];
    if (xv == 0.0) continue;
    const double* wrow = &w[static_cast<size_t>(r * cols)];
    for (int c = 0; c < cols; ++c) y[c] += xv * wrow[c];
  }
}

/// dW[rows x cols] += x^T dy;  dx[0..rows) += W dy
void MatVecBackward(const std::vector<double>& w, std::vector<double>* dw,
                    const double* x, const double* dy, int rows, int cols,
                    double* dx) {
  for (int r = 0; r < rows; ++r) {
    const double* wrow = &w[static_cast<size_t>(r * cols)];
    double* dwrow = &(*dw)[static_cast<size_t>(r * cols)];
    double acc = 0;
    double xv = x[r];
    for (int c = 0; c < cols; ++c) {
      dwrow[c] += xv * dy[c];
      acc += wrow[c] * dy[c];
    }
    if (dx != nullptr) dx[r] += acc;
  }
}

void InitTensor(std::vector<double>* v, int fan_in, Rng* rng) {
  double scale = std::sqrt(2.0 / std::max(fan_in, 1));
  for (double& x : *v) x = rng->Normal(0.0, scale);
}

}  // namespace

TreeCnn::TreeCnn(const Config& config) : config_(config) {
  const int f = config.feature_dim;
  const int c1 = config.conv1;
  const int c2 = config.conv2;
  const int e = config.embed;
  ws1_.Resize(static_cast<size_t>(f * c1));
  wl1_.Resize(static_cast<size_t>(f * c1));
  wr1_.Resize(static_cast<size_t>(f * c1));
  b1_.Resize(static_cast<size_t>(c1));
  ws2_.Resize(static_cast<size_t>(c1 * c2));
  wl2_.Resize(static_cast<size_t>(c1 * c2));
  wr2_.Resize(static_cast<size_t>(c1 * c2));
  b2_.Resize(static_cast<size_t>(c2));
  we_.Resize(static_cast<size_t>(c2 * e));
  be_.Resize(static_cast<size_t>(e));
  wo_.Resize(static_cast<size_t>(2 * e * 2));
  bo_.Resize(2);
  Rng rng(config.seed);
  InitTensor(&ws1_.v, f, &rng);
  InitTensor(&wl1_.v, f, &rng);
  InitTensor(&wr1_.v, f, &rng);
  InitTensor(&ws2_.v, c1, &rng);
  InitTensor(&wl2_.v, c1, &rng);
  InitTensor(&wr2_.v, c1, &rng);
  InitTensor(&we_.v, c2, &rng);
  InitTensor(&wo_.v, 2 * e, &rng);
}

std::vector<TreeCnn::Tensor*> TreeCnn::AllTensors() {
  return {&ws1_, &wl1_, &wr1_, &b1_, &ws2_, &wl2_, &wr2_,
          &b2_,  &we_,  &be_,  &wo_, &bo_};
}

std::vector<const TreeCnn::Tensor*> TreeCnn::AllTensors() const {
  return {&ws1_, &wl1_, &wr1_, &b1_, &ws2_, &wl2_, &wr2_,
          &b2_,  &we_,  &be_,  &wo_, &bo_};
}

void TreeCnn::ForwardPlan(const PlanTreeFeatures& plan,
                          PlanActivations* acts) const {
  const int n = plan.num_nodes;
  const int f = config_.feature_dim;
  const int c1 = config_.conv1;
  const int c2 = config_.conv2;
  const int e = config_.embed;

  acts->h1.assign(static_cast<size_t>(n * c1), 0.0);
  for (int i = 0; i < n; ++i) {
    double* out = &acts->h1[static_cast<size_t>(i * c1)];
    for (int c = 0; c < c1; ++c) out[c] = b1_.v[static_cast<size_t>(c)];
    MatVecAccum(ws1_.v, &plan.x[static_cast<size_t>(i * f)], f, c1, out);
    if (plan.left[static_cast<size_t>(i)] >= 0) {
      MatVecAccum(wl1_.v,
                  &plan.x[static_cast<size_t>(plan.left[static_cast<size_t>(i)] * f)],
                  f, c1, out);
    }
    if (plan.right[static_cast<size_t>(i)] >= 0) {
      MatVecAccum(wr1_.v,
                  &plan.x[static_cast<size_t>(plan.right[static_cast<size_t>(i)] * f)],
                  f, c1, out);
    }
    for (int c = 0; c < c1; ++c) {
      if (out[c] < 0) out[c] = 0;
    }
  }

  acts->h2.assign(static_cast<size_t>(n * c2), 0.0);
  for (int i = 0; i < n; ++i) {
    double* out = &acts->h2[static_cast<size_t>(i * c2)];
    for (int c = 0; c < c2; ++c) out[c] = b2_.v[static_cast<size_t>(c)];
    MatVecAccum(ws2_.v, &acts->h1[static_cast<size_t>(i * c1)], c1, c2, out);
    if (plan.left[static_cast<size_t>(i)] >= 0) {
      MatVecAccum(
          wl2_.v,
          &acts->h1[static_cast<size_t>(plan.left[static_cast<size_t>(i)] * c1)],
          c1, c2, out);
    }
    if (plan.right[static_cast<size_t>(i)] >= 0) {
      MatVecAccum(
          wr2_.v,
          &acts->h1[static_cast<size_t>(plan.right[static_cast<size_t>(i)] * c1)],
          c1, c2, out);
    }
    for (int c = 0; c < c2; ++c) {
      if (out[c] < 0) out[c] = 0;
    }
  }

  // Dynamic max pooling over nodes.
  acts->pooled.assign(static_cast<size_t>(c2), 0.0);
  acts->pool_argmax.assign(static_cast<size_t>(c2), 0);
  for (int c = 0; c < c2; ++c) {
    double best = acts->h2[static_cast<size_t>(c)];
    int arg = 0;
    for (int i = 1; i < n; ++i) {
      double v = acts->h2[static_cast<size_t>(i * c2 + c)];
      if (v > best) {
        best = v;
        arg = i;
      }
    }
    acts->pooled[static_cast<size_t>(c)] = best;
    acts->pool_argmax[static_cast<size_t>(c)] = arg;
  }

  acts->embed.assign(static_cast<size_t>(e), 0.0);
  for (int j = 0; j < e; ++j) acts->embed[static_cast<size_t>(j)] = be_.v[static_cast<size_t>(j)];
  MatVecAccum(we_.v, acts->pooled.data(), c2, e, acts->embed.data());
  for (int j = 0; j < e; ++j) {
    if (acts->embed[static_cast<size_t>(j)] < 0) acts->embed[static_cast<size_t>(j)] = 0;
  }
}

void TreeCnn::BackwardPlan(const PlanTreeFeatures& plan,
                           const PlanActivations& acts,
                           const std::vector<double>& d_embed_in) {
  const int n = plan.num_nodes;
  const int f = config_.feature_dim;
  const int c1 = config_.conv1;
  const int c2 = config_.conv2;
  const int e = config_.embed;

  // Through the embedding ReLU.
  std::vector<double> d_embed = d_embed_in;
  for (int j = 0; j < e; ++j) {
    if (acts.embed[static_cast<size_t>(j)] <= 0) d_embed[static_cast<size_t>(j)] = 0;
  }
  // Dense layer backward.
  std::vector<double> d_pooled(static_cast<size_t>(c2), 0.0);
  MatVecBackward(we_.v, &we_.g, acts.pooled.data(), d_embed.data(), c2, e,
                 d_pooled.data());
  for (int j = 0; j < e; ++j) be_.g[static_cast<size_t>(j)] += d_embed[static_cast<size_t>(j)];

  // Unpool: gradient flows to the argmax node of each channel.
  std::vector<double> d_h2(static_cast<size_t>(n * c2), 0.0);
  for (int c = 0; c < c2; ++c) {
    d_h2[static_cast<size_t>(acts.pool_argmax[static_cast<size_t>(c)] * c2 + c)] +=
        d_pooled[static_cast<size_t>(c)];
  }

  // Conv layer 2 backward.
  std::vector<double> d_h1(static_cast<size_t>(n * c1), 0.0);
  for (int i = 0; i < n; ++i) {
    double* dy = &d_h2[static_cast<size_t>(i * c2)];
    // ReLU gate.
    for (int c = 0; c < c2; ++c) {
      if (acts.h2[static_cast<size_t>(i * c2 + c)] <= 0) dy[c] = 0;
    }
    for (int c = 0; c < c2; ++c) b2_.g[static_cast<size_t>(c)] += dy[c];
    MatVecBackward(ws2_.v, &ws2_.g, &acts.h1[static_cast<size_t>(i * c1)], dy,
                   c1, c2, &d_h1[static_cast<size_t>(i * c1)]);
    int l = plan.left[static_cast<size_t>(i)];
    if (l >= 0) {
      MatVecBackward(wl2_.v, &wl2_.g, &acts.h1[static_cast<size_t>(l * c1)], dy,
                     c1, c2, &d_h1[static_cast<size_t>(l * c1)]);
    }
    int r = plan.right[static_cast<size_t>(i)];
    if (r >= 0) {
      MatVecBackward(wr2_.v, &wr2_.g, &acts.h1[static_cast<size_t>(r * c1)], dy,
                     c1, c2, &d_h1[static_cast<size_t>(r * c1)]);
    }
  }

  // Conv layer 1 backward (input gradients discarded).
  for (int i = 0; i < n; ++i) {
    double* dy = &d_h1[static_cast<size_t>(i * c1)];
    for (int c = 0; c < c1; ++c) {
      if (acts.h1[static_cast<size_t>(i * c1 + c)] <= 0) dy[c] = 0;
    }
    for (int c = 0; c < c1; ++c) b1_.g[static_cast<size_t>(c)] += dy[c];
    MatVecBackward(ws1_.v, &ws1_.g, &plan.x[static_cast<size_t>(i * f)], dy, f,
                   c1, nullptr);
    int l = plan.left[static_cast<size_t>(i)];
    if (l >= 0) {
      MatVecBackward(wl1_.v, &wl1_.g, &plan.x[static_cast<size_t>(l * f)], dy,
                     f, c1, nullptr);
    }
    int r = plan.right[static_cast<size_t>(i)];
    if (r >= 0) {
      MatVecBackward(wr1_.v, &wr1_.g, &plan.x[static_cast<size_t>(r * f)], dy,
                     f, c1, nullptr);
    }
  }
}

double TreeCnn::PredictApFaster(const PlanTreeFeatures& tp,
                                const PlanTreeFeatures& ap,
                                std::vector<double>* pair_embedding) const {
  const int e = config_.embed;
  PlanActivations atp, aap;
  ForwardPlan(tp, &atp);
  ForwardPlan(ap, &aap);
  std::vector<double> z(static_cast<size_t>(2 * e));
  for (int j = 0; j < e; ++j) {
    z[static_cast<size_t>(j)] = atp.embed[static_cast<size_t>(j)];
    z[static_cast<size_t>(e + j)] = aap.embed[static_cast<size_t>(j)];
  }
  if (pair_embedding != nullptr) *pair_embedding = z;
  double logits[2] = {bo_.v[0], bo_.v[1]};
  MatVecAccum(wo_.v, z.data(), 2 * e, 2, logits);
  double m = std::max(logits[0], logits[1]);
  double e0 = std::exp(logits[0] - m);
  double e1 = std::exp(logits[1] - m);
  return e1 / (e0 + e1);
}

double TreeCnn::TrainBatch(const std::vector<const PairExample*>& batch,
                           double learning_rate) {
  ZeroGrad();
  const int e = config_.embed;
  double total_loss = 0.0;
  for (const PairExample* ex : batch) {
    PlanActivations atp, aap;
    ForwardPlan(ex->tp, &atp);
    ForwardPlan(ex->ap, &aap);
    std::vector<double> z(static_cast<size_t>(2 * e));
    for (int j = 0; j < e; ++j) {
      z[static_cast<size_t>(j)] = atp.embed[static_cast<size_t>(j)];
      z[static_cast<size_t>(e + j)] = aap.embed[static_cast<size_t>(j)];
    }
    double logits[2] = {bo_.v[0], bo_.v[1]};
    MatVecAccum(wo_.v, z.data(), 2 * e, 2, logits);
    double m = std::max(logits[0], logits[1]);
    double e0 = std::exp(logits[0] - m);
    double e1 = std::exp(logits[1] - m);
    double p1 = e1 / (e0 + e1);
    double p_label = ex->label == 1 ? p1 : 1.0 - p1;
    total_loss += -std::log(std::max(p_label, 1e-12));

    // dlogits = softmax - onehot.
    double dlogits[2] = {(1.0 - p1) - (ex->label == 0 ? 1.0 : 0.0),
                         p1 - (ex->label == 1 ? 1.0 : 0.0)};
    std::vector<double> dz(static_cast<size_t>(2 * e), 0.0);
    MatVecBackward(wo_.v, &wo_.g, z.data(), dlogits, 2 * e, 2, dz.data());
    bo_.g[0] += dlogits[0];
    bo_.g[1] += dlogits[1];

    std::vector<double> d_tp(dz.begin(), dz.begin() + e);
    std::vector<double> d_ap(dz.begin() + e, dz.end());
    BackwardPlan(ex->tp, atp, d_tp);
    BackwardPlan(ex->ap, aap, d_ap);
  }
  // Mean gradients.
  double inv = 1.0 / static_cast<double>(std::max<size_t>(batch.size(), 1));
  for (Tensor* t : AllTensors()) {
    for (double& g : t->g) g *= inv;
  }
  AdamStep(learning_rate);
  return total_loss * inv;
}

void TreeCnn::ZeroGrad() {
  for (Tensor* t : AllTensors()) {
    std::fill(t->g.begin(), t->g.end(), 0.0);
  }
}

void TreeCnn::AdamStep(double lr) {
  constexpr double kBeta1 = 0.9;
  constexpr double kBeta2 = 0.999;
  constexpr double kEps = 1e-8;
  ++adam_t_;
  double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(adam_t_));
  double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(adam_t_));
  for (Tensor* t : AllTensors()) {
    for (size_t i = 0; i < t->v.size(); ++i) {
      t->m[i] = kBeta1 * t->m[i] + (1 - kBeta1) * t->g[i];
      t->s[i] = kBeta2 * t->s[i] + (1 - kBeta2) * t->g[i] * t->g[i];
      double mhat = t->m[i] / bc1;
      double shat = t->s[i] / bc2;
      t->v[i] -= lr * mhat / (std::sqrt(shat) + kEps);
    }
  }
}

size_t TreeCnn::NumParameters() const {
  size_t n = 0;
  for (const Tensor* t : AllTensors()) n += t->v.size();
  return n;
}

size_t TreeCnn::ByteSize() const { return NumParameters() * sizeof(double); }

size_t TreeCnn::FrozenByteSize() const {
  return NumParameters() * sizeof(float);
}

Status TreeCnn::Save(const std::string& path) const {
  // Header + tensors + CRC32 footer, written atomically: a full disk or a
  // crash leaves either the previous good model or the complete new one,
  // and Load detects any torn/bit-rotted file via the checksum.
  int32_t header[4] = {config_.feature_dim, config_.conv1, config_.conv2,
                       config_.embed};
  std::string bytes(reinterpret_cast<const char*>(header), sizeof(header));
  for (const Tensor* t : AllTensors()) {
    bytes.append(reinterpret_cast<const char*>(t->v.data()),
                 t->v.size() * sizeof(double));
  }
  uint32_t crc = Crc32(bytes);
  bytes.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  return WriteFileAtomic(path, bytes);
}

Status TreeCnn::Load(const std::string& path) {
  std::string bytes;
  HTAPEX_ASSIGN_OR_RETURN(bytes, ReadFile(path));
  int32_t header[4];
  if (bytes.size() < sizeof(header)) {
    return Status::IoError("truncated model file: " + path);
  }
  std::memcpy(header, bytes.data(), sizeof(header));
  if (header[0] != config_.feature_dim || header[1] != config_.conv1 ||
      header[2] != config_.conv2 || header[3] != config_.embed) {
    return Status::InvalidArgument("model dimensions do not match: " + path);
  }
  const size_t body = sizeof(header) + ByteSize();
  if (bytes.size() != body + sizeof(uint32_t)) {
    return Status::IoError("model file size mismatch: " + path);
  }
  uint32_t stored_crc = 0;
  std::memcpy(&stored_crc, bytes.data() + body, sizeof(stored_crc));
  if (stored_crc != Crc32(std::string_view(bytes).substr(0, body))) {
    return Status::IoError("model file CRC32 mismatch: " + path);
  }
  // Only a verified file reaches the live tensors, so a bad one never
  // leaves the model half-overwritten.
  size_t offset = sizeof(header);
  for (Tensor* t : AllTensors()) {
    std::memcpy(t->v.data(), bytes.data() + offset,
                t->v.size() * sizeof(double));
    offset += t->v.size() * sizeof(double);
  }
  return Status::OK();
}

}  // namespace htapex
