// From-scratch feed-forward neural network.
//
// The paper trains a 6-layer Keras/TensorFlow sequential model whose input
// is the 96-wide concatenation of two functions' 48 static features and
// whose output is the probability that the two functions come from the same
// source code (Figure 3/4). This module reimplements exactly that: dense
// layers with ReLU, a sigmoid head, binary cross-entropy loss, and Adam —
// CPU-only, deterministic from a seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/rng.h"

namespace patchecko {

/// Row-major dense matrix of float32 (training precision).
struct Matrix {
  std::size_t rows = 0;
  std::size_t cols = 0;
  std::vector<float> data;

  Matrix() = default;
  Matrix(std::size_t r, std::size_t c) : rows(r), cols(c), data(r * c, 0.f) {}

  float& at(std::size_t r, std::size_t c) { return data[r * cols + c]; }
  float at(std::size_t r, std::size_t c) const { return data[r * cols + c]; }
};

/// One fully connected layer with Adam state.
class DenseLayer {
 public:
  DenseLayer() = default;
  DenseLayer(std::size_t in_dim, std::size_t out_dim, Rng& rng);

  std::size_t in_dim() const { return in_dim_; }
  std::size_t out_dim() const { return out_dim_; }

  /// y = x W + b for a batch x (B x in).
  Matrix forward(const Matrix& x) const;

  /// Given dL/dy and the cached forward input, accumulates weight gradients
  /// and returns dL/dx.
  Matrix backward(const Matrix& x, const Matrix& grad_y);

  void adam_step(float lr, float beta1, float beta2, float eps, int t);
  void zero_grad();

  std::vector<float>& weights() { return w_.data; }
  const std::vector<float>& weights() const { return w_.data; }
  std::vector<float>& biases() { return b_; }
  const std::vector<float>& biases() const { return b_; }

 private:
  std::size_t in_dim_ = 0, out_dim_ = 0;
  Matrix w_;                  // in x out
  std::vector<float> b_;
  Matrix gw_;
  std::vector<float> gb_;
  Matrix mw_, vw_;            // Adam moments
  std::vector<float> mb_, vb_;
};

struct TrainConfig {
  float learning_rate = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float epsilon = 1e-8f;
  std::size_t batch_size = 64;
};

struct EpochStats {
  double loss = 0.0;
  double accuracy = 0.0;
};

/// The similarity classifier: Dense+ReLU stacks with a sigmoid head.
class Network {
 public:
  Network() = default;

  /// `dims` = {input, hidden..., 1}. The paper's shape is the default used
  /// by make_patchecko_model().
  Network(const std::vector<std::size_t>& dims, std::uint64_t seed);

  static Network make_patchecko_model(std::uint64_t seed,
                                      std::size_t input_dim = 96);

  /// Sigmoid outputs for a batch, one per row.
  std::vector<float> predict(const Matrix& x) const;

  /// One full pass over (x, y) in shuffled mini-batches; returns mean loss
  /// and accuracy. Labels are 0/1.
  EpochStats train_epoch(const Matrix& x, const std::vector<float>& y,
                         const TrainConfig& config, Rng& rng);

  /// Mean BCE loss + accuracy without updating weights.
  EpochStats evaluate(const Matrix& x, const std::vector<float>& y) const;

  const std::vector<DenseLayer>& layers() const { return layers_; }
  std::vector<DenseLayer>& layers() { return layers_; }

 private:
  Matrix forward_cached(const Matrix& x,
                        std::vector<Matrix>& activations) const;

  std::vector<DenseLayer> layers_;
  int adam_t_ = 0;
};

/// Area under the ROC curve via the rank statistic.
double auc_score(const std::vector<float>& scores,
                 const std::vector<float>& labels);

/// Classification accuracy at `threshold`.
double accuracy_score(const std::vector<float>& scores,
                      const std::vector<float>& labels,
                      float threshold = 0.5f);

}  // namespace patchecko
