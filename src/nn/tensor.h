#ifndef KGREC_NN_TENSOR_H_
#define KGREC_NN_TENSOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "core/aligned.h"

namespace kgrec::nn {

namespace internal {

/// A node in the dynamically-built computation graph. Holds the forward
/// value, the (lazily used) gradient buffer, the parent edges and the
/// function that pushes this node's gradient into its parents. Both
/// buffers are 64-byte aligned (core/aligned.h) so the kernel layer
/// sweeps cache-line-aligned memory.
struct Node {
  size_t rows = 0;
  size_t cols = 0;
  AlignedVector<float> data;
  AlignedVector<float> grad;
  bool requires_grad = false;
  std::vector<std::shared_ptr<Node>> parents;
  std::function<void(Node&)> backward;

  size_t size() const { return rows * cols; }
};

/// Redirects gradient accumulation for a fixed set of *leaf* nodes (the
/// optimizer parameters) into buffers private to one shard of a
/// minibatch, so several shards can run Backward() concurrently over
/// graphs that share the same parameter leaves.
///
/// Per-shard intermediates are never shared between threads; the only
/// state two concurrent Backward() calls both touch is the grad buffer
/// of a shared leaf. While a ThreadScope is installed, every backward
/// closure routes its writes through GradBuf(), which substitutes the
/// shard-private buffer for registered leaves; AddTo() then folds each
/// shard's buffer into the real grads in whatever (fixed) order the
/// caller chooses, making the reduction independent of thread count.
///
/// Only leaves may be registered: a registered node must have no
/// backward closure of its own (its gradient is only ever *written* by
/// its consumers); Attach allocates its grad buffer if nothing has yet.
class GradShadow {
 public:
  GradShadow() = default;

  /// Registers the leaves whose gradients this shadow captures and
  /// allocates one zero-filled private buffer per leaf. May be called
  /// again to re-attach to a different parameter set.
  void Attach(const std::vector<std::shared_ptr<Node>>& leaves);

  bool attached() const { return !leaves_.empty(); }

  /// Zero-fills every private buffer (cheap re-use between steps).
  void Clear();

  /// Adds every private buffer into its leaf's real grad buffer. Must
  /// not run while any thread still has a scope on this shadow; the
  /// call order across shadows defines the reduction order.
  void AddTo();

  /// While alive, Backward() on the constructing thread accumulates
  /// registered leaves' gradients into this shadow instead of the
  /// leaves' own grad buffers. Scopes nest (the previous redirect is
  /// restored on destruction).
  class ThreadScope {
   public:
    explicit ThreadScope(GradShadow& shadow);
    ~ThreadScope();
    ThreadScope(const ThreadScope&) = delete;
    ThreadScope& operator=(const ThreadScope&) = delete;

   private:
    GradShadow* previous_;
  };

 private:
  friend float* GradBuf(Node& node);

  std::vector<std::shared_ptr<Node>> leaves_;
  std::vector<AlignedVector<float>> buffers_;
  std::unordered_map<const Node*, size_t> index_;
};

/// The gradient accumulation buffer for `node` on the calling thread:
/// the active shadow's private buffer when a GradShadow::ThreadScope is
/// installed and `node` is registered with it, otherwise the node's own
/// grad buffer. Every backward closure obtains its parents' (and its
/// own) grad pointers through this helper.
float* GradBuf(Node& node);

}  // namespace internal

/// A 2-D float tensor participating in reverse-mode automatic
/// differentiation.
///
/// Tensor is a cheap value type (a shared handle to a graph node). All
/// tensors are matrices of shape [rows, cols]; vectors are represented as
/// [1, n] or [n, 1] and scalars as [1, 1]. Operations (see ops.h) build the
/// computation graph eagerly; Backward() then accumulates gradients into
/// every tensor created with requires_grad = true.
///
/// This engine is the library's substitute for libtorch: every surveyed
/// model is expressed in a handful of dense ops, and the engine is verified
/// against finite differences (see nn/gradcheck.h).
class Tensor {
 public:
  /// Creates a null tensor handle.
  Tensor() = default;

  /// Creates a zero-filled tensor.
  static Tensor Zeros(size_t rows, size_t cols, bool requires_grad = false);

  /// Creates a tensor taking ownership of the given row-major data
  /// (data.size() must equal rows * cols).
  static Tensor FromData(size_t rows, size_t cols, std::vector<float> data,
                         bool requires_grad = false);

  /// As FromData, but adopts the already aligned buffer without a copy
  /// and leaves the gradient buffer to its first use (see grad()): a
  /// restored model that only serves never allocates it.
  static Tensor FromAligned(size_t rows, size_t cols,
                            AlignedVector<float> data,
                            bool requires_grad = false);

  /// Creates a 1x1 constant.
  static Tensor Scalar(float value);

  bool defined() const { return node_ != nullptr; }
  size_t rows() const { return node_->rows; }
  size_t cols() const { return node_->cols; }
  size_t size() const { return node_->size(); }
  bool requires_grad() const { return node_->requires_grad; }

  float* data() { return node_->data.data(); }
  const float* data() const { return node_->data.data(); }

  /// Gradient buffer of a requires_grad tensor, allocated zero-filled on
  /// first use when the tensor has none yet (here, in Backward() or in
  /// GradShadow::Attach).
  float* grad() { return GradBuffer(); }
  const float* grad() const { return GradBuffer(); }

  /// Value of a 1x1 tensor.
  float value() const;

  /// Fills the gradient buffer with zeros.
  void ZeroGrad();

  /// Internal node accessor (used by ops.cc and the optimizers).
  const std::shared_ptr<internal::Node>& node() const { return node_; }

  /// Wraps an existing node.
  static Tensor Wrap(std::shared_ptr<internal::Node> node);

 private:
  float* GradBuffer() const;

  std::shared_ptr<internal::Node> node_;
};

/// Runs reverse-mode differentiation from the given scalar (1x1) loss,
/// accumulating into the grad buffers of all reachable requires_grad
/// tensors. Gradients accumulate across calls until ZeroGrad().
void Backward(const Tensor& loss);

}  // namespace kgrec::nn

#endif  // KGREC_NN_TENSOR_H_
