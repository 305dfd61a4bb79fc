#include "nn/tensor.h"

#include <algorithm>
#include <unordered_set>

#include "core/check.h"
#include "math/kernels.h"

namespace kgrec::nn {

namespace internal {
namespace {

/// The shadow currently installed on this thread, if any. Plain reads
/// on the hot path: null means "no redirect" and GradBuf falls through
/// to the node's own buffer.
thread_local GradShadow* g_active_shadow = nullptr;

}  // namespace

void GradShadow::Attach(const std::vector<std::shared_ptr<Node>>& leaves) {
  leaves_.clear();
  buffers_.clear();
  index_.clear();
  leaves_.reserve(leaves.size());
  buffers_.reserve(leaves.size());
  for (const auto& leaf : leaves) {
    KGREC_CHECK(leaf != nullptr);
    KGREC_CHECK(leaf->requires_grad);
    // Leaves only: a node with a backward closure propagates gradients
    // itself and must not be redirected.
    KGREC_CHECK(!leaf->backward);
    // The real buffer must exist up front so AddTo() never allocates
    // and Backward()'s lazy allocation never touches a shadowed leaf.
    if (leaf->grad.size() != leaf->size()) {
      leaf->grad.assign(leaf->size(), 0.0f);
    }
    index_.emplace(leaf.get(), leaves_.size());
    leaves_.push_back(leaf);
    buffers_.emplace_back(leaf->size(), 0.0f);
  }
}

void GradShadow::Clear() {
  for (auto& buffer : buffers_) {
    std::fill(buffer.begin(), buffer.end(), 0.0f);
  }
}

void GradShadow::AddTo() {
  for (size_t i = 0; i < leaves_.size(); ++i) {
    // dst[j] += 1.0f * src[j] is bitwise dst[j] += src[j], so the shard
    // fold may use the shared Axpy kernel.
    kernels::Axpy(1.0f, buffers_[i].data(), leaves_[i]->grad.data(),
                  buffers_[i].size());
  }
}

GradShadow::ThreadScope::ThreadScope(GradShadow& shadow)
    : previous_(g_active_shadow) {
  g_active_shadow = &shadow;
}

GradShadow::ThreadScope::~ThreadScope() { g_active_shadow = previous_; }

float* GradBuf(Node& node) {
  GradShadow* shadow = g_active_shadow;
  if (shadow != nullptr) {
    auto it = shadow->index_.find(&node);
    if (it != shadow->index_.end()) return shadow->buffers_[it->second].data();
  }
  return node.grad.data();
}

}  // namespace internal

Tensor Tensor::Zeros(size_t rows, size_t cols, bool requires_grad) {
  auto node = std::make_shared<internal::Node>();
  node->rows = rows;
  node->cols = cols;
  node->data.assign(rows * cols, 0.0f);
  node->requires_grad = requires_grad;
  if (requires_grad) node->grad.assign(rows * cols, 0.0f);
  return Wrap(std::move(node));
}

Tensor Tensor::FromData(size_t rows, size_t cols, std::vector<float> data,
                        bool requires_grad) {
  KGREC_CHECK_EQ(data.size(), rows * cols);
  auto node = std::make_shared<internal::Node>();
  node->rows = rows;
  node->cols = cols;
  // Copy into the node's aligned store (the incoming vector's heap block
  // has no alignment guarantee, so it cannot be adopted).
  node->data.assign(data.begin(), data.end());
  node->requires_grad = requires_grad;
  if (requires_grad) node->grad.assign(rows * cols, 0.0f);
  return Wrap(std::move(node));
}

Tensor Tensor::FromAligned(size_t rows, size_t cols, AlignedVector<float> data,
                           bool requires_grad) {
  KGREC_CHECK_EQ(data.size(), rows * cols);
  auto node = std::make_shared<internal::Node>();
  node->rows = rows;
  node->cols = cols;
  node->data = std::move(data);
  node->requires_grad = requires_grad;
  return Wrap(std::move(node));
}

Tensor Tensor::Scalar(float value) { return FromData(1, 1, {value}); }

float* Tensor::GradBuffer() const {
  internal::Node& node = *node_;
  if (node.requires_grad && node.grad.size() != node.size()) {
    node.grad.assign(node.size(), 0.0f);
  }
  return node.grad.data();
}

float Tensor::value() const {
  KGREC_CHECK_EQ(size(), 1u);
  return node_->data[0];
}

void Tensor::ZeroGrad() {
  if (node_->requires_grad) {
    node_->grad.assign(node_->size(), 0.0f);
  }
}

Tensor Tensor::Wrap(std::shared_ptr<internal::Node> node) {
  Tensor t;
  t.node_ = std::move(node);
  return t;
}

void Backward(const Tensor& loss) {
  KGREC_CHECK(loss.defined());
  KGREC_CHECK_EQ(loss.size(), 1u);
  using internal::Node;
  // Iterative post-order DFS to topologically sort the graph.
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, size_t>> stack;
  stack.emplace_back(loss.node().get(), 0);
  visited.insert(loss.node().get());
  while (!stack.empty()) {
    auto& [node, next_child] = stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child->requires_grad && visited.insert(child).second) {
        stack.emplace_back(child, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // Seed and propagate in reverse topological order.
  Node* root = loss.node().get();
  if (root->grad.size() != root->size()) root->grad.assign(root->size(), 0.0f);
  root->grad[0] += 1.0f;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    Node* node = *it;
    if (node->backward) {
      for (auto& parent : node->parents) {
        if (parent->requires_grad && parent->grad.size() != parent->size()) {
          parent->grad.assign(parent->size(), 0.0f);
        }
      }
      node->backward(*node);
    }
  }
}

}  // namespace kgrec::nn
