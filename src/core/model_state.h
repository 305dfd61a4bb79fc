#ifndef KGREC_CORE_MODEL_STATE_H_
#define KGREC_CORE_MODEL_STATE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/serialize.h"
#include "core/status.h"
#include "math/matrix.h"
#include "nn/tensor.h"

namespace kgrec {

/// Direction-agnostic serialization of a model's learned state: each
/// Recommender implements one VisitState(StateVisitor*) that names every
/// persisted piece of state, and the same method both packs (Save) and
/// unpacks (Load) depending on the concrete visitor. Non-tensor state
/// that is deterministically rebuildable from the RecContext (ripple
/// sets, path contexts, KNN similarity lists, popularity counts) is NOT
/// visited — it is recomputed by PrepareLoad/FinishLoad instead.
///
/// Everything is stored as named float blobs in the checkpoint's tensor
/// section; integers are bit-cast into float storage (the archive writes
/// raw bytes, so the round-trip is exact).
class StateVisitor {
 public:
  virtual ~StateVisitor() = default;

  /// True while restoring (Load), false while packing (Save).
  virtual bool loading() const = 0;

  /// An nn::Tensor. Packing snapshots the data. Unpacking copies into the
  /// existing storage when `t` is defined (shape must match — layers
  /// constructed by PrepareLoad are restored in place, which keeps their
  /// internal parameter handles valid), and creates a fresh tensor of the
  /// stored shape when `t` is a null handle.
  virtual Status Tensor(const std::string& name, nn::Tensor* t) = 0;

  /// A plain Matrix; unpacking overwrites it with the stored shape.
  virtual Status Matrix(const std::string& name, kgrec::Matrix* m) = 0;

  /// A float vector; unpacking resizes to the stored length.
  virtual Status Floats(const std::string& name, std::vector<float>* v) = 0;

  /// An int32 vector, bit-cast into float storage.
  virtual Status Ints(const std::string& name, std::vector<int32_t>* v) = 0;

  /// A single float, stored as a [1, 1] entry.
  virtual Status Scalar(const std::string& name, float* v) = 0;

  /// A single int32 (bit-cast [1, 1] entry).
  Status Int(const std::string& name, int32_t* v);

  /// A parameter list (e.g. nn::Linear/GruCell/KgeModel Params()). The
  /// handles share storage with the owning module, so in-place unpacking
  /// restores the module itself; every handle must already be defined
  /// when loading (construct the module in PrepareLoad first).
  Status Params(const std::string& prefix, std::vector<nn::Tensor> params);

  /// A list of matrices, stored as "<prefix>.n" + "<prefix>.<i>".
  Status MatrixList(const std::string& prefix, std::vector<kgrec::Matrix>* ms);

  /// Ragged float rows, stored as bit-cast offsets + a flat value blob.
  Status RaggedFloats(const std::string& prefix,
                      std::vector<std::vector<float>>* rows);

  /// Ragged int32 rows (same layout as RaggedFloats).
  Status RaggedInts(const std::string& prefix,
                    std::vector<std::vector<int32_t>>* rows);
};

/// Save-direction visitor: collects the visited state as NamedTensors.
class StatePacker : public StateVisitor {
 public:
  bool loading() const override { return false; }
  Status Tensor(const std::string& name, nn::Tensor* t) override;
  Status Matrix(const std::string& name, kgrec::Matrix* m) override;
  Status Floats(const std::string& name, std::vector<float>* v) override;
  Status Ints(const std::string& name, std::vector<int32_t>* v) override;
  Status Scalar(const std::string& name, float* v) override;

  std::vector<NamedTensor> TakeTensors() { return std::move(tensors_); }

 private:
  Status Add(const std::string& name, size_t rows, size_t cols,
             const float* data);

  std::vector<NamedTensor> tensors_;
};

/// Load-direction visitor over a checkpoint's tensor section. Every
/// visited name must exist exactly once, and CheckFullyConsumed() fails
/// if the checkpoint carried entries the model never asked for — both
/// directions of drift produce a descriptive error instead of a model
/// that silently scores garbage.
class StateUnpacker : public StateVisitor {
 public:
  explicit StateUnpacker(std::vector<NamedTensor> tensors);

  bool loading() const override { return true; }
  Status Tensor(const std::string& name, nn::Tensor* t) override;
  Status Matrix(const std::string& name, kgrec::Matrix* m) override;
  Status Floats(const std::string& name, std::vector<float>* v) override;
  Status Ints(const std::string& name, std::vector<int32_t>* v) override;
  Status Scalar(const std::string& name, float* v) override;

  /// FailedPrecondition when any stored entry was never visited.
  Status CheckFullyConsumed() const;

 private:
  Status Find(const std::string& name, NamedTensor** out);

  std::vector<NamedTensor> tensors_;
  std::unordered_map<std::string, size_t> index_;
  std::vector<bool> consumed_;
};

/// Builds the deterministic "key=value;key=value" hyper-parameter
/// fingerprints stored in checkpoint headers (see
/// Recommender::HyperFingerprint). Floats are rendered with %.9g, which
/// round-trips every float exactly, so fingerprint equality means the
/// configs are numerically identical.
class FingerprintBuilder {
 public:
  FingerprintBuilder& Add(const char* key, double value);
  FingerprintBuilder& Add(const char* key, const std::string& value);

  std::string str() const { return out_; }

 private:
  std::string out_;
};

}  // namespace kgrec

#endif  // KGREC_CORE_MODEL_STATE_H_
