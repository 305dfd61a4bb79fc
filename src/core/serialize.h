#ifndef KGREC_CORE_SERIALIZE_H_
#define KGREC_CORE_SERIALIZE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/aligned.h"
#include "core/status.h"
#include "nn/tensor.h"

namespace kgrec {

/// One named, shaped float blob of a model's learned state. A list of
/// these, under a CheckpointHeader, is the one serialized form of model
/// state: Save/Load write and read it as a ".kgrc" file, and CloneModel
/// (core/registry.h) hands it from one instance to another in memory.
/// `data` is the aligned store an nn::Tensor keeps, so a restored
/// parameter adopts the buffer read from disk instead of copying it.
struct NamedTensor {
  std::string name;
  size_t rows = 0;
  size_t cols = 0;
  AlignedVector<float> data;
};

/// Current version of the model-checkpoint container format ("KGRC").
inline constexpr uint32_t kCheckpointFormatVersion = 1;

/// Typed header of a model checkpoint: identifies the concrete model, the
/// container format revision and the hyper-parameters the model was
/// trained with, so restore can reconstruct the right type and refuse
/// mismatched checkpoints with a clear Status instead of garbage scores.
struct CheckpointHeader {
  std::string model_name;
  /// Hyper-parameter fingerprint (Recommender::HyperFingerprint()).
  std::string fingerprint;
  uint32_t format_version = kCheckpointFormatVersion;
};

/// Model checkpoint ("KGRC" format): the typed header followed by the
/// tensor section. Layout: magic "KGRC", uint32 format version, uint32
/// name length + bytes, uint32 fingerprint length + bytes, uint32 tensor
/// count, then per tensor: uint32 name length + bytes, uint64 rows,
/// uint64 cols, rows*cols little-endian floats. Fails with
/// InvalidArgument when a tensor's data does not match its shape.
///
/// The write is atomic: bytes go to "<path>.tmp" and are renamed over
/// `path` only after a verified flush + close, so a crash mid-write or a
/// failed flush (disk full) can neither leave a torn checkpoint at
/// `path` nor clobber a previous good one.
Status SaveCheckpoint(const std::string& path, const CheckpointHeader& header,
                      const std::vector<NamedTensor>& tensors);

/// Reads a full checkpoint (header + tensors). Fails with IoError /
/// InvalidArgument on missing, truncated, corrupt or wrong-version files.
Status LoadCheckpoint(const std::string& path, CheckpointHeader* header,
                      std::vector<NamedTensor>* tensors);

/// Convenience: snapshots a list of parameters (e.g. KgeModel::Params())
/// with names "param_0", "param_1", ...
std::vector<NamedTensor> SnapshotParams(const std::vector<nn::Tensor>& params);

/// Restores a snapshot into existing parameters; shapes must match
/// exactly (FailedPrecondition otherwise).
Status RestoreParams(const std::vector<NamedTensor>& snapshot,
                     std::vector<nn::Tensor>* params);

}  // namespace kgrec

#endif  // KGREC_CORE_SERIALIZE_H_
