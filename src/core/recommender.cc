#include "core/recommender.h"

#include <numeric>
#include <utility>

#include "core/model_state.h"
#include "core/serialize.h"

namespace kgrec {

std::vector<float> Recommender::ScoreItems(
    int32_t user, std::span<const int32_t> items) const {
  std::vector<float> scores(items.size());
  for (size_t i = 0; i < items.size(); ++i) {
    scores[i] = Score(user, items[i]);
  }
  return scores;
}

std::vector<float> Recommender::ScoreAll(int32_t user,
                                         int32_t num_items) const {
  std::vector<int32_t> items(num_items);
  std::iota(items.begin(), items.end(), 0);
  return ScoreItems(user, items);
}

Status Recommender::Update(const RecContext& /*context*/,
                           const EventBatch& /*batch*/) {
  return Status::Unimplemented("model '" + name() +
                               "' has no online update path");
}

Status Recommender::VisitState(StateVisitor* /*visitor*/) {
  return Status::FailedPrecondition("model '" + name() +
                                    "' does not support checkpointing");
}

Status Recommender::PrepareLoad(const RecContext& /*context*/) {
  return Status::OK();
}

Status Recommender::FinishLoad(const RecContext& /*context*/) {
  return Status::OK();
}

Status Recommender::PackState(CheckpointHeader* header,
                              std::vector<NamedTensor>* tensors) const {
  StatePacker packer;
  // VisitState is shared between the pack and unpack directions, so it
  // takes mutable pointers; the packing visitor only reads through them.
  KGREC_RETURN_IF_ERROR(
      const_cast<Recommender*>(this)->VisitState(&packer));
  header->model_name = name();
  header->fingerprint = HyperFingerprint();
  *tensors = packer.TakeTensors();
  return Status::OK();
}

Status Recommender::RestoreState(const RecContext& context,
                                 const CheckpointHeader& header,
                                 std::vector<NamedTensor> tensors,
                                 const std::string& source) {
  if (header.model_name != name()) {
    return Status::FailedPrecondition(
        "checkpoint was saved by model '" + header.model_name +
        "' but is being loaded into '" + name() + "': " + source);
  }
  if (header.fingerprint != HyperFingerprint()) {
    return Status::FailedPrecondition(
        "hyper-parameter fingerprint mismatch for '" + name() +
        "': checkpoint has [" + header.fingerprint + "], this instance has [" +
        HyperFingerprint() + "]: " + source);
  }
  KGREC_RETURN_IF_ERROR(PrepareLoad(context));
  StateUnpacker unpacker(std::move(tensors));
  KGREC_RETURN_IF_ERROR(VisitState(&unpacker));
  KGREC_RETURN_IF_ERROR(unpacker.CheckFullyConsumed());
  return FinishLoad(context);
}

Status Recommender::Save(const std::string& path) const {
  CheckpointHeader header;
  std::vector<NamedTensor> tensors;
  KGREC_RETURN_IF_ERROR(PackState(&header, &tensors));
  return SaveCheckpoint(path, header, tensors);
}

Status Recommender::Load(const RecContext& context, const std::string& path) {
  CheckpointHeader header;
  std::vector<NamedTensor> tensors;
  KGREC_RETURN_IF_ERROR(LoadCheckpoint(path, &header, &tensors));
  return RestoreState(context, header, std::move(tensors), path);
}

}  // namespace kgrec
