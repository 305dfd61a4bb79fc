#include "core/model_state.h"

#include <cstdio>
#include <cstring>
#include <span>

namespace kgrec {
namespace {

/// int32 <-> float bit-cast helpers. The archive stores raw bytes, so
/// reinterpreting the bit pattern round-trips every value exactly
/// (a value-level float conversion would corrupt ints above 2^24).
std::vector<float> IntsToBits(const std::vector<int32_t>& v) {
  std::vector<float> bits(v.size());
  if (!v.empty()) std::memcpy(bits.data(), v.data(), v.size() * sizeof(float));
  return bits;
}

std::vector<int32_t> BitsToInts(std::span<const float> bits) {
  std::vector<int32_t> v(bits.size());
  if (!bits.empty()) {
    std::memcpy(v.data(), bits.data(), bits.size() * sizeof(float));
  }
  return v;
}

}  // namespace

Status StateVisitor::Int(const std::string& name, int32_t* v) {
  std::vector<int32_t> one{*v};
  KGREC_RETURN_IF_ERROR(Ints(name, &one));
  if (loading()) {
    if (one.size() != 1) {
      return Status::FailedPrecondition("checkpoint entry '" + name +
                                        "' is not a scalar");
    }
    *v = one[0];
  }
  return Status::OK();
}

Status StateVisitor::Params(const std::string& prefix,
                            std::vector<nn::Tensor> params) {
  for (size_t i = 0; i < params.size(); ++i) {
    if (loading() && !params[i].defined()) {
      return Status::Internal("parameter " + prefix + "." +
                              std::to_string(i) +
                              " was not constructed before restore");
    }
    KGREC_RETURN_IF_ERROR(Tensor(prefix + "." + std::to_string(i),
                                 &params[i]));
  }
  return Status::OK();
}

Status StateVisitor::MatrixList(const std::string& prefix,
                                std::vector<kgrec::Matrix>* ms) {
  int32_t count = static_cast<int32_t>(ms->size());
  KGREC_RETURN_IF_ERROR(Int(prefix + ".n", &count));
  if (loading()) {
    if (count < 0) {
      return Status::FailedPrecondition("negative list length at " + prefix);
    }
    ms->assign(static_cast<size_t>(count), kgrec::Matrix());
  }
  for (size_t i = 0; i < ms->size(); ++i) {
    KGREC_RETURN_IF_ERROR(Matrix(prefix + "." + std::to_string(i),
                                 &(*ms)[i]));
  }
  return Status::OK();
}

Status StateVisitor::RaggedFloats(const std::string& prefix,
                                  std::vector<std::vector<float>>* rows) {
  std::vector<int32_t> offsets;
  std::vector<float> values;
  if (!loading()) {
    offsets.reserve(rows->size() + 1);
    offsets.push_back(0);
    for (const std::vector<float>& row : *rows) {
      values.insert(values.end(), row.begin(), row.end());
      offsets.push_back(static_cast<int32_t>(values.size()));
    }
  }
  KGREC_RETURN_IF_ERROR(Ints(prefix + ".offsets", &offsets));
  KGREC_RETURN_IF_ERROR(Floats(prefix + ".values", &values));
  if (loading()) {
    if (offsets.empty() || offsets.front() != 0 ||
        offsets.back() != static_cast<int32_t>(values.size())) {
      return Status::FailedPrecondition("corrupt ragged section at " + prefix);
    }
    rows->clear();
    for (size_t i = 0; i + 1 < offsets.size(); ++i) {
      if (offsets[i] > offsets[i + 1]) {
        return Status::FailedPrecondition("corrupt ragged section at " +
                                          prefix);
      }
      rows->emplace_back(values.begin() + offsets[i],
                         values.begin() + offsets[i + 1]);
    }
  }
  return Status::OK();
}

Status StateVisitor::RaggedInts(const std::string& prefix,
                                std::vector<std::vector<int32_t>>* rows) {
  // Reuses the float layout through the bit-cast: pack to ragged floats,
  // visit, and cast back per row on load.
  std::vector<std::vector<float>> bit_rows;
  if (!loading()) {
    bit_rows.reserve(rows->size());
    for (const std::vector<int32_t>& row : *rows) {
      bit_rows.push_back(IntsToBits(row));
    }
  }
  KGREC_RETURN_IF_ERROR(RaggedFloats(prefix, &bit_rows));
  if (loading()) {
    rows->clear();
    rows->reserve(bit_rows.size());
    for (const std::vector<float>& row : bit_rows) {
      rows->push_back(BitsToInts(row));
    }
  }
  return Status::OK();
}

// ---- StatePacker ------------------------------------------------------

Status StatePacker::Add(const std::string& name, size_t rows, size_t cols,
                        const float* data) {
  NamedTensor t;
  t.name = name;
  t.rows = rows;
  t.cols = cols;
  t.data.assign(data, data + rows * cols);
  tensors_.push_back(std::move(t));
  return Status::OK();
}

Status StatePacker::Tensor(const std::string& name, nn::Tensor* t) {
  if (!t->defined()) {
    return Status::FailedPrecondition("cannot save undefined tensor '" +
                                      name + "' (model not fitted?)");
  }
  return Add(name, t->rows(), t->cols(), t->data());
}

Status StatePacker::Matrix(const std::string& name, kgrec::Matrix* m) {
  return Add(name, m->rows(), m->cols(), m->data());
}

Status StatePacker::Floats(const std::string& name, std::vector<float>* v) {
  return Add(name, 1, v->size(), v->data());
}

Status StatePacker::Ints(const std::string& name, std::vector<int32_t>* v) {
  const std::vector<float> bits = IntsToBits(*v);
  return Add(name, 1, bits.size(), bits.data());
}

Status StatePacker::Scalar(const std::string& name, float* v) {
  return Add(name, 1, 1, v);
}

// ---- StateUnpacker ----------------------------------------------------

StateUnpacker::StateUnpacker(std::vector<NamedTensor> tensors)
    : tensors_(std::move(tensors)), consumed_(tensors_.size(), false) {
  for (size_t i = 0; i < tensors_.size(); ++i) {
    index_.emplace(tensors_[i].name, i);
  }
}

Status StateUnpacker::Find(const std::string& name, NamedTensor** out) {
  auto it = index_.find(name);
  if (it == index_.end()) {
    return Status::FailedPrecondition("checkpoint is missing entry '" + name +
                                      "'");
  }
  consumed_[it->second] = true;
  *out = &tensors_[it->second];
  return Status::OK();
}

Status StateUnpacker::Tensor(const std::string& name, nn::Tensor* t) {
  NamedTensor* entry = nullptr;
  KGREC_RETURN_IF_ERROR(Find(name, &entry));
  if (entry->data.size() != entry->rows * entry->cols) {
    return Status::FailedPrecondition("checkpoint entry '" + name +
                                      "' read twice");
  }
  if (t->defined()) {
    if (t->rows() != entry->rows || t->cols() != entry->cols) {
      return Status::FailedPrecondition(
          "shape mismatch at '" + name + "': checkpoint has " +
          std::to_string(entry->rows) + "x" + std::to_string(entry->cols) +
          ", model has " + std::to_string(t->rows()) + "x" +
          std::to_string(t->cols()));
    }
    std::copy(entry->data.begin(), entry->data.end(), t->data());
  } else {
    // The tensor adopts the entry's aligned buffer: no copy of the table.
    *t = nn::Tensor::FromAligned(entry->rows, entry->cols,
                                 std::move(entry->data),
                                 /*requires_grad=*/true);
  }
  return Status::OK();
}

Status StateUnpacker::Matrix(const std::string& name, kgrec::Matrix* m) {
  NamedTensor* entry = nullptr;
  KGREC_RETURN_IF_ERROR(Find(name, &entry));
  kgrec::Matrix restored(entry->rows, entry->cols);
  std::copy(entry->data.begin(), entry->data.end(), restored.data());
  *m = std::move(restored);
  return Status::OK();
}

Status StateUnpacker::Floats(const std::string& name, std::vector<float>* v) {
  NamedTensor* entry = nullptr;
  KGREC_RETURN_IF_ERROR(Find(name, &entry));
  v->assign(entry->data.begin(), entry->data.end());
  return Status::OK();
}

Status StateUnpacker::Ints(const std::string& name, std::vector<int32_t>* v) {
  NamedTensor* entry = nullptr;
  KGREC_RETURN_IF_ERROR(Find(name, &entry));
  *v = BitsToInts(entry->data);
  return Status::OK();
}

Status StateUnpacker::Scalar(const std::string& name, float* v) {
  NamedTensor* entry = nullptr;
  KGREC_RETURN_IF_ERROR(Find(name, &entry));
  if (entry->data.size() != 1) {
    return Status::FailedPrecondition("checkpoint entry '" + name +
                                      "' is not a scalar");
  }
  *v = entry->data[0];
  return Status::OK();
}

Status StateUnpacker::CheckFullyConsumed() const {
  for (size_t i = 0; i < tensors_.size(); ++i) {
    if (!consumed_[i]) {
      return Status::FailedPrecondition(
          "checkpoint carries entry '" + tensors_[i].name +
          "' that this model does not know — model/version mismatch?");
    }
  }
  return Status::OK();
}

// ---- FingerprintBuilder -----------------------------------------------

FingerprintBuilder& FingerprintBuilder::Add(const char* key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  if (!out_.empty()) out_ += ';';
  out_ += key;
  out_ += '=';
  out_ += buf;
  return *this;
}

FingerprintBuilder& FingerprintBuilder::Add(const char* key,
                                            const std::string& value) {
  if (!out_.empty()) out_ += ';';
  out_ += key;
  out_ += '=';
  out_ += value;
  return *this;
}

}  // namespace kgrec
