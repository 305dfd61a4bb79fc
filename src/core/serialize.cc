#include "core/serialize.h"

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>

namespace kgrec {
namespace {

constexpr char kCheckpointMagic[4] = {'K', 'G', 'R', 'C'};

struct FileCloser {
  void operator()(std::FILE* f) const {
    if (f != nullptr) std::fclose(f);
  }
};
using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

bool WriteBytes(std::FILE* f, const void* data, size_t size) {
  return std::fwrite(data, 1, size, f) == size;
}

bool ReadBytes(std::FILE* f, void* data, size_t size) {
  return std::fread(data, 1, size, f) == size;
}

/// Writes the count + entry sequence of a checkpoint's tensor section.
Status WriteTensorSection(std::FILE* f, const std::string& path,
                          const std::vector<NamedTensor>& tensors) {
  const uint32_t count = static_cast<uint32_t>(tensors.size());
  if (!WriteBytes(f, &count, sizeof(count))) {
    return Status::IoError("write failed: " + path);
  }
  for (const NamedTensor& t : tensors) {
    if (t.data.size() != t.rows * t.cols) {
      return Status::InvalidArgument("tensor '" + t.name +
                                     "' data does not match its shape");
    }
    const uint32_t name_len = static_cast<uint32_t>(t.name.size());
    const uint64_t rows = t.rows;
    const uint64_t cols = t.cols;
    if (!WriteBytes(f, &name_len, sizeof(name_len)) ||
        !WriteBytes(f, t.name.data(), name_len) ||
        !WriteBytes(f, &rows, sizeof(rows)) ||
        !WriteBytes(f, &cols, sizeof(cols)) ||
        !WriteBytes(f, t.data.data(), t.data.size() * sizeof(float))) {
      return Status::IoError("write failed: " + path);
    }
  }
  return Status::OK();
}

/// Reads the tensor section written by WriteTensorSection.
Status ReadTensorSection(std::FILE* f, const std::string& path,
                         std::vector<NamedTensor>* tensors) {
  uint32_t count = 0;
  if (!ReadBytes(f, &count, sizeof(count))) {
    return Status::IoError("truncated checkpoint: " + path);
  }
  tensors->clear();
  for (uint32_t i = 0; i < count; ++i) {
    NamedTensor t;
    uint32_t name_len = 0;
    uint64_t rows = 0, cols = 0;
    if (!ReadBytes(f, &name_len, sizeof(name_len))) {
      return Status::IoError("truncated checkpoint: " + path);
    }
    if (name_len > 4096) {
      return Status::InvalidArgument("corrupt checkpoint (name too long)");
    }
    t.name.resize(name_len);
    if (!ReadBytes(f, t.name.data(), name_len) ||
        !ReadBytes(f, &rows, sizeof(rows)) ||
        !ReadBytes(f, &cols, sizeof(cols))) {
      return Status::IoError("truncated checkpoint: " + path);
    }
    // Checked via division: `rows * cols` itself can wrap uint64 for a
    // corrupt header (e.g. rows = cols = 2^33) and sneak past a guard on
    // the product with a tiny bogus allocation.
    constexpr uint64_t kMaxElements = 1ull << 32;
    if (cols != 0 && rows > kMaxElements / cols) {
      return Status::InvalidArgument("corrupt checkpoint (blob too large)");
    }
    if (rows * cols > kMaxElements) {
      return Status::InvalidArgument("corrupt checkpoint (blob too large)");
    }
    t.rows = rows;
    t.cols = cols;
    t.data.resize(rows * cols);
    if (!ReadBytes(f, t.data.data(), t.data.size() * sizeof(float))) {
      return Status::IoError("truncated checkpoint: " + path);
    }
    tensors->push_back(std::move(t));
  }
  return Status::OK();
}

/// Atomic file write: runs `write_body` against "<path>.tmp", then
/// flushes, closes (checking both) and renames over `path`. Any failure
/// removes the temporary and leaves a pre-existing file at `path`
/// untouched, so a reported OK means the bytes are durably at `path` and
/// an error means the previous checkpoint (if any) is still intact.
template <typename WriteBody>
Status AtomicWrite(const std::string& path, const WriteBody& write_body) {
  const std::string tmp = path + ".tmp";
  std::FILE* raw = std::fopen(tmp.c_str(), "wb");
  if (raw == nullptr) {
    return Status::IoError("cannot open for writing: " + tmp);
  }
  Status status = write_body(raw);
  if (status.ok() && std::fflush(raw) != 0) {
    status = Status::IoError("flush failed: " + tmp);
  }
  // fclose() can surface deferred write errors (e.g. disk full); treating
  // it as void used to let a torn file masquerade as a good save.
  const int close_result = std::fclose(raw);
  if (status.ok() && close_result != 0) {
    status = Status::IoError("close failed: " + tmp);
  }
  if (!status.ok()) {
    std::remove(tmp.c_str());
    return status;
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("rename failed: " + tmp + " -> " + path);
  }
  return Status::OK();
}

/// Reads and validates the KGRC magic + typed header, leaving the stream
/// positioned at the tensor section.
Status ReadHeaderFrom(std::FILE* f, const std::string& path,
                      CheckpointHeader* header) {
  char magic[4];
  if (!ReadBytes(f, magic, sizeof(magic)) ||
      std::memcmp(magic, kCheckpointMagic, sizeof(kCheckpointMagic)) != 0) {
    return Status::InvalidArgument("not a KGRC checkpoint: " + path);
  }
  uint32_t version = 0;
  if (!ReadBytes(f, &version, sizeof(version))) {
    return Status::IoError("truncated checkpoint: " + path);
  }
  if (version != kCheckpointFormatVersion) {
    return Status::InvalidArgument(
        "unsupported checkpoint format version " + std::to_string(version) +
        " (this build reads version " +
        std::to_string(kCheckpointFormatVersion) + "): " + path);
  }
  header->format_version = version;
  for (std::string* field : {&header->model_name, &header->fingerprint}) {
    uint32_t len = 0;
    if (!ReadBytes(f, &len, sizeof(len))) {
      return Status::IoError("truncated checkpoint: " + path);
    }
    if (len > 4096) {
      return Status::InvalidArgument("corrupt checkpoint (header too long)");
    }
    field->resize(len);
    if (!ReadBytes(f, field->data(), len)) {
      return Status::IoError("truncated checkpoint: " + path);
    }
  }
  return Status::OK();
}

}  // namespace

Status SaveCheckpoint(const std::string& path, const CheckpointHeader& header,
                      const std::vector<NamedTensor>& tensors) {
  return AtomicWrite(path, [&](std::FILE* f) -> Status {
    const uint32_t version = kCheckpointFormatVersion;
    if (!WriteBytes(f, kCheckpointMagic, sizeof(kCheckpointMagic)) ||
        !WriteBytes(f, &version, sizeof(version))) {
      return Status::IoError("write failed: " + path);
    }
    for (const std::string* field : {&header.model_name,
                                     &header.fingerprint}) {
      const uint32_t len = static_cast<uint32_t>(field->size());
      if (!WriteBytes(f, &len, sizeof(len)) ||
          !WriteBytes(f, field->data(), len)) {
        return Status::IoError("write failed: " + path);
      }
    }
    return WriteTensorSection(f, path, tensors);
  });
}

Status LoadCheckpoint(const std::string& path, CheckpointHeader* header,
                      std::vector<NamedTensor>* tensors) {
  FilePtr f(std::fopen(path.c_str(), "rb"));
  if (f == nullptr) {
    return Status::IoError("cannot open for reading: " + path);
  }
  KGREC_RETURN_IF_ERROR(ReadHeaderFrom(f.get(), path, header));
  return ReadTensorSection(f.get(), path, tensors);
}

std::vector<NamedTensor> SnapshotParams(
    const std::vector<nn::Tensor>& params) {
  std::vector<NamedTensor> out;
  for (size_t i = 0; i < params.size(); ++i) {
    NamedTensor t;
    t.name = "param_" + std::to_string(i);
    t.rows = params[i].rows();
    t.cols = params[i].cols();
    t.data.assign(params[i].data(), params[i].data() + params[i].size());
    out.push_back(std::move(t));
  }
  return out;
}

Status RestoreParams(const std::vector<NamedTensor>& snapshot,
                     std::vector<nn::Tensor>* params) {
  if (snapshot.size() != params->size()) {
    return Status::FailedPrecondition("parameter count mismatch");
  }
  for (size_t i = 0; i < snapshot.size(); ++i) {
    nn::Tensor& p = (*params)[i];
    if (snapshot[i].rows != p.rows() || snapshot[i].cols != p.cols()) {
      return Status::FailedPrecondition("shape mismatch at " +
                                        snapshot[i].name);
    }
    std::copy(snapshot[i].data.begin(), snapshot[i].data.end(), p.data());
  }
  return Status::OK();
}

}  // namespace kgrec
