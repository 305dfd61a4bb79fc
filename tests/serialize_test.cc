// Tests of the KGRC checkpoint container (core/serialize.h): the
// header + tensor-section round trip and every corruption check on the
// read path, the atomic-write guarantee and the KGE parameter restore.

#include <gtest/gtest.h>

#include <cstdio>
#include <sys/stat.h>
#include <unistd.h>

#include "core/serialize.h"
#include "graph/knowledge_graph.h"
#include "kge/kge_model.h"
#include "kge/kge_trainer.h"

namespace kgrec {
namespace {

std::string TempPath(const char* name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

CheckpointHeader TestHeader() {
  CheckpointHeader header;
  header.model_name = "TestModel";
  header.fingerprint = "dim=2;";
  return header;
}

TEST(Serialize, RoundTripNamedTensors) {
  const std::string path = TempPath("roundtrip.kgrc");
  std::vector<NamedTensor> original;
  original.push_back({"alpha", 2, 3, {1, 2, 3, 4, 5, 6}});
  original.push_back({"beta", 1, 1, {-0.5f}});
  ASSERT_TRUE(SaveCheckpoint(path, TestHeader(), original).ok());
  CheckpointHeader header;
  std::vector<NamedTensor> loaded;
  ASSERT_TRUE(LoadCheckpoint(path, &header, &loaded).ok());
  EXPECT_EQ(header.model_name, "TestModel");
  EXPECT_EQ(header.fingerprint, "dim=2;");
  EXPECT_EQ(header.format_version, kCheckpointFormatVersion);
  ASSERT_EQ(loaded.size(), 2u);
  EXPECT_EQ(loaded[0].name, "alpha");
  EXPECT_EQ(loaded[0].rows, 2u);
  EXPECT_EQ(loaded[0].cols, 3u);
  EXPECT_EQ(loaded[0].data, original[0].data);
  EXPECT_EQ(loaded[1].name, "beta");
  EXPECT_FLOAT_EQ(loaded[1].data[0], -0.5f);
  std::remove(path.c_str());
}

TEST(Serialize, MissingFileIsIoError) {
  CheckpointHeader header;
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(
      LoadCheckpoint("/nonexistent/dir/x.kgrc", &header, &loaded).code(),
      StatusCode::kIoError);
}

TEST(Serialize, CorruptMagicIsInvalidArgument) {
  const std::string path = TempPath("corrupt.kgrc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite("NOPE", 1, 4, f);
  std::fclose(f);
  CheckpointHeader header;
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(LoadCheckpoint(path, &header, &loaded).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, TruncatedCheckpointIsIoError) {
  const std::string path = TempPath("truncated.kgrc");
  std::vector<NamedTensor> original{{"x", 4, 4, AlignedVector<float>(16, 1.0f)}};
  ASSERT_TRUE(SaveCheckpoint(path, TestHeader(), original).ok());
  // Truncate the file mid-blob.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size - 8), 0);
  CheckpointHeader header;
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(LoadCheckpoint(path, &header, &loaded).code(),
            StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(Serialize, OverflowingShapeHeaderIsRejected) {
  // rows = cols = 2^33: the 2^66-element product wraps uint64 to 0, which
  // slipped past the old `rows * cols > 2^32` guard and made the loader
  // accept the tensor with an empty data blob but a 2^33-row shape. The
  // division-based guard must reject the header outright.
  const std::string path = TempPath("overflow.kgrc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const uint32_t version = kCheckpointFormatVersion, count = 1, name_len = 1,
                 fingerprint_len = 0;
  const uint64_t rows = 1ull << 33, cols = 1ull << 33;
  ASSERT_EQ(std::fwrite("KGRC", 1, 4, f), 4u);
  ASSERT_EQ(std::fwrite(&version, sizeof(version), 1, f), 1u);
  // Header: model name "x", empty fingerprint.
  ASSERT_EQ(std::fwrite(&name_len, sizeof(name_len), 1, f), 1u);
  ASSERT_EQ(std::fwrite("x", 1, 1, f), 1u);
  ASSERT_EQ(std::fwrite(&fingerprint_len, sizeof(fingerprint_len), 1, f), 1u);
  // Tensor section: one tensor "x" of shape rows x cols.
  ASSERT_EQ(std::fwrite(&count, sizeof(count), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&name_len, sizeof(name_len), 1, f), 1u);
  ASSERT_EQ(std::fwrite("x", 1, 1, f), 1u);
  ASSERT_EQ(std::fwrite(&rows, sizeof(rows), 1, f), 1u);
  ASSERT_EQ(std::fwrite(&cols, sizeof(cols), 1, f), 1u);
  std::fclose(f);
  ASSERT_EQ(rows * cols, 0u);  // the product wraps all the way to zero
  CheckpointHeader header;
  std::vector<NamedTensor> loaded;
  EXPECT_EQ(LoadCheckpoint(path, &header, &loaded).code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(Serialize, FailedSaveNeverClobbersExistingCheckpoint) {
  // Saves write to <path>.tmp and rename into place only on success, so
  // a failed save must leave an existing good checkpoint untouched. Force
  // the failure by squatting on the temp path with a directory.
  const std::string path = TempPath("atomic.kgrc");
  std::vector<NamedTensor> good{{"x", 1, 2, {3.0f, 4.0f}}};
  ASSERT_TRUE(SaveCheckpoint(path, TestHeader(), good).ok());
  const std::string tmp = path + ".tmp";
  ASSERT_EQ(mkdir(tmp.c_str(), 0755), 0);
  CheckpointHeader other_header;
  other_header.model_name = "Other";
  std::vector<NamedTensor> other{{"y", 1, 1, {9.0f}}};
  EXPECT_EQ(SaveCheckpoint(path, other_header, other).code(),
            StatusCode::kIoError);
  CheckpointHeader header;
  std::vector<NamedTensor> loaded;
  ASSERT_TRUE(LoadCheckpoint(path, &header, &loaded).ok());
  EXPECT_EQ(header.model_name, "TestModel");
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded[0].name, "x");
  EXPECT_EQ(loaded[0].data, good[0].data);
  ASSERT_EQ(rmdir(tmp.c_str()), 0);
  std::remove(path.c_str());
}

TEST(Serialize, ShapeMismatchRejectedOnSave) {
  const std::string path = TempPath("badshape.kgrc");
  std::vector<NamedTensor> bad{{"x", 2, 2, {1.0f}}};  // 1 value, shape 2x2
  EXPECT_EQ(SaveCheckpoint(path, TestHeader(), bad).code(),
            StatusCode::kInvalidArgument);
  // The failed save leaves nothing behind, temporary included.
  EXPECT_NE(access(path.c_str(), F_OK), 0);
  EXPECT_NE(access((path + ".tmp").c_str(), F_OK), 0);
}

TEST(Serialize, KgeModelCheckpointRestoresScores) {
  // Train a model, snapshot it, restore into a fresh model: scores must
  // be bit-identical.
  KnowledgeGraph kg;
  for (int i = 0; i < 12; ++i) kg.AddEntity("e" + std::to_string(i));
  kg.AddRelation("r");
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(kg.AddTriple(i, 0, (i + 1) % 12).ok());
  }
  kg.Finalize();
  Rng rng(1);
  auto trained = MakeKgeModel("transh", kg.num_entities(),
                              kg.num_relations(), 8, rng);
  KgeTrainConfig config;
  config.epochs = 10;
  TrainKge(*trained, kg, config);

  const std::string path = TempPath("transh.kgrc");
  ASSERT_TRUE(
      SaveCheckpoint(path, TestHeader(), SnapshotParams(trained->Params()))
          .ok());

  Rng rng2(999);  // different init on purpose
  auto restored = MakeKgeModel("transh", kg.num_entities(),
                               kg.num_relations(), 8, rng2);
  CheckpointHeader header;
  std::vector<NamedTensor> snapshot;
  ASSERT_TRUE(LoadCheckpoint(path, &header, &snapshot).ok());
  std::vector<nn::Tensor> params = restored->Params();
  ASSERT_TRUE(RestoreParams(snapshot, &params).ok());

  for (int i = 0; i < 10; ++i) {
    const float a =
        trained->ScoreBatch({i}, {0}, {(i + 1) % 12}).value();
    const float b =
        restored->ScoreBatch({i}, {0}, {(i + 1) % 12}).value();
    EXPECT_FLOAT_EQ(a, b);
  }
  std::remove(path.c_str());

  // Restoring into a model of the wrong dimension fails cleanly.
  Rng rng3(5);
  auto wrong = MakeKgeModel("transh", kg.num_entities(), kg.num_relations(),
                            4, rng3);
  std::vector<nn::Tensor> wrong_params = wrong->Params();
  EXPECT_EQ(RestoreParams(snapshot, &wrong_params).code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace kgrec
