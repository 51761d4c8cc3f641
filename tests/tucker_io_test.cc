#include <filesystem>
#include <fstream>
#include <string>
#include <unistd.h>

#include <gtest/gtest.h>

#include "io/tucker_io.h"
#include "tensor/sparse_tensor.h"
#include "tensor/tucker.h"
#include "util/random.h"

namespace m2td::io {
namespace {

class TuckerIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("m2td_tucker_io_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string Path(const std::string& name) { return (dir_ / name).string(); }

  std::filesystem::path dir_;
};

tensor::TuckerDecomposition MakeDecomposition() {
  Rng rng(5);
  tensor::SparseTensor x({5, 6, 4});
  std::vector<std::uint32_t> idx(3);
  for (int e = 0; e < 40; ++e) {
    idx[0] = static_cast<std::uint32_t>(rng.UniformInt(5));
    idx[1] = static_cast<std::uint32_t>(rng.UniformInt(6));
    idx[2] = static_cast<std::uint32_t>(rng.UniformInt(4));
    x.AppendEntry(idx, rng.Gaussian());
  }
  x.SortAndCoalesce();
  // Heterogeneous ranks on purpose.
  auto tucker = tensor::HosvdSparse(x, {2, 3, 4});
  EXPECT_TRUE(tucker.ok());
  return std::move(tucker).ValueOrDie();
}

TEST_F(TuckerIoTest, RoundTripReconstructionIdentical) {
  tensor::TuckerDecomposition original = MakeDecomposition();
  ASSERT_TRUE(SaveTucker(original, Path("d.tucker")).ok());
  auto loaded = LoadTucker(Path("d.tucker"));
  ASSERT_TRUE(loaded.ok());
  ASSERT_EQ(loaded->factors.size(), original.factors.size());
  EXPECT_EQ(loaded->core.shape(), original.core.shape());
  auto r1 = tensor::Reconstruct(original);
  auto r2 = tensor::Reconstruct(*loaded);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(tensor::DenseTensor::FrobeniusDistance(*r1, *r2), 0.0);
}

TEST_F(TuckerIoTest, CellQueriesSurviveRoundTrip) {
  tensor::TuckerDecomposition original = MakeDecomposition();
  ASSERT_TRUE(SaveTucker(original, Path("d.tucker")).ok());
  auto loaded = LoadTucker(Path("d.tucker"));
  ASSERT_TRUE(loaded.ok());
  Rng rng(9);
  for (int trial = 0; trial < 15; ++trial) {
    std::vector<std::uint32_t> idx = {
        static_cast<std::uint32_t>(rng.UniformInt(5)),
        static_cast<std::uint32_t>(rng.UniformInt(6)),
        static_cast<std::uint32_t>(rng.UniformInt(4))};
    auto a = tensor::ReconstructCell(original, idx);
    auto b = tensor::ReconstructCell(*loaded, idx);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_DOUBLE_EQ(*a, *b);
  }
}

TEST_F(TuckerIoTest, MissingFileFails) {
  EXPECT_EQ(LoadTucker(Path("nope.tucker")).status().code(),
            StatusCode::kIOError);
}

TEST_F(TuckerIoTest, CorruptFilesRejected) {
  {
    std::ofstream out(Path("bad1.tucker"));
    out << "wrong 1\n";
  }
  EXPECT_FALSE(LoadTucker(Path("bad1.tucker")).ok());
  {
    std::ofstream out(Path("bad2.tucker"));
    out << "m2td-tucker 1\nmodes 2\nfactor 2 2\n1 2\n3 4\n";
    // second factor missing
  }
  EXPECT_FALSE(LoadTucker(Path("bad2.tucker")).ok());
  {
    std::ofstream out(Path("bad3.tucker"));
    // Core dims disagree with factor columns.
    out << "m2td-tucker 1\nmodes 1\nfactor 2 2\n1 0\n0 1\ncore 3\n1 2 3\n";
  }
  EXPECT_FALSE(LoadTucker(Path("bad3.tucker")).ok());
}

// Headers are bounded by the bytes left in the file before anything is
// allocated: a giant declared size is an IOError, never a bad_alloc.
TEST_F(TuckerIoTest, GiantFactorHeaderRejected) {
  {
    std::ofstream out(Path("giant_factor.tucker"));
    out << "m2td-tucker 1\nmodes 1\nfactor 999999999 999999999\n1 2\n";
  }
  EXPECT_EQ(LoadTucker(Path("giant_factor.tucker")).status().code(),
            StatusCode::kIOError);
}

TEST_F(TuckerIoTest, GiantCoreShapeRejected) {
  // Eight 1 x 200 factors fit in a few KB; their 200^8-cell core does not.
  {
    std::ofstream out(Path("giant_core.tucker"));
    out << "m2td-tucker 1\nmodes 8\n";
    for (int m = 0; m < 8; ++m) {
      out << "factor 1 200\n";
      for (int j = 0; j < 200; ++j) out << "0 ";
      out << "\n";
    }
    out << "core";
    for (int m = 0; m < 8; ++m) out << " 200";
    out << "\n1\n";
  }
  EXPECT_EQ(LoadTucker(Path("giant_core.tucker")).status().code(),
            StatusCode::kIOError);
}

TEST_F(TuckerIoTest, InconsistentDecompositionRejectedOnSave) {
  tensor::TuckerDecomposition broken;
  broken.core = tensor::DenseTensor({2, 2});
  broken.factors = {linalg::Matrix(3, 2)};  // arity mismatch
  EXPECT_FALSE(SaveTucker(broken, Path("x.tucker")).ok());
}

}  // namespace
}  // namespace m2td::io
