#include "io/tucker_io.h"

#include <fstream>
#include <iomanip>

#include "io/tensor_io.h"

namespace m2td::io {

namespace {

constexpr char kTuckerMagic[] = "m2td-tucker";

Status ParseFailed(const std::string& path, const std::string& what) {
  return Status::IOError("malformed tucker file '" + path + "': " + what);
}

}  // namespace

Status SaveTucker(const tensor::TuckerDecomposition& tucker,
                  const std::string& path) {
  if (tucker.factors.size() != tucker.core.num_modes()) {
    return Status::InvalidArgument("factor count does not match core arity");
  }
  std::ofstream out(path);
  if (!out) return Status::IOError("cannot open '" + path + "'");
  out << kTuckerMagic << " 1\n";
  out << "modes " << tucker.factors.size() << "\n";
  out << std::setprecision(17);
  for (const linalg::Matrix& factor : tucker.factors) {
    out << "factor " << factor.rows() << " " << factor.cols() << "\n";
    for (std::size_t i = 0; i < factor.rows(); ++i) {
      for (std::size_t j = 0; j < factor.cols(); ++j) {
        out << factor(i, j) << (j + 1 < factor.cols() ? " " : "\n");
      }
    }
  }
  out << "core";
  for (std::uint64_t d : tucker.core.shape()) out << " " << d;
  out << "\n";
  for (std::uint64_t i = 0; i < tucker.core.NumElements(); ++i) {
    out << tucker.core.flat(i) << "\n";
  }
  if (!out) return Status::IOError("write failed for '" + path + "'");
  return Status::OK();
}

Result<tensor::TuckerDecomposition> LoadTucker(const std::string& path) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open '" + path + "'");
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kTuckerMagic || version != 1) {
    return ParseFailed(path, "bad magic/version");
  }
  std::string token;
  std::size_t modes = 0;
  if (!(in >> token >> modes) || token != "modes" || modes == 0 ||
      modes > 64) {
    return ParseFailed(path, "bad mode count");
  }

  tensor::TuckerDecomposition tucker;
  tucker.factors.reserve(modes);
  for (std::size_t m = 0; m < modes; ++m) {
    std::size_t rows = 0, cols = 0;
    if (!(in >> token >> rows >> cols) || token != "factor" || rows == 0 ||
        cols == 0) {
      return ParseFailed(path, "bad factor header");
    }
    const std::uint64_t left = BytesLeft(in);
    if (cols > left || rows > left / 2 / cols) {
      return ParseFailed(path, "factor larger than the file");
    }
    linalg::Matrix factor(rows, cols);
    for (std::size_t i = 0; i < rows; ++i) {
      for (std::size_t j = 0; j < cols; ++j) {
        if (!(in >> factor(i, j))) {
          return ParseFailed(path, "truncated factor data");
        }
      }
    }
    tucker.factors.push_back(std::move(factor));
  }

  if (!(in >> token) || token != "core") {
    return ParseFailed(path, "missing core header");
  }
  std::vector<std::uint64_t> core_shape(modes);
  const std::uint64_t max_elements = BytesLeft(in) / 2;
  std::uint64_t elements = 1;
  for (std::size_t m = 0; m < modes; ++m) {
    if (!(in >> core_shape[m]) || core_shape[m] == 0) {
      return ParseFailed(path, "bad core shape");
    }
    if (core_shape[m] != tucker.factors[m].cols()) {
      return ParseFailed(path, "core dim does not match factor columns");
    }
    if (core_shape[m] > max_elements / elements) {
      return ParseFailed(path, "core larger than the file");
    }
    elements *= core_shape[m];
  }
  tensor::DenseTensor core(core_shape);
  for (std::uint64_t i = 0; i < core.NumElements(); ++i) {
    if (!(in >> core.flat(i))) {
      return ParseFailed(path, "truncated core data");
    }
  }
  tucker.core = std::move(core);
  return tucker;
}

}  // namespace m2td::io
