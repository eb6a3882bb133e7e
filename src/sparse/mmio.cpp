#include "sparse/mmio.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace sptrsv {

CsrMatrix read_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw std::runtime_error("mmio: empty stream");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket" || object != "matrix" || format != "coordinate" ||
      field != "real") {
    throw std::runtime_error("mmio: unsupported header: " + line);
  }
  const bool symmetric = (symmetry == "symmetric");
  if (!symmetric && symmetry != "general") {
    throw std::runtime_error("mmio: unsupported symmetry: " + symmetry);
  }
  // Skip comments.
  while (std::getline(in, line)) {
    if (!line.empty() && line[0] != '%') break;
  }
  std::istringstream dims(line);
  long long rows = 0, cols = 0, nnz = 0;
  if (!(dims >> rows >> cols >> nnz)) throw std::runtime_error("mmio: bad size line");

  CooMatrix coo;
  coo.rows = static_cast<Idx>(rows);
  coo.cols = static_cast<Idx>(cols);
  coo.entries.reserve(static_cast<size_t>(nnz));
  for (long long k = 0; k < nnz; ++k) {
    long long r = 0, c = 0;
    Real v = 0;
    if (!(in >> r >> c >> v)) throw std::runtime_error("mmio: truncated entries");
    const Idx ri = static_cast<Idx>(r - 1), ci = static_cast<Idx>(c - 1);
    if (symmetric) {
      coo.add_sym(ri, ci, v);
    } else {
      coo.add(ri, ci, v);
    }
  }
  return CsrMatrix::from_coo(coo);
}

CsrMatrix read_matrix_market_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("mmio: cannot open " + path);
  return read_matrix_market(in);
}

void write_matrix_market(std::ostream& out, const CsrMatrix& m) {
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << m.rows() << " " << m.cols() << " " << m.nnz() << "\n";
  out.precision(17);
  for (Idx r = 0; r < m.rows(); ++r) {
    const auto cs = m.row_cols(r);
    const auto vs = m.row_vals(r);
    for (size_t k = 0; k < cs.size(); ++k) {
      out << (r + 1) << " " << (cs[k] + 1) << " " << vs[k] << "\n";
    }
  }
}

}  // namespace sptrsv
