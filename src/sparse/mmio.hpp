#pragma once
/// \file mmio.hpp
/// \brief Minimal Matrix-Market I/O (coordinate real general/symmetric).
///
/// Lets users feed their own matrices (e.g. SuiteSparse downloads, the
/// paper's actual test set) into the solver pipeline, and lets tests
/// round-trip matrices through a canonical text form.

#include <iosfwd>
#include <string>

#include "sparse/csr.hpp"

namespace sptrsv {

/// Reads a `matrix coordinate real {general|symmetric}` Matrix-Market stream.
/// Symmetric files are expanded to full storage.
CsrMatrix read_matrix_market(std::istream& in);

/// Convenience overload reading from a file path.
CsrMatrix read_matrix_market_file(const std::string& path);

/// Writes `m` as `matrix coordinate real general`.
void write_matrix_market(std::ostream& out, const CsrMatrix& m);

}  // namespace sptrsv
