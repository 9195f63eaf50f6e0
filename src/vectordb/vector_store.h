#ifndef HTAPEX_VECTORDB_VECTOR_STORE_H_
#define HTAPEX_VECTORDB_VECTOR_STORE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"

namespace htapex {

/// One nearest-neighbour search hit.
struct SearchHit {
  int id = -1;
  double distance = 0.0;  // squared L2
};

/// Squared L2 distance between equal-length vectors. Double-precision
/// scalar — this is the reference the float32 kernel paths are
/// parity-checked against, so it stays exactly as-is.
double SquaredL2(const std::vector<double>& a, const std::vector<double>& b);

/// Exact brute-force kNN store, the knowledge base's only search. The
/// paper's knowledge base holds ~20 vectors and the served ones at most a
/// few thousand, where an exact top-k scan takes microseconds (EXPERIMENTS
/// L2 has the sweep).
///
/// Vectors live in one contiguous float32 slab (id-ordered rows) so the
/// scan is a straight run of `kernels::SquaredL2` over sequential memory —
/// no per-vector indirection, SIMD-friendly. Inputs stay double at the API
/// (the rest of the system computes embeddings in double); they are
/// narrowed once on Add.
class VectorStore {
 public:
  explicit VectorStore(int dim) : dim_(dim) {}

  int dim() const { return dim_; }
  size_t size() const { return size_; }

  /// Adds a vector, returning its id. Fails on dimension mismatch.
  Result<int> Add(std::vector<double> vec);

  /// Tombstones an id (removed from future searches).
  Status Remove(int id);

  /// k nearest neighbours by squared L2, ascending (distance, id). Returns
  /// empty for a wrong-dimension query or non-positive k.
  std::vector<SearchHit> Search(const std::vector<double>& query, int k) const;

  /// The stored float32 row for a live id, nullptr otherwise.
  const float* Get(int id) const;

 private:
  int dim_;
  size_t size_ = 0;  // live (non-removed) count
  std::vector<float> slab_;  // count * dim_, row-major by id
  std::vector<uint8_t> removed_;
};

}  // namespace htapex

#endif  // HTAPEX_VECTORDB_VECTOR_STORE_H_
