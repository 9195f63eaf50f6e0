#include "vectordb/vector_store.h"

#include <algorithm>

#include "common/kernels.h"

namespace htapex {

double SquaredL2(const std::vector<double>& a, const std::vector<double>& b) {
  double d = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    double diff = a[i] - b[i];
    d += diff * diff;
  }
  return d;
}

Result<int> VectorStore::Add(std::vector<double> vec) {
  if (static_cast<int>(vec.size()) != dim_) {
    return Status::InvalidArgument("vector dimension mismatch");
  }
  int id = static_cast<int>(removed_.size());
  slab_.reserve(slab_.size() + vec.size());
  for (double v : vec) slab_.push_back(static_cast<float>(v));
  removed_.push_back(0);
  ++size_;
  return id;
}

Status VectorStore::Remove(int id) {
  if (id < 0 || id >= static_cast<int>(removed_.size())) {
    return Status::NotFound("no such vector id");
  }
  if (removed_[static_cast<size_t>(id)]) {
    return Status::NotFound("vector already removed");
  }
  removed_[static_cast<size_t>(id)] = 1;
  --size_;
  return Status::OK();
}

std::vector<SearchHit> VectorStore::Search(const std::vector<double>& query,
                                           int k) const {
  // The distance kernel walks the query's length, so a wrong-dimension
  // query would read out of bounds on every stored vector; k <= 0 would
  // wrap in the final resize.
  if (static_cast<int>(query.size()) != dim_ || k <= 0) return {};
  // Narrow the query once; scratch comes from the thread arena so the
  // steady-state scan allocates nothing beyond the result vector.
  kernels::Arena& arena = kernels::ThreadArena();
  arena.Reset();
  float* q = arena.AllocFloats(query.size());
  for (size_t i = 0; i < query.size(); ++i) {
    q[i] = static_cast<float>(query[i]);
  }
  std::vector<SearchHit> hits;
  hits.reserve(size_);
  const size_t count = removed_.size();
  for (size_t i = 0; i < count; ++i) {
    if (removed_[i]) continue;
    const float* row = slab_.data() + i * static_cast<size_t>(dim_);
    hits.push_back(SearchHit{
        static_cast<int>(i),
        static_cast<double>(kernels::SquaredL2(q, row, dim_))});
  }
  // (distance, id) is a strict total order, so keeping only the k best
  // returns exactly the prefix a full sort would.
  const size_t keep = std::min(hits.size(), static_cast<size_t>(k));
  std::partial_sort(hits.begin(), hits.begin() + keep, hits.end(),
                    [](const SearchHit& a, const SearchHit& b) {
                      return a.distance < b.distance ||
                             (a.distance == b.distance && a.id < b.id);
                    });
  hits.resize(keep);
  return hits;
}

const float* VectorStore::Get(int id) const {
  if (id < 0 || id >= static_cast<int>(removed_.size()) ||
      removed_[static_cast<size_t>(id)]) {
    return nullptr;
  }
  return slab_.data() + static_cast<size_t>(id) * dim_;
}

}  // namespace htapex
