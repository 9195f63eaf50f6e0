#ifndef HTAPEX_STORAGE_COLUMN_STORE_H_
#define HTAPEX_STORAGE_COLUMN_STORE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "sql/expr.h"
#include "storage/table_data.h"

namespace htapex {

/// Typed columnar storage for one column, with per-segment zone maps
/// (min/max of non-null values plus null-presence bits) enabling segment
/// pruning for range/equality/IS NULL predicates.
class ColumnVector {
 public:
  static constexpr size_t kSegmentRows = 1024;

  ColumnVector() = default;
  explicit ColumnVector(DataType type) : type_(type) {}

  void Append(const Value& v);
  Value Get(size_t row) const;
  size_t size() const { return size_; }
  DataType type() const { return type_; }

  size_t num_segments() const { return zone_min_.size(); }
  /// Zone map for segment `seg`: [min, max] of non-null values; returns
  /// false when the segment holds only nulls (or does not exist).
  bool ZoneRange(size_t seg, Value* min_out, Value* max_out) const;
  /// True if any value in [min,max] could satisfy equality with `v`.
  bool SegmentMayContain(size_t seg, const Value& v) const;
  /// True when segment `seg` contains at least one NULL value.
  bool SegmentHasNulls(size_t seg) const;
  /// True when segment `seg` contains only NULL values.
  bool SegmentAllNull(size_t seg) const;

  /// Raw typed storage for segment-granular batch reads (the vectorized
  /// executor memcpy's / borrows these instead of materializing Values).
  /// Only the span matching type() is meaningful.
  const int64_t* IntsData() const { return ints_.data(); }
  const double* DoublesData() const { return doubles_.data(); }
  const std::string* StringsData() const { return strings_.data(); }
  const uint8_t* NullsData() const { return nulls_.data(); }

 private:
  DataType type_ = DataType::kInt;
  size_t size_ = 0;
  // Typed payloads; which one is populated depends on type_.
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
  std::vector<uint8_t> nulls_;  // 1 = null
  // Zone maps, one entry per segment of kSegmentRows values.
  std::vector<Value> zone_min_;
  std::vector<Value> zone_max_;
  std::vector<uint8_t> zone_all_null_;
  std::vector<uint8_t> zone_has_null_;
};

/// A columnar table: one ColumnVector per schema column.
struct ColumnTable {
  std::string table_name;
  std::vector<ColumnVector> columns;
  size_t num_rows = 0;
};

/// True when `p` has a zone-map-checkable shape over a bare column:
/// comparison / IN / BETWEEN against literals, or IS [NOT] NULL.
bool IsZoneCheckable(const Expr& p);

/// Zone-map check shared by both executors: can segment `seg` of `col`
/// contain rows satisfying `p` (which must be IsZoneCheckable)? NULL
/// semantics are the SQL ones EvalPredicate implements: a NULL comparison
/// result never passes, so
///  - an all-NULL segment matches nothing except `x IS NULL`;
///  - a NULL literal (in a comparison, a BETWEEN bound, or as every IN
///    element) matches nothing;
///  - `x IS NULL` prunes segments without nulls, `x IS NOT NULL` prunes
///    all-NULL segments.
/// Conservative: returns true whenever it cannot prove a prune is safe.
bool SegmentMayMatch(const ColumnVector& col, size_t seg, const Expr& p);

/// The AP engine's storage: column-oriented tables. Scans read only the
/// referenced columns (the key columnar advantage the paper's explanations
/// cite) and skip segments via zone maps.
class ColumnStore {
 public:
  ColumnStore() = default;

  ColumnStore(const ColumnStore&) = delete;
  ColumnStore& operator=(const ColumnStore&) = delete;

  /// Transposes row-major data into columnar form.
  Status LoadTable(const Catalog& catalog, const TableData& data);

  Result<const ColumnTable*> GetTable(const std::string& table) const;

 private:
  std::map<std::string, ColumnTable> tables_;
};

}  // namespace htapex

#endif  // HTAPEX_STORAGE_COLUMN_STORE_H_
