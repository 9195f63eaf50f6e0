#ifndef HTAPEX_STORAGE_TABLE_DATA_H_
#define HTAPEX_STORAGE_TABLE_DATA_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "catalog/schema.h"
#include "catalog/value.h"

namespace htapex {

/// A materialized row.
using Row = std::vector<Value>;

/// Canonical table contents produced by the data generator: one row-major
/// array of `width` cells per row, with no object per row. Row id `r` is
/// the row at cells [r * width, (r + 1) * width), so a fetch by row id is
/// one multiplication, not a pointer chase. The row store keeps it and
/// serves it directly; the column store transposes it at load time.
struct TableData {
  TableData() = default;
  TableData(std::string name, size_t columns)
      : table_name(std::move(name)), width(columns) {}

  std::string table_name;
  size_t width = 0;          // cells per row
  std::vector<Value> cells;  // row-major, num_rows() * width

  size_t num_rows() const { return width == 0 ? 0 : cells.size() / width; }
  /// The `width` cells of row `row_id`.
  const Value* RowAt(size_t row_id) const {
    return cells.data() + row_id * width;
  }
  /// Reserves room for `rows` rows.
  void Reserve(size_t rows) { cells.reserve(rows * width); }
  /// Appends one row of `width` values, moved in. A braced list, unlike
  /// function arguments, is evaluated left to right, so a generator may
  /// draw each cell from one random stream in column order.
  template <size_t N>
  void Append(Value (&&row)[N]) {
    for (Value& v : row) cells.push_back(std::move(v));
  }
};

}  // namespace htapex

#endif  // HTAPEX_STORAGE_TABLE_DATA_H_
