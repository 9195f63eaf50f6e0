#include "storage/analyze.h"

#include <set>

namespace htapex {

Result<TableStats> ComputeTableStats(const TableSchema& schema,
                                     const TableData& data) {
  TableStats stats;
  stats.row_count = static_cast<int64_t>(data.num_rows());
  stats.columns.resize(schema.num_columns());

  struct ValueLess {
    bool operator()(const Value& a, const Value& b) const {
      return a.Compare(b) < 0;
    }
  };

  if (data.width != schema.num_columns() ||
      data.cells.size() != data.num_rows() * data.width) {
    return Status::InvalidArgument("row arity mismatch during ANALYZE");
  }
  double row_bytes = 0.0;
  for (size_t c = 0; c < schema.num_columns(); ++c) {
    ColumnStats& cs = stats.columns[c];
    std::set<Value, ValueLess> distinct;
    int64_t nulls = 0;
    double width_sum = 0.0;
    bool any = false;
    for (size_t r = 0; r < data.num_rows(); ++r) {
      const Value& v = data.RowAt(r)[c];
      if (v.is_null()) {
        ++nulls;
        continue;
      }
      distinct.insert(v);
      width_sum += v.is_string()
                       ? static_cast<double>(v.AsString().size())
                       : 8.0;
      if (!any) {
        cs.min = v;
        cs.max = v;
        any = true;
      } else {
        if (v.Compare(cs.min) < 0) cs.min = v;
        if (v.Compare(cs.max) > 0) cs.max = v;
      }
    }
    int64_t non_null = stats.row_count - nulls;
    cs.ndv = static_cast<int64_t>(distinct.size());
    if (cs.ndv < 1) cs.ndv = 1;
    cs.null_fraction =
        stats.row_count == 0
            ? 0.0
            : static_cast<double>(nulls) / static_cast<double>(stats.row_count);
    cs.avg_width = non_null == 0 ? 8.0 : width_sum / static_cast<double>(non_null);
    row_bytes += cs.avg_width;
  }
  stats.avg_row_bytes = row_bytes;
  return stats;
}

}  // namespace htapex
