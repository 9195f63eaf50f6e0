#include "storage/column_store.h"

namespace htapex {

void ColumnVector::Append(const Value& v) {
  size_t seg = size_ / kSegmentRows;
  if (seg >= zone_min_.size()) {
    zone_min_.emplace_back();
    zone_max_.emplace_back();
    zone_all_null_.push_back(1);
    zone_has_null_.push_back(0);
  }
  bool is_null = v.is_null();
  nulls_.push_back(is_null ? 1 : 0);
  switch (type_) {
    case DataType::kInt:
    case DataType::kDate:
      ints_.push_back(is_null ? 0 : v.AsInt());
      break;
    case DataType::kDouble:
      doubles_.push_back(is_null ? 0.0 : v.AsDouble());
      break;
    case DataType::kString:
      strings_.push_back(is_null ? std::string() : v.AsString());
      break;
  }
  if (is_null) {
    zone_has_null_[seg] = 1;
  } else {
    if (zone_all_null_[seg]) {
      zone_min_[seg] = v;
      zone_max_[seg] = v;
      zone_all_null_[seg] = 0;
    } else {
      if (v.Compare(zone_min_[seg]) < 0) zone_min_[seg] = v;
      if (v.Compare(zone_max_[seg]) > 0) zone_max_[seg] = v;
    }
  }
  ++size_;
}

Value ColumnVector::Get(size_t row) const {
  if (nulls_[row]) return Value::Null();
  switch (type_) {
    case DataType::kInt:
    case DataType::kDate:
      return Value::Int(ints_[row]);
    case DataType::kDouble:
      return Value::Double(doubles_[row]);
    case DataType::kString:
      return Value::Str(strings_[row]);
  }
  return Value::Null();
}

bool ColumnVector::ZoneRange(size_t seg, Value* min_out, Value* max_out) const {
  if (seg >= zone_min_.size() || zone_all_null_[seg]) return false;
  *min_out = zone_min_[seg];
  *max_out = zone_max_[seg];
  return true;
}

bool ColumnVector::SegmentMayContain(size_t seg, const Value& v) const {
  Value min, max;
  if (!ZoneRange(seg, &min, &max)) return false;
  return v.Compare(min) >= 0 && v.Compare(max) <= 0;
}

bool ColumnVector::SegmentHasNulls(size_t seg) const {
  return seg < zone_has_null_.size() && zone_has_null_[seg] != 0;
}

bool ColumnVector::SegmentAllNull(size_t seg) const {
  return seg < zone_all_null_.size() && zone_all_null_[seg] != 0;
}

bool IsZoneCheckable(const Expr& p) {
  if (p.kind == ExprKind::kComparison) {
    return p.children[0]->kind == ExprKind::kColumnRef &&
           p.children[1]->kind == ExprKind::kLiteral;
  }
  if (p.kind == ExprKind::kIn || p.kind == ExprKind::kBetween) {
    if (p.children[0]->kind != ExprKind::kColumnRef) return false;
    for (size_t i = 1; i < p.children.size(); ++i) {
      if (p.children[i]->kind != ExprKind::kLiteral) return false;
    }
    return true;
  }
  if (p.kind == ExprKind::kIsNull) {
    return p.children[0]->kind == ExprKind::kColumnRef;
  }
  return false;
}

bool SegmentMayMatch(const ColumnVector& col, size_t seg, const Expr& p) {
  // IS [NOT] NULL only consults the null-presence bits, so handle it before
  // the zone-range checks (an all-NULL segment DOES match `x IS NULL`).
  if (p.kind == ExprKind::kIsNull) {
    if (p.negated) return !col.SegmentAllNull(seg);  // IS NOT NULL
    return col.SegmentHasNulls(seg);                 // IS NULL
  }
  Value zmin, zmax;
  if (!col.ZoneRange(seg, &zmin, &zmax)) {
    // All-NULL segment: every comparison/IN/BETWEEN evaluates to NULL,
    // which EvalPredicate treats as false — safe to prune.
    return false;
  }
  switch (p.kind) {
    case ExprKind::kComparison: {
      const Value& lit = p.children[1]->literal;
      // `col <op> NULL` is NULL for every row: prune.
      if (lit.is_null()) return false;
      switch (p.cmp_op) {
        case CompareOp::kEq:
          return lit.Compare(zmin) >= 0 && lit.Compare(zmax) <= 0;
        case CompareOp::kNe:
          // Only prunable when every non-null value equals the literal;
          // nulls in the segment still fail the predicate (NULL != x is
          // NULL), so the prune stays safe.
          return !(zmin.Compare(zmax) == 0 && zmin.Compare(lit) == 0);
        case CompareOp::kLt:
          return zmin.Compare(lit) < 0;
        case CompareOp::kLe:
          return zmin.Compare(lit) <= 0;
        case CompareOp::kGt:
          return zmax.Compare(lit) > 0;
        case CompareOp::kGe:
          return zmax.Compare(lit) >= 0;
        default:
          return true;
      }
    }
    case ExprKind::kIn: {
      // NULL elements can never match (col = NULL is NULL); an IN list of
      // only NULLs matches nothing.
      for (size_t i = 1; i < p.children.size(); ++i) {
        const Value& lit = p.children[i]->literal;
        if (lit.is_null()) continue;
        if (lit.Compare(zmin) >= 0 && lit.Compare(zmax) <= 0) return true;
      }
      return false;
    }
    case ExprKind::kBetween: {
      const Value& lo = p.children[1]->literal;
      const Value& hi = p.children[2]->literal;
      // `x BETWEEN lo AND hi` is `x >= lo AND x <= hi`; a NULL bound makes
      // the conjunct NULL (never true) for every row.
      if (lo.is_null() || hi.is_null()) return false;
      return !(zmax.Compare(lo) < 0 || zmin.Compare(hi) > 0);
    }
    default:
      return true;
  }
}

Status ColumnStore::LoadTable(const Catalog& catalog, const TableData& data) {
  HTAPEX_ASSIGN_OR_RETURN(const TableSchema* schema,
                          catalog.GetTable(data.table_name));
  if (tables_.count(data.table_name) > 0) {
    return Status::AlreadyExists("table already loaded: " + data.table_name);
  }
  ColumnTable table;
  table.table_name = data.table_name;
  table.columns.reserve(schema->num_columns());
  for (const Column& col : schema->columns()) {
    table.columns.emplace_back(col.type);
  }
  if (data.width != schema->num_columns() ||
      data.cells.size() != data.num_rows() * data.width) {
    return Status::InvalidArgument("row arity mismatch for table " +
                                   data.table_name);
  }
  for (size_t r = 0; r < data.num_rows(); ++r) {
    const Value* row = data.RowAt(r);
    for (size_t c = 0; c < data.width; ++c) table.columns[c].Append(row[c]);
  }
  table.num_rows = data.num_rows();
  tables_.emplace(data.table_name, std::move(table));
  return Status::OK();
}

Result<const ColumnTable*> ColumnStore::GetTable(const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) return Status::NotFound("table not loaded: " + table);
  return &it->second;
}

}  // namespace htapex
