#include "engine/vec_batch.h"

#include <algorithm>
#include <cstring>

#include "engine/operators.h"
#include "sql/expr.h"

namespace htapex {

namespace {

bool IsNumericType(DataType t) {
  return t == DataType::kInt || t == DataType::kDate || t == DataType::kDouble;
}

bool IsNumericOrNull(const Value& v) { return v.is_null() || !v.is_string(); }

kernels::MaskCmpOp ToMaskOp(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return kernels::MaskCmpOp::kEq;
    case CompareOp::kNe:
      return kernels::MaskCmpOp::kNe;
    case CompareOp::kLt:
      return kernels::MaskCmpOp::kLt;
    case CompareOp::kLe:
      return kernels::MaskCmpOp::kLe;
    case CompareOp::kGt:
      return kernels::MaskCmpOp::kGt;
    case CompareOp::kGe:
      return kernels::MaskCmpOp::kGe;
    case CompareOp::kLike:
      break;
  }
  return kernels::MaskCmpOp::kEq;  // unreachable; kLike is never lowered
}

bool IsStringOrNull(const Value& v) { return v.is_null() || v.is_string(); }

/// True when `p` can be evaluated with the batch mask kernels: a
/// zone-checkable shape over a numeric column with numeric (or NULL)
/// literals, the same over a string column with string (or NULL) literals,
/// or IS [NOT] NULL over any column. A string compared with a number keeps
/// the Value::Compare type-tag semantics and stays on the per-row path.
bool CanLowerToMask(const ColumnTable& table, const Expr& p) {
  if (!IsZoneCheckable(p)) return false;
  const Expr& col_ref = *p.children[0];
  if (col_ref.bound_column < 0 ||
      static_cast<size_t>(col_ref.bound_column) >= table.columns.size()) {
    return false;
  }
  if (p.kind == ExprKind::kIsNull) return true;
  DataType col_type =
      table.columns[static_cast<size_t>(col_ref.bound_column)].type();
  if (col_type == DataType::kString) {
    // IN skips elements that are not strings: they never equal one.
    if (p.kind == ExprKind::kIn) return true;
    if (p.kind == ExprKind::kComparison) {
      return p.cmp_op != CompareOp::kLike &&
             IsStringOrNull(p.children[1]->literal);
    }
    return IsStringOrNull(p.children[1]->literal) &&
           IsStringOrNull(p.children[2]->literal);
  }
  if (!IsNumericType(col_type)) return false;
  if (p.kind == ExprKind::kComparison) {
    return p.cmp_op != CompareOp::kLike &&
           IsNumericOrNull(p.children[1]->literal);
  }
  // kIn / kBetween: string literals in an IN list can never equal a numeric
  // column value, so they are skippable; string BETWEEN bounds change the
  // range semantics (type-tag ordering) and stay on the fallback path.
  if (p.kind == ExprKind::kBetween) {
    return IsNumericOrNull(p.children[1]->literal) &&
           IsNumericOrNull(p.children[2]->literal);
  }
  return true;  // kIn
}

/// out[i] = 1 iff non-null col[begin+i] <op> lit — exactly EvalPredicate on
/// `col <op> literal` (NULL operand → false).
void TypedCmpMask(const ColumnVector& col, size_t begin, size_t n,
                  CompareOp op, const Value& lit, kernels::Arena* arena,
                  uint8_t* out) {
  if (lit.is_null()) {
    std::memset(out, 0, n);
    return;
  }
  if (col.type() == DataType::kString) {
    // Value::Compare of two strings: the sign of std::string::compare.
    const std::string* vals = col.StringsData() + begin;
    const std::string& text = lit.AsString();
    for (size_t i = 0; i < n; ++i) {
      const int c = vals[i].compare(text);
      bool pass = false;
      switch (op) {
        case CompareOp::kEq:
          pass = c == 0;
          break;
        case CompareOp::kNe:
          pass = c != 0;
          break;
        case CompareOp::kLt:
          pass = c < 0;
          break;
        case CompareOp::kLe:
          pass = c <= 0;
          break;
        case CompareOp::kGt:
          pass = c > 0;
          break;
        case CompareOp::kGe:
          pass = c >= 0;
          break;
        case CompareOp::kLike:
          break;
      }
      out[i] = pass ? 1 : 0;
    }
    kernels::MaskAndNot(out, col.NullsData() + begin, static_cast<int>(n));
    return;
  }
  kernels::MaskCmpOp mop = ToMaskOp(op);
  if (col.type() == DataType::kDouble) {
    kernels::MaskCmpF64(col.DoublesData() + begin, lit.AsDouble(), mop, out,
                        static_cast<int>(n));
  } else if (lit.is_int()) {
    kernels::MaskCmpI64(col.IntsData() + begin, lit.AsInt(), mop, out,
                        static_cast<int>(n));
  } else {
    // Double literal against an int column: Value::Compare goes through
    // double, so widen the column slice and compare in double.
    double* conv = arena->AllocDoubles(n);
    const int64_t* iv = col.IntsData() + begin;
    for (size_t i = 0; i < n; ++i) conv[i] = static_cast<double>(iv[i]);
    kernels::MaskCmpF64(conv, lit.AsDouble(), mop, out, static_cast<int>(n));
  }
  // A NULL column value makes the comparison NULL → false.
  kernels::MaskAndNot(out, col.NullsData() + begin, static_cast<int>(n));
}

void ApplyTypedMask(const ColumnTable& table, const Expr& p, size_t begin,
                    size_t n, kernels::Arena* arena, uint8_t* tmp,
                    uint8_t* tmp2, uint8_t* mask) {
  const ColumnVector& col =
      table.columns[static_cast<size_t>(p.children[0]->bound_column)];
  switch (p.kind) {
    case ExprKind::kIsNull:
      if (p.negated) {
        std::memset(tmp, 1, n);
        kernels::MaskAndNot(tmp, col.NullsData() + begin,
                            static_cast<int>(n));
      } else {
        std::memcpy(tmp, col.NullsData() + begin, n);
      }
      break;
    case ExprKind::kComparison:
      TypedCmpMask(col, begin, n, p.cmp_op, p.children[1]->literal, arena,
                   tmp);
      break;
    case ExprKind::kIn: {
      std::memset(tmp, 0, n);
      for (size_t c = 1; c < p.children.size(); ++c) {
        const Value& lit = p.children[c]->literal;
        // NULL elements never match (and the saw-null → NULL result is
        // false under EvalPredicate anyway); a string element never equals
        // a numeric column value, nor a number a string one.
        const bool string_col = col.type() == DataType::kString;
        if (lit.is_null() || lit.is_string() != string_col) continue;
        TypedCmpMask(col, begin, n, CompareOp::kEq, lit, arena, tmp2);
        for (size_t i = 0; i < n; ++i) tmp[i] |= tmp2[i];
      }
      break;
    }
    case ExprKind::kBetween: {
      const Value& lo = p.children[1]->literal;
      const Value& hi = p.children[2]->literal;
      if (lo.is_null() || hi.is_null()) {
        std::memset(tmp, 0, n);
        break;
      }
      TypedCmpMask(col, begin, n, CompareOp::kGe, lo, arena, tmp);
      TypedCmpMask(col, begin, n, CompareOp::kLe, hi, arena, tmp2);
      kernels::MaskAnd(tmp, tmp2, static_cast<int>(n));
      break;
    }
    default:
      std::memset(tmp, 1, n);  // unreachable given CanLowerToMask
      break;
  }
  kernels::MaskAnd(mask, tmp, static_cast<int>(n));
}

}  // namespace

Status ComputeScanSelection(const PlanNode& scan,
                            const std::vector<int>& ordinals, int total_slots,
                            kernels::Arena* arena, VecBatch* batch) {
  const ColumnTable& table = *batch->table;
  const size_t begin = batch->begin;
  const size_t n = batch->rows();
  batch->sel.clear();
  if (n == 0) return Status::OK();

  uint8_t* mask = arena->AllocU8(n);
  std::memset(mask, 1, n);

  // All-or-nothing lowering: the typed mask path runs only when *every*
  // conjunct lowers. A mixed split would reorder conjunct evaluation
  // relative to the row executor's in-order short-circuit, which can
  // change which row (if any) surfaces an evaluation error.
  std::vector<const Expr*> zone_preds;
  bool all_typed = true;
  for (const auto& p : scan.predicates) {
    if (IsZoneCheckable(*p)) zone_preds.push_back(p.get());
    if (!CanLowerToMask(table, *p)) all_typed = false;
  }

  // Zone-map pruning, segment-granular inside the batch.
  const size_t seg_rows = ColumnVector::kSegmentRows;
  for (size_t s = begin / seg_rows; s * seg_rows < batch->end; ++s) {
    bool skip = false;
    for (const Expr* p : zone_preds) {
      const ColumnVector& col =
          table.columns[static_cast<size_t>(p->children[0]->bound_column)];
      if (!SegmentMayMatch(col, s, *p)) {
        skip = true;
        break;
      }
    }
    if (skip) {
      size_t lo = std::max(begin, s * seg_rows);
      size_t hi = std::min(batch->end, (s + 1) * seg_rows);
      std::memset(mask + (lo - begin), 0, hi - lo);
    }
  }

  Status status = Status::OK();
  if (all_typed) {
    if (!scan.predicates.empty()) {
      uint8_t* tmp = arena->AllocU8(n);
      uint8_t* tmp2 = arena->AllocU8(n);
      for (const auto& p : scan.predicates) {
        ApplyTypedMask(table, *p, begin, n, arena, tmp, tmp2, mask);
      }
    }
  } else {
    // Per-row evaluation over the composite layout: the row executor's
    // PassesPredicates. A row that fails to evaluate ends the selection
    // where the row executor's scan would have stopped.
    Row row(static_cast<size_t>(total_slots), Value::Null());
    for (size_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      for (int c : ordinals) {
        row[static_cast<size_t>(scan.slot_offset + c)] =
            table.columns[static_cast<size_t>(c)].Get(begin + i);
      }
      Result<bool> pass = PassesPredicates(scan, row);
      if (!pass.ok()) {
        status = pass.status();
        std::memset(mask + i, 0, n - i);
        break;
      }
      if (!*pass) mask[i] = 0;
    }
  }

  batch->sel.reserve(
      static_cast<size_t>(kernels::CountMask(mask, static_cast<int>(n))));
  for (size_t i = 0; i < n; ++i) {
    if (mask[i]) batch->sel.push_back(static_cast<uint32_t>(i));
  }
  return status;
}

size_t GatherNonNullI64(const ColumnVector& col, const VecBatch& batch,
                        int64_t* out) {
  const int64_t* vals = col.IntsData() + batch.begin;
  const uint8_t* nulls = col.NullsData() + batch.begin;
  size_t k = 0;
  for (uint32_t off : batch.sel) {
    out[k] = vals[off];
    k += nulls[off] ? 0 : 1;
  }
  return k;
}

size_t GatherNonNullF64(const ColumnVector& col, const VecBatch& batch,
                        double* out) {
  const double* vals = col.DoublesData() + batch.begin;
  const uint8_t* nulls = col.NullsData() + batch.begin;
  size_t k = 0;
  for (uint32_t off : batch.sel) {
    out[k] = vals[off];
    k += nulls[off] ? 0 : 1;
  }
  return k;
}

void GatherKeyHashes(const ColumnVector& col, size_t base,
                     const uint32_t* offs, size_t n, kernels::Arena* arena,
                     uint64_t* hashes, uint8_t* nulls) {
  const uint8_t* col_nulls = col.NullsData() + base;
  for (size_t i = 0; i < n; ++i) nulls[i] = col_nulls[offs[i]];
  switch (col.type()) {
    case DataType::kInt:
    case DataType::kDate: {
      // Null rows hash garbage values — harmless, the flags mask them.
      const int64_t* vals = col.IntsData() + base;
      int64_t* tmp = arena->AllocInt64s(n);
      for (size_t i = 0; i < n; ++i) tmp[i] = vals[offs[i]];
      kernels::HashI64(tmp, hashes, static_cast<int>(n));
      return;
    }
    case DataType::kDouble: {
      const double* vals = col.DoublesData() + base;
      double* tmp = arena->AllocDoubles(n);
      for (size_t i = 0; i < n; ++i) tmp[i] = vals[offs[i]];
      kernels::HashF64(tmp, hashes, static_cast<int>(n));
      return;
    }
    case DataType::kString: {
      const std::string* vals = col.StringsData() + base;
      for (size_t i = 0; i < n; ++i) {
        if (nulls[i]) continue;
        const std::string& s = vals[offs[i]];
        hashes[i] = kernels::HashBytes(s.data(), s.size());
      }
      return;
    }
  }
}

}  // namespace htapex
