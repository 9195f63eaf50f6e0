#include "sql/expr.h"

#include <cmath>
#include <cstdlib>
#include <limits>

#include "common/string_util.h"

namespace htapex {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "<>";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
    case CompareOp::kLike:
      return "LIKE";
  }
  return "?";
}

const char* AggKindName(AggKind k) {
  switch (k) {
    case AggKind::kCount:
      return "COUNT";
    case AggKind::kSum:
      return "SUM";
    case AggKind::kAvg:
      return "AVG";
    case AggKind::kMin:
      return "MIN";
    case AggKind::kMax:
      return "MAX";
  }
  return "?";
}

std::unique_ptr<Expr> Expr::Clone() const {
  auto out = std::make_unique<Expr>(kind);
  out->literal = literal;
  out->table_name = table_name;
  out->column_name = column_name;
  out->bound_table = bound_table;
  out->bound_column = bound_column;
  out->flat_slot = flat_slot;
  out->result_type = result_type;
  out->cmp_op = cmp_op;
  out->arith_op = arith_op;
  out->func_name = func_name;
  out->agg_kind = agg_kind;
  out->count_star = count_star;
  out->distinct = distinct;
  out->negated = negated;
  out->children.reserve(children.size());
  for (const auto& c : children) out->children.push_back(c->Clone());
  return out;
}

std::string Expr::ToString() const {
  switch (kind) {
    case ExprKind::kLiteral:
      return literal.ToString();
    case ExprKind::kColumnRef:
      return table_name.empty() ? column_name : table_name + "." + column_name;
    case ExprKind::kStar:
      return "*";
    case ExprKind::kComparison:
      return children[0]->ToString() + " " + CompareOpName(cmp_op) + " " +
             children[1]->ToString();
    case ExprKind::kAnd:
      return "(" + children[0]->ToString() + " AND " + children[1]->ToString() +
             ")";
    case ExprKind::kOr:
      return "(" + children[0]->ToString() + " OR " + children[1]->ToString() +
             ")";
    case ExprKind::kNot:
      return "NOT (" + children[0]->ToString() + ")";
    case ExprKind::kIn: {
      std::string out = children[0]->ToString() + " IN (";
      for (size_t i = 1; i < children.size(); ++i) {
        if (i > 1) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kBetween:
      return children[0]->ToString() + " BETWEEN " + children[1]->ToString() +
             " AND " + children[2]->ToString();
    case ExprKind::kFunction: {
      std::string out = func_name + "(";
      for (size_t i = 0; i < children.size(); ++i) {
        if (i > 0) out += ", ";
        out += children[i]->ToString();
      }
      return out + ")";
    }
    case ExprKind::kAggregate:
      if (count_star) return "COUNT(*)";
      return std::string(AggKindName(agg_kind)) + "(" +
             (distinct ? "DISTINCT " : "") + children[0]->ToString() + ")";
    case ExprKind::kIsNull:
      return children[0]->ToString() + (negated ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kArithmetic: {
      const char* op = arith_op == ArithOp::kAdd   ? "+"
                       : arith_op == ArithOp::kSub ? "-"
                       : arith_op == ArithOp::kMul ? "*"
                                                   : "/";
      return "(" + children[0]->ToString() + " " + op + " " +
             children[1]->ToString() + ")";
    }
  }
  return "?";
}

bool Expr::ContainsAggregate() const {
  if (kind == ExprKind::kAggregate) return true;
  for (const auto& c : children) {
    if (c->ContainsAggregate()) return true;
  }
  return false;
}

void Expr::CollectColumnRefs(std::vector<const Expr*>* out) const {
  if (kind == ExprKind::kColumnRef) out->push_back(this);
  for (const auto& c : children) c->CollectColumnRefs(out);
}

std::unique_ptr<Expr> MakeLiteral(Value v) {
  auto e = std::make_unique<Expr>(ExprKind::kLiteral);
  e->literal = std::move(v);
  return e;
}

std::unique_ptr<Expr> MakeColumnRef(std::string table, std::string column) {
  auto e = std::make_unique<Expr>(ExprKind::kColumnRef);
  e->table_name = std::move(table);
  e->column_name = std::move(column);
  return e;
}

std::unique_ptr<Expr> MakeComparison(CompareOp op, std::unique_ptr<Expr> l,
                                     std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>(ExprKind::kComparison);
  e->cmp_op = op;
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

std::unique_ptr<Expr> MakeAnd(std::unique_ptr<Expr> l, std::unique_ptr<Expr> r) {
  auto e = std::make_unique<Expr>(ExprKind::kAnd);
  e->children.push_back(std::move(l));
  e->children.push_back(std::move(r));
  return e;
}

namespace {

/// Points `*out` at the row's value for column ref `e`.
Status ColumnSlot(const Expr& e, const std::vector<Value>& row,
                  const Value** out) {
  if (e.flat_slot < 0 || e.flat_slot >= static_cast<int>(row.size())) {
    return Status::ExecutionError("unbound column ref: " + e.ToString());
  }
  *out = &row[static_cast<size_t>(e.flat_slot)];
  return Status::OK();
}

/// Points `*out` at the value of operand `e`: into the row for a column
/// ref, at the literal for a literal, and otherwise at `*tmp`, which
/// receives the evaluated value. Only the last case copies.
Status Operand(const Expr& e, const std::vector<Value>& row, Value* tmp,
               const Value** out) {
  switch (e.kind) {
    case ExprKind::kColumnRef:
      return ColumnSlot(e, row, out);
    case ExprKind::kLiteral:
      *out = &e.literal;
      return Status::OK();
    default: {
      Result<Value> v = EvalExpr(e, row);
      if (!v.ok()) return v.status();
      *tmp = std::move(v).value();
      *out = tmp;
      return Status::OK();
    }
  }
}

/// SQL's three truth values; kUnknown is the answer of a NULL operand.
enum class Truth { kFalse, kTrue, kUnknown };

Truth ToTruth(bool b) { return b ? Truth::kTrue : Truth::kFalse; }

/// The truth of `v`, the value of `e`, in a boolean position.
Result<Truth> TruthOf(const Value& v, const Expr& e) {
  if (v.is_null()) return Truth::kUnknown;
  if (v.is_int()) return ToTruth(v.AsInt() != 0);
  if (v.is_double()) return ToTruth(std::fabs(v.AsDouble()) >= 1.0);
  return Status::ExecutionError("a string is not a truth value: " +
                                e.ToString());
}

/// Function argument `v` (`what`) as an int64, truncated toward zero. A
/// string, or a double whose truncation int64 cannot hold, is an error.
Result<int64_t> IntArg(const Value& v, const char* what) {
  if (v.is_int()) return v.AsInt();
  if (v.is_double()) {
    const double d = v.AsDouble();
    // [-2^63, 2^63), where the truncation is defined; false for NaN.
    if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
      return static_cast<int64_t>(d);
    }
  }
  return Status::ExecutionError(std::string(what) +
                                " is not a number in int64 range: " +
                                v.ToString());
}

Result<Value> EvalFunction(const Expr& expr, const std::vector<Value>& row) {
  std::string fn = ToLower(expr.func_name);
  std::vector<Value> args;
  args.reserve(expr.children.size());
  for (const auto& c : expr.children) {
    HTAPEX_ASSIGN_OR_RETURN(Value v, EvalExpr(*c, row));
    args.push_back(std::move(v));
  }
  for (const Value& a : args) {
    if (a.is_null()) return Value::Null();
  }
  if (fn == "substring" || fn == "substr") {
    if (args.size() != 3 || !args[0].is_string()) {
      return Status::ExecutionError("SUBSTRING expects (string, start, length)");
    }
    const std::string& s = args[0].AsString();
    HTAPEX_ASSIGN_OR_RETURN(int64_t start,  // 1-based
                            IntArg(args[1], "SUBSTRING start"));
    HTAPEX_ASSIGN_OR_RETURN(int64_t len, IntArg(args[2], "SUBSTRING length"));
    if (start < 1) start = 1;
    if (start > static_cast<int64_t>(s.size()) || len <= 0) {
      return Value::Str("");
    }
    return Value::Str(s.substr(static_cast<size_t>(start - 1),
                               static_cast<size_t>(len)));
  }
  if (fn == "lower") {
    if (args.size() != 1 || !args[0].is_string()) {
      return Status::ExecutionError("LOWER expects one string argument");
    }
    return Value::Str(ToLower(args[0].AsString()));
  }
  if (fn == "upper") {
    if (args.size() != 1 || !args[0].is_string()) {
      return Status::ExecutionError("UPPER expects one string argument");
    }
    return Value::Str(ToUpper(args[0].AsString()));
  }
  if (fn == "length") {
    if (args.size() != 1 || !args[0].is_string()) {
      return Status::ExecutionError("LENGTH expects one string argument");
    }
    return Value::Int(static_cast<int64_t>(args[0].AsString().size()));
  }
  if (fn == "year") {
    if (args.size() != 1) return Status::ExecutionError("YEAR expects one argument");
    HTAPEX_ASSIGN_OR_RETURN(int64_t days, IntArg(args[0], "YEAR argument"));
    // FormatDate adds 719,468 to the day count, which must not overflow.
    if (days > std::numeric_limits<int64_t>::max() - 719468) {
      return Status::ExecutionError("YEAR argument out of range: " +
                                    args[0].ToString());
    }
    std::string date = FormatDate(days);
    return Value::Int(std::strtoll(date.substr(0, 4).c_str(), nullptr, 10));
  }
  return Status::ExecutionError("unknown function: " + expr.func_name);
}

Result<Value> EvalArithmetic(const Expr& expr, const std::vector<Value>& row) {
  Value lt, rt;
  const Value* l = nullptr;
  const Value* r = nullptr;
  HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[0], row, &lt, &l));
  HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[1], row, &rt, &r));
  if (l->is_null() || r->is_null()) return Value::Null();
  auto on_string = [&expr] {
    return Status::ExecutionError("arithmetic on a string: " +
                                  expr.ToString());
  };
  if (expr.arith_op == ArithOp::kDiv) {
    // The divisor first: a zero divisor gives NULL whatever the dividend.
    if (r->is_string()) return on_string();
    const double d = r->AsDouble();
    if (d == 0.0) return Value::Null();
    if (l->is_string()) return on_string();
    return Value::Double(l->AsDouble() / d);
  }
  if (l->is_string() || r->is_string()) return on_string();
  if (!l->is_int() || !r->is_int()) {
    const double a = l->AsDouble();
    const double b = r->AsDouble();
    return Value::Double(expr.arith_op == ArithOp::kAdd   ? a + b
                         : expr.arith_op == ArithOp::kSub ? a - b
                                                          : a * b);
  }
  const int64_t a = l->AsInt();
  const int64_t b = r->AsInt();
  int64_t out = 0;
  const bool overflow =
      expr.arith_op == ArithOp::kAdd   ? __builtin_add_overflow(a, b, &out)
      : expr.arith_op == ArithOp::kSub ? __builtin_sub_overflow(a, b, &out)
                                       : __builtin_mul_overflow(a, b, &out);
  if (overflow) {
    return Status::ExecutionError("integer overflow: " + expr.ToString());
  }
  return Value::Int(out);
}

/// Evaluates `expr` in a boolean position, three-valued; the one
/// evaluator of comparisons, LIKE, IN, BETWEEN, IS NULL and the
/// connectives, which EvalPredicate and EvalExpr share.
Result<Truth> EvalTruth(const Expr& expr, const std::vector<Value>& row) {
  switch (expr.kind) {
    case ExprKind::kComparison: {
      Value lt, rt;
      const Value* l = nullptr;
      const Value* r = nullptr;
      HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[0], row, &lt, &l));
      HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[1], row, &rt, &r));
      if (l->is_null() || r->is_null()) return Truth::kUnknown;
      if (expr.cmp_op == CompareOp::kLike) {
        if (!l->is_string() || !r->is_string()) {
          return Status::ExecutionError("LIKE expects string operands");
        }
        return ToTruth(LikeMatch(l->AsString(), r->AsString()));
      }
      const int c = l->Compare(*r);
      switch (expr.cmp_op) {
        case CompareOp::kEq:
          return ToTruth(c == 0);
        case CompareOp::kNe:
          return ToTruth(c != 0);
        case CompareOp::kLt:
          return ToTruth(c < 0);
        case CompareOp::kLe:
          return ToTruth(c <= 0);
        case CompareOp::kGt:
          return ToTruth(c > 0);
        case CompareOp::kGe:
          return ToTruth(c >= 0);
        case CompareOp::kLike:
          break;
      }
      return Status::Internal("unreachable comparison op");
    }
    case ExprKind::kAnd: {
      HTAPEX_ASSIGN_OR_RETURN(Truth l, EvalTruth(*expr.children[0], row));
      if (l == Truth::kFalse) return l;
      HTAPEX_ASSIGN_OR_RETURN(Truth r, EvalTruth(*expr.children[1], row));
      if (r == Truth::kFalse) return r;
      return l == Truth::kUnknown ? l : r;
    }
    case ExprKind::kOr: {
      HTAPEX_ASSIGN_OR_RETURN(Truth l, EvalTruth(*expr.children[0], row));
      if (l == Truth::kTrue) return l;
      HTAPEX_ASSIGN_OR_RETURN(Truth r, EvalTruth(*expr.children[1], row));
      if (r == Truth::kTrue) return r;
      return l == Truth::kUnknown ? l : r;
    }
    case ExprKind::kNot: {
      HTAPEX_ASSIGN_OR_RETURN(Truth t, EvalTruth(*expr.children[0], row));
      if (t == Truth::kUnknown) return t;
      return ToTruth(t == Truth::kFalse);
    }
    case ExprKind::kIn: {
      Value nt, vt;
      const Value* needle = nullptr;
      HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[0], row, &nt, &needle));
      if (needle->is_null()) return Truth::kUnknown;
      bool saw_null = false;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        const Value* v = nullptr;
        HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[i], row, &vt, &v));
        if (v->is_null()) {
          saw_null = true;
          continue;
        }
        if (needle->Compare(*v) == 0) return Truth::kTrue;
      }
      return saw_null ? Truth::kUnknown : Truth::kFalse;
    }
    case ExprKind::kBetween: {
      Value vt, lot, hit;
      const Value* v = nullptr;
      const Value* lo = nullptr;
      const Value* hi = nullptr;
      HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[0], row, &vt, &v));
      HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[1], row, &lot, &lo));
      HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[2], row, &hit, &hi));
      if (v->is_null() || lo->is_null() || hi->is_null()) {
        return Truth::kUnknown;
      }
      return ToTruth(v->Compare(*lo) >= 0 && v->Compare(*hi) <= 0);
    }
    case ExprKind::kIsNull: {
      Value tmp;
      const Value* v = nullptr;
      HTAPEX_RETURN_IF_ERROR(Operand(*expr.children[0], row, &tmp, &v));
      return ToTruth(v->is_null() != expr.negated);
    }
    default: {
      Value tmp;
      const Value* v = nullptr;
      HTAPEX_RETURN_IF_ERROR(Operand(expr, row, &tmp, &v));
      return TruthOf(*v, expr);
    }
  }
}

}  // namespace

Result<Value> EvalExpr(const Expr& expr, const std::vector<Value>& row) {
  switch (expr.kind) {
    case ExprKind::kLiteral:
      return expr.literal;
    case ExprKind::kColumnRef: {
      const Value* v = nullptr;
      HTAPEX_RETURN_IF_ERROR(ColumnSlot(expr, row, &v));
      return *v;
    }
    case ExprKind::kStar:
      return Status::ExecutionError("* cannot be evaluated as a value");
    case ExprKind::kComparison:
    case ExprKind::kAnd:
    case ExprKind::kOr:
    case ExprKind::kNot:
    case ExprKind::kIn:
    case ExprKind::kBetween:
    case ExprKind::kIsNull: {
      HTAPEX_ASSIGN_OR_RETURN(Truth t, EvalTruth(expr, row));
      if (t == Truth::kUnknown) return Value::Null();
      return Value::Int(t == Truth::kTrue ? 1 : 0);
    }
    case ExprKind::kFunction:
      return EvalFunction(expr, row);
    case ExprKind::kAggregate:
      return Status::ExecutionError(
          "aggregate must be evaluated by an aggregation operator");
    case ExprKind::kArithmetic:
      return EvalArithmetic(expr, row);
  }
  return Status::Internal("unreachable expression kind");
}

Result<bool> EvalPredicate(const Expr& expr, const std::vector<Value>& row) {
  HTAPEX_ASSIGN_OR_RETURN(Truth t, EvalTruth(expr, row));
  return t == Truth::kTrue;
}

}  // namespace htapex
