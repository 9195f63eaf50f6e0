#ifndef HTAPEX_SQL_EXPR_H_
#define HTAPEX_SQL_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "catalog/value.h"
#include "common/result.h"

namespace htapex {

/// Kinds of expression nodes. One tagged struct keeps the AST compact; the
/// binder annotates nodes in place.
enum class ExprKind {
  kLiteral,     // literal value
  kColumnRef,   // [table.]column
  kStar,        // * (only inside COUNT(*) or SELECT *)
  kComparison,  // a <op> b
  kAnd,
  kOr,
  kNot,
  kIn,        // child[0] IN (child[1..])
  kBetween,   // child[0] BETWEEN child[1] AND child[2]
  kFunction,  // f(args...)
  kAggregate, // agg(arg) / COUNT(*)
  kArithmetic,// a <op> b
  kIsNull     // child[0] IS [NOT] NULL
};

enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe, kLike };
enum class ArithOp { kAdd, kSub, kMul, kDiv };
enum class AggKind { kCount, kSum, kAvg, kMin, kMax };

const char* CompareOpName(CompareOp op);
const char* AggKindName(AggKind k);

/// An expression tree node.
struct Expr {
  ExprKind kind;
  explicit Expr(ExprKind k) : kind(k) {}

  // kLiteral
  Value literal;
  // kColumnRef: as written; binder fills the resolved fields.
  std::string table_name;   // qualifier as written (may be an alias), or ""
  std::string column_name;
  int bound_table = -1;     // index into the bound FROM list
  int bound_column = -1;    // column ordinal within that table
  int flat_slot = -1;       // slot in the composite row layout
  DataType result_type = DataType::kInt;
  // kComparison / kArithmetic
  CompareOp cmp_op = CompareOp::kEq;
  ArithOp arith_op = ArithOp::kAdd;
  // kFunction
  std::string func_name;
  // kAggregate
  AggKind agg_kind = AggKind::kCount;
  bool count_star = false;
  bool distinct = false;  // COUNT(DISTINCT x) / SUM(DISTINCT x)
  // kIsNull
  bool negated = false;   // IS NOT NULL

  std::vector<std::unique_ptr<Expr>> children;

  /// Deep copy.
  std::unique_ptr<Expr> Clone() const;

  /// SQL-ish rendering for plan text and prompts.
  std::string ToString() const;

  /// True if any node below (or at) this one is an aggregate.
  bool ContainsAggregate() const;

  /// Collects all column-ref nodes in this subtree.
  void CollectColumnRefs(std::vector<const Expr*>* out) const;
};

std::unique_ptr<Expr> MakeLiteral(Value v);
std::unique_ptr<Expr> MakeColumnRef(std::string table, std::string column);
std::unique_ptr<Expr> MakeComparison(CompareOp op, std::unique_ptr<Expr> l,
                                     std::unique_ptr<Expr> r);
std::unique_ptr<Expr> MakeAnd(std::unique_ptr<Expr> l, std::unique_ptr<Expr> r);

/// Evaluates a bound expression against a composite row (see binder.h for
/// the flat-slot layout). Comparison/logic yield Int(0/1); NULL propagates.
/// A string where a number or a truth value is expected, and int64
/// overflow, are execution errors.
Result<Value> EvalExpr(const Expr& expr, const std::vector<Value>& row);

/// Evaluates a bound *predicate*: it passes only when true, not when false
/// or unknown (NULL). Comparison, LIKE, IN, BETWEEN, IS [NOT] NULL, AND,
/// OR and NOT read column and literal operands in place, without copying
/// them; any other expression is evaluated and its value tested: a number
/// is true iff nonzero (a double iff its magnitude is at least 1, what
/// truncating it gave), and a string is an execution error.
Result<bool> EvalPredicate(const Expr& expr, const std::vector<Value>& row);

}  // namespace htapex

#endif  // HTAPEX_SQL_EXPR_H_
