#include "sql/parser.h"

#include "common/string_util.h"
#include "sql/lexer.h"

namespace htapex {

namespace {

// Parenthesised expressions, function and aggregate arguments, NOT chains
// and unary minus recurse; a statement nested deeper than this is rejected
// with a parse error instead of overflowing the stack (here or in the
// binder and evaluator, which recurse over the tree). Binary operators
// (OR, AND, + - * /) count against the same limit: a flat chain of them
// builds a left-deep tree as deep as the chain is long, and how deep an
// operand ends up is only known once the chains above it are parsed, so
// every application stays counted until its top-level expression ends.
constexpr int kMaxNesting = 256;

/// Holds one level of expression nesting for the lifetime of a parse call.
class NestingGuard {
 public:
  explicit NestingGuard(int* depth) : depth_(depth) { ++*depth_; }
  ~NestingGuard() { --*depth_; }
  NestingGuard(const NestingGuard&) = delete;
  NestingGuard& operator=(const NestingGuard&) = delete;

 private:
  int* depth_;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> Parse() {
    SelectStatement stmt;
    HTAPEX_RETURN_IF_ERROR(Expect("SELECT"));
    HTAPEX_RETURN_IF_ERROR(ParseSelectList(&stmt));
    HTAPEX_RETURN_IF_ERROR(Expect("FROM"));
    HTAPEX_RETURN_IF_ERROR(ParseFrom(&stmt));
    if (ConsumeKeyword("WHERE")) {
      std::unique_ptr<Expr> where;
      HTAPEX_ASSIGN_OR_RETURN(where, ParseExpr());
      stmt.where = stmt.where == nullptr
                       ? std::move(where)
                       : MakeAnd(std::move(stmt.where), std::move(where));
    }
    if (ConsumeKeyword("GROUP")) {
      HTAPEX_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        std::unique_ptr<Expr> e;
        HTAPEX_ASSIGN_OR_RETURN(e, ParseExpr());
        stmt.group_by.push_back(std::move(e));
        if (!ConsumeOperator(",")) break;
      }
    }
    if (ConsumeKeyword("HAVING")) {
      HTAPEX_ASSIGN_OR_RETURN(stmt.having, ParseExpr());
    }
    if (ConsumeKeyword("ORDER")) {
      HTAPEX_RETURN_IF_ERROR(Expect("BY"));
      while (true) {
        OrderItem item;
        HTAPEX_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (ConsumeKeyword("DESC")) {
          item.descending = true;
        } else {
          ConsumeKeyword("ASC");
        }
        stmt.order_by.push_back(std::move(item));
        if (!ConsumeOperator(",")) break;
      }
    }
    if (ConsumeKeyword("LIMIT")) {
      HTAPEX_ASSIGN_OR_RETURN(int64_t v, ExpectInteger());
      stmt.limit = v;
    }
    if (ConsumeKeyword("OFFSET")) {
      HTAPEX_ASSIGN_OR_RETURN(int64_t v, ExpectInteger());
      stmt.offset = v;
    }
    ConsumeOperator(";");
    if (Peek().type != TokenType::kEnd) {
      return Status::ParseError(
          StrFormat("unexpected token '%s' at offset %zu", Peek().text.c_str(),
                    Peek().offset));
    }
    return stmt;
  }

 private:
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_++]; }

  bool ConsumeKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool ConsumeOperator(std::string_view op) {
    if (Peek().IsOperator(op)) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status Expect(std::string_view kw) {
    if (!ConsumeKeyword(kw)) {
      return Status::ParseError(
          StrFormat("expected %s at offset %zu (got '%s')",
                    std::string(kw).c_str(), Peek().offset, Peek().text.c_str()));
    }
    return Status::OK();
  }
  Status ExpectOperator(std::string_view op) {
    if (!ConsumeOperator(op)) {
      return Status::ParseError(
          StrFormat("expected '%s' at offset %zu (got '%s')",
                    std::string(op).c_str(), Peek().offset, Peek().text.c_str()));
    }
    return Status::OK();
  }
  Result<int64_t> ExpectInteger() {
    if (Peek().type != TokenType::kInteger) {
      return Status::ParseError(
          StrFormat("expected integer at offset %zu", Peek().offset));
    }
    return std::strtoll(Advance().text.c_str(), nullptr, 10);
  }
  Result<std::string> ExpectIdentifier() {
    if (Peek().type != TokenType::kIdentifier) {
      return Status::ParseError(
          StrFormat("expected identifier at offset %zu (got '%s')",
                    Peek().offset, Peek().text.c_str()));
    }
    return Advance().text;
  }

  Status ParseSelectList(SelectStatement* stmt) {
    if (ConsumeOperator("*")) {
      stmt->select_star = true;
      return Status::OK();
    }
    while (true) {
      SelectItem item;
      HTAPEX_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (ConsumeKeyword("AS")) {
        HTAPEX_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier());
      } else if (Peek().type == TokenType::kIdentifier &&
                 !Peek(1).IsOperator(".") && !Peek(1).IsOperator("(")) {
        item.alias = Advance().text;
      }
      stmt->items.push_back(std::move(item));
      if (!ConsumeOperator(",")) break;
    }
    return Status::OK();
  }

  Status ParseFrom(SelectStatement* stmt) {
    HTAPEX_RETURN_IF_ERROR(ParseTableRef(stmt));
    while (true) {
      if (ConsumeOperator(",")) {
        HTAPEX_RETURN_IF_ERROR(ParseTableRef(stmt));
        continue;
      }
      bool inner = ConsumeKeyword("INNER");
      if (ConsumeKeyword("JOIN")) {
        HTAPEX_RETURN_IF_ERROR(ParseTableRef(stmt));
        HTAPEX_RETURN_IF_ERROR(Expect("ON"));
        std::unique_ptr<Expr> cond;
        HTAPEX_ASSIGN_OR_RETURN(cond, ParseExpr());
        stmt->where = stmt->where == nullptr
                          ? std::move(cond)
                          : MakeAnd(std::move(stmt->where), std::move(cond));
        continue;
      }
      if (inner) {
        return Status::ParseError("INNER must be followed by JOIN");
      }
      break;
    }
    return Status::OK();
  }

  Status ParseTableRef(SelectStatement* stmt) {
    if (stmt->from.size() >= static_cast<size_t>(kMaxStatementTables)) {
      return Status::InvalidArgument(
          StrFormat("more than %d tables in one statement (offset %zu)",
                    kMaxStatementTables, Peek().offset));
    }
    TableRef ref;
    HTAPEX_ASSIGN_OR_RETURN(ref.table, ExpectIdentifier());
    if (ConsumeKeyword("AS")) {
      HTAPEX_ASSIGN_OR_RETURN(ref.alias, ExpectIdentifier());
    } else if (Peek().type == TokenType::kIdentifier) {
      ref.alias = Advance().text;
    } else {
      ref.alias = ref.table;
    }
    stmt->from.push_back(std::move(ref));
    return Status::OK();
  }

  Status CheckNesting() const {
    if (depth_ + operators_ <= kMaxNesting) return Status::OK();
    return Status::ParseError(StrFormat(
        "expression nested deeper than %d levels (binary operators count "
        "as levels) at offset %zu",
        kMaxNesting, Peek().offset));
  }

  /// Counts one binary-operator application against kMaxNesting.
  Status CountOperator() {
    ++operators_;
    return CheckNesting();
  }

  // Expression grammar: Or > And > Not > Predicate > Additive >
  // Multiplicative > Primary.
  Result<std::unique_ptr<Expr>> ParseExpr() {
    if (depth_ == 0) operators_ = 0;  // a new top-level expression
    NestingGuard nested(&depth_);
    HTAPEX_RETURN_IF_ERROR(CheckNesting());
    return ParseOr();
  }

  Result<std::unique_ptr<Expr>> ParseOr() {
    std::unique_ptr<Expr> left;
    HTAPEX_ASSIGN_OR_RETURN(left, ParseAnd());
    while (ConsumeKeyword("OR")) {
      HTAPEX_RETURN_IF_ERROR(CountOperator());
      std::unique_ptr<Expr> right;
      HTAPEX_ASSIGN_OR_RETURN(right, ParseAnd());
      auto e = std::make_unique<Expr>(ExprKind::kOr);
      e->children.push_back(std::move(left));
      e->children.push_back(std::move(right));
      left = std::move(e);
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseAnd() {
    std::unique_ptr<Expr> left;
    HTAPEX_ASSIGN_OR_RETURN(left, ParseNot());
    while (Peek().IsKeyword("AND")) {
      ++pos_;
      HTAPEX_RETURN_IF_ERROR(CountOperator());
      std::unique_ptr<Expr> right;
      HTAPEX_ASSIGN_OR_RETURN(right, ParseNot());
      left = MakeAnd(std::move(left), std::move(right));
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseNot() {
    if (ConsumeKeyword("NOT")) {
      NestingGuard nested(&depth_);
      HTAPEX_RETURN_IF_ERROR(CheckNesting());
      std::unique_ptr<Expr> inner;
      HTAPEX_ASSIGN_OR_RETURN(inner, ParseNot());
      auto e = std::make_unique<Expr>(ExprKind::kNot);
      e->children.push_back(std::move(inner));
      return e;
    }
    return ParsePredicate();
  }

  Result<std::unique_ptr<Expr>> ParsePredicate() {
    std::unique_ptr<Expr> left;
    HTAPEX_ASSIGN_OR_RETURN(left, ParseAdditive());
    bool negate = false;
    if (Peek().IsKeyword("NOT") &&
        (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("BETWEEN") ||
         Peek(1).IsKeyword("LIKE"))) {
      negate = true;
      ++pos_;
    }
    std::unique_ptr<Expr> pred;
    if (ConsumeKeyword("IN")) {
      HTAPEX_RETURN_IF_ERROR(ExpectOperator("("));
      auto e = std::make_unique<Expr>(ExprKind::kIn);
      e->children.push_back(std::move(left));
      while (true) {
        std::unique_ptr<Expr> item;
        HTAPEX_ASSIGN_OR_RETURN(item, ParseExpr());
        e->children.push_back(std::move(item));
        if (!ConsumeOperator(",")) break;
      }
      HTAPEX_RETURN_IF_ERROR(ExpectOperator(")"));
      pred = std::move(e);
    } else if (ConsumeKeyword("BETWEEN")) {
      auto e = std::make_unique<Expr>(ExprKind::kBetween);
      e->children.push_back(std::move(left));
      std::unique_ptr<Expr> lo, hi;
      HTAPEX_ASSIGN_OR_RETURN(lo, ParseAdditive());
      HTAPEX_RETURN_IF_ERROR(Expect("AND"));
      HTAPEX_ASSIGN_OR_RETURN(hi, ParseAdditive());
      e->children.push_back(std::move(lo));
      e->children.push_back(std::move(hi));
      pred = std::move(e);
    } else if (ConsumeKeyword("IS")) {
      bool negated = ConsumeKeyword("NOT");
      HTAPEX_RETURN_IF_ERROR(Expect("NULL"));
      auto e = std::make_unique<Expr>(ExprKind::kIsNull);
      e->negated = negated;
      e->children.push_back(std::move(left));
      pred = std::move(e);
      if (negate) return Status::ParseError("NOT before IS NULL is invalid");
      return Result<std::unique_ptr<Expr>>(std::move(pred));
    } else if (ConsumeKeyword("LIKE")) {
      std::unique_ptr<Expr> pattern;
      HTAPEX_ASSIGN_OR_RETURN(pattern, ParseAdditive());
      pred = MakeComparison(CompareOp::kLike, std::move(left),
                            std::move(pattern));
    } else {
      if (negate) return Status::ParseError("dangling NOT in predicate");
      // Plain comparison or bare expression.
      static const std::pair<const char*, CompareOp> kOps[] = {
          {"=", CompareOp::kEq},  {"<>", CompareOp::kNe},
          {"<=", CompareOp::kLe}, {">=", CompareOp::kGe},
          {"<", CompareOp::kLt},  {">", CompareOp::kGt}};
      for (const auto& [text, op] : kOps) {
        if (ConsumeOperator(text)) {
          std::unique_ptr<Expr> right;
          HTAPEX_ASSIGN_OR_RETURN(right, ParseAdditive());
          return MakeComparison(op, std::move(left), std::move(right));
        }
      }
      return left;
    }
    if (negate) {
      auto e = std::make_unique<Expr>(ExprKind::kNot);
      e->children.push_back(std::move(pred));
      return Result<std::unique_ptr<Expr>>(std::move(e));
    }
    return pred;
  }

  Result<std::unique_ptr<Expr>> ParseAdditive() {
    std::unique_ptr<Expr> left;
    HTAPEX_ASSIGN_OR_RETURN(left, ParseMultiplicative());
    while (Peek().IsOperator("+") || Peek().IsOperator("-")) {
      ArithOp op = Advance().text == "+" ? ArithOp::kAdd : ArithOp::kSub;
      HTAPEX_RETURN_IF_ERROR(CountOperator());
      std::unique_ptr<Expr> right;
      HTAPEX_ASSIGN_OR_RETURN(right, ParseMultiplicative());
      auto e = std::make_unique<Expr>(ExprKind::kArithmetic);
      e->arith_op = op;
      e->children.push_back(std::move(left));
      e->children.push_back(std::move(right));
      left = std::move(e);
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseMultiplicative() {
    std::unique_ptr<Expr> left;
    HTAPEX_ASSIGN_OR_RETURN(left, ParsePrimary());
    while (Peek().IsOperator("*") || Peek().IsOperator("/")) {
      ArithOp op = Advance().text == "*" ? ArithOp::kMul : ArithOp::kDiv;
      HTAPEX_RETURN_IF_ERROR(CountOperator());
      std::unique_ptr<Expr> right;
      HTAPEX_ASSIGN_OR_RETURN(right, ParsePrimary());
      auto e = std::make_unique<Expr>(ExprKind::kArithmetic);
      e->arith_op = op;
      e->children.push_back(std::move(left));
      e->children.push_back(std::move(right));
      left = std::move(e);
    }
    return left;
  }

  Result<std::unique_ptr<Expr>> ParseAggregate(AggKind kind) {
    HTAPEX_RETURN_IF_ERROR(ExpectOperator("("));
    auto e = std::make_unique<Expr>(ExprKind::kAggregate);
    e->agg_kind = kind;
    if (kind == AggKind::kCount && ConsumeOperator("*")) {
      e->count_star = true;
    } else {
      e->distinct = ConsumeKeyword("DISTINCT");
      std::unique_ptr<Expr> arg;
      HTAPEX_ASSIGN_OR_RETURN(arg, ParseExpr());
      e->children.push_back(std::move(arg));
    }
    HTAPEX_RETURN_IF_ERROR(ExpectOperator(")"));
    return Result<std::unique_ptr<Expr>>(std::move(e));
  }

  Result<std::unique_ptr<Expr>> ParsePrimary() {
    // Unary minus: fold into the literal when possible, else 0 - expr.
    if (Peek().IsOperator("-")) {
      ++pos_;
      NestingGuard nested(&depth_);
      HTAPEX_RETURN_IF_ERROR(CheckNesting());
      std::unique_ptr<Expr> inner;
      HTAPEX_ASSIGN_OR_RETURN(inner, ParsePrimary());
      if (inner->kind == ExprKind::kLiteral && inner->literal.is_int()) {
        return MakeLiteral(Value::Int(-inner->literal.AsInt()));
      }
      if (inner->kind == ExprKind::kLiteral && inner->literal.is_double()) {
        return MakeLiteral(Value::Double(-inner->literal.AsDouble()));
      }
      auto neg = std::make_unique<Expr>(ExprKind::kArithmetic);
      neg->arith_op = ArithOp::kSub;
      neg->children.push_back(MakeLiteral(Value::Int(0)));
      neg->children.push_back(std::move(inner));
      return Result<std::unique_ptr<Expr>>(std::move(neg));
    }
    const Token& tok = Peek();
    if (tok.type == TokenType::kInteger) {
      ++pos_;
      return MakeLiteral(Value::Int(std::strtoll(tok.text.c_str(), nullptr, 10)));
    }
    if (tok.type == TokenType::kFloat) {
      ++pos_;
      return MakeLiteral(Value::Double(std::strtod(tok.text.c_str(), nullptr)));
    }
    if (tok.type == TokenType::kString) {
      ++pos_;
      return MakeLiteral(Value::Str(tok.text));
    }
    if (tok.IsKeyword("NULL")) {
      ++pos_;
      return MakeLiteral(Value::Null());
    }
    if (tok.IsKeyword("DATE")) {
      ++pos_;
      if (Peek().type != TokenType::kString) {
        return Status::ParseError("DATE must be followed by a string literal");
      }
      int64_t days = 0;
      if (!ParseDate(Peek().text, &days)) {
        return Status::ParseError("invalid date literal: " + Peek().text);
      }
      ++pos_;
      auto lit = MakeLiteral(Value::Date(days));
      lit->result_type = DataType::kDate;
      return Result<std::unique_ptr<Expr>>(std::move(lit));
    }
    if (tok.IsKeyword("COUNT")) {
      ++pos_;
      return ParseAggregate(AggKind::kCount);
    }
    if (tok.IsKeyword("SUM")) {
      ++pos_;
      return ParseAggregate(AggKind::kSum);
    }
    if (tok.IsKeyword("AVG")) {
      ++pos_;
      return ParseAggregate(AggKind::kAvg);
    }
    if (tok.IsKeyword("MIN")) {
      ++pos_;
      return ParseAggregate(AggKind::kMin);
    }
    if (tok.IsKeyword("MAX")) {
      ++pos_;
      return ParseAggregate(AggKind::kMax);
    }
    if (tok.IsOperator("(")) {
      ++pos_;
      std::unique_ptr<Expr> inner;
      HTAPEX_ASSIGN_OR_RETURN(inner, ParseExpr());
      HTAPEX_RETURN_IF_ERROR(ExpectOperator(")"));
      return Result<std::unique_ptr<Expr>>(std::move(inner));
    }
    if (tok.type == TokenType::kIdentifier) {
      // function call?
      if (Peek(1).IsOperator("(")) {
        std::string fn = Advance().text;
        ++pos_;  // '('
        auto e = std::make_unique<Expr>(ExprKind::kFunction);
        e->func_name = fn;
        if (!ConsumeOperator(")")) {
          while (true) {
            std::unique_ptr<Expr> arg;
            HTAPEX_ASSIGN_OR_RETURN(arg, ParseExpr());
            e->children.push_back(std::move(arg));
            if (!ConsumeOperator(",")) break;
          }
          HTAPEX_RETURN_IF_ERROR(ExpectOperator(")"));
        }
        return Result<std::unique_ptr<Expr>>(std::move(e));
      }
      // column ref, possibly qualified
      std::string first = Advance().text;
      if (ConsumeOperator(".")) {
        std::string second;
        HTAPEX_ASSIGN_OR_RETURN(second, ExpectIdentifier());
        return MakeColumnRef(first, second);
      }
      return MakeColumnRef("", first);
    }
    return Status::ParseError(StrFormat("unexpected token '%s' at offset %zu",
                                        tok.text.c_str(), tok.offset));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int depth_ = 0;      // current expression nesting, see kMaxNesting
  int operators_ = 0;  // binary operators in the current top-level expression
};

}  // namespace

Status CheckStatementBytes(std::string_view sql) {
  if (sql.size() <= kMaxStatementBytes) return Status::OK();
  return Status::InvalidArgument(
      StrFormat("statement is %zu bytes, over the %zu-byte limit", sql.size(),
                kMaxStatementBytes));
}

Result<SelectStatement> ParseSelect(std::string_view sql) {
  std::vector<Token> tokens;
  HTAPEX_ASSIGN_OR_RETURN(tokens, Tokenize(sql));
  return Parser(std::move(tokens)).Parse();
}

}  // namespace htapex
