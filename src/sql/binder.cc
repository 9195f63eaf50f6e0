#include "sql/binder.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "sql/parser.h"

namespace htapex {

namespace {

class Binder {
 public:
  Binder(const Catalog& catalog, BoundQuery* query)
      : catalog_(catalog), query_(query) {}

  Status BindAll() {
    HTAPEX_RETURN_IF_ERROR(BindTables());
    HTAPEX_RETURN_IF_ERROR(BindSelectList());
    HTAPEX_RETURN_IF_ERROR(BindWhere());
    for (auto& g : query_->stmt.group_by) {
      HTAPEX_RETURN_IF_ERROR(BindExpr(g.get()));
      if (g->ContainsAggregate()) {
        return Status::BindError("aggregates are not allowed in GROUP BY");
      }
    }
    if (query_->stmt.having != nullptr) {
      if (query_->stmt.group_by.empty()) {
        return Status::BindError("HAVING requires GROUP BY");
      }
      HTAPEX_RETURN_IF_ERROR(BindExpr(query_->stmt.having.get()));
      if (query_->stmt.having->ContainsAggregate()) {
        query_->has_aggregates = true;
      }
    }
    for (auto& o : query_->stmt.order_by) {
      HTAPEX_RETURN_IF_ERROR(BindOrderItem(&o));
    }
    return ValidateGrouping();
  }

 private:
  Status BindTables() {
    std::set<std::string> seen;
    int offset = 0;
    for (auto& ref : query_->stmt.from) {
      HTAPEX_ASSIGN_OR_RETURN(const TableSchema* schema,
                              catalog_.GetTable(ref.table));
      const std::string& name = ref.effective_name();
      if (!seen.insert(name).second) {
        return Status::BindError("duplicate table name/alias in FROM: " + name);
      }
      BoundTable bt;
      bt.ref = ref;
      bt.schema = schema;
      bt.flat_offset = offset;
      offset += static_cast<int>(schema->num_columns());
      query_->tables.push_back(bt);
    }
    query_->total_slots = offset;
    return Status::OK();
  }

  Status ResolveColumn(Expr* e) {
    int found_table = -1;
    int found_col = -1;
    for (int t = 0; t < query_->num_tables(); ++t) {
      const BoundTable& bt = query_->tables[static_cast<size_t>(t)];
      if (!e->table_name.empty() && e->table_name != bt.ref.effective_name() &&
          e->table_name != bt.ref.table) {
        continue;
      }
      int c = bt.schema->ColumnIndex(e->column_name);
      if (c < 0) continue;
      if (found_table >= 0) {
        return Status::BindError("ambiguous column: " + e->ToString());
      }
      found_table = t;
      found_col = c;
    }
    if (found_table < 0) {
      return Status::BindError("unknown column: " + e->ToString());
    }
    const BoundTable& bt = query_->tables[static_cast<size_t>(found_table)];
    e->bound_table = found_table;
    e->bound_column = found_col;
    e->flat_slot = bt.flat_offset + found_col;
    e->result_type = bt.schema->column(static_cast<size_t>(found_col)).type;
    return Status::OK();
  }

  Status BindExpr(Expr* e) {
    if (e->kind == ExprKind::kColumnRef) return ResolveColumn(e);
    for (auto& c : e->children) {
      HTAPEX_RETURN_IF_ERROR(BindExpr(c.get()));
    }
    switch (e->kind) {
      case ExprKind::kComparison:
      case ExprKind::kAnd:
      case ExprKind::kOr:
      case ExprKind::kNot:
      case ExprKind::kIn:
      case ExprKind::kBetween:
      case ExprKind::kIsNull:
        e->result_type = DataType::kInt;  // boolean as 0/1
        break;
      case ExprKind::kArithmetic:
        e->result_type = (e->children[0]->result_type == DataType::kDouble ||
                          e->children[1]->result_type == DataType::kDouble)
                             ? DataType::kDouble
                             : DataType::kInt;
        break;
      case ExprKind::kFunction: {
        std::string fn = ToLower(e->func_name);
        if (fn == "substring" || fn == "substr" || fn == "lower" ||
            fn == "upper") {
          e->result_type = DataType::kString;
        } else if (fn == "length" || fn == "year") {
          e->result_type = DataType::kInt;
        } else {
          return Status::BindError("unknown function: " + e->func_name);
        }
        break;
      }
      case ExprKind::kAggregate:
        if (!e->count_star && e->children[0]->ContainsAggregate()) {
          return Status::BindError("nested aggregates are not allowed");
        }
        e->result_type =
            e->agg_kind == AggKind::kCount ? DataType::kInt
            : e->agg_kind == AggKind::kAvg
                ? DataType::kDouble
                : (e->count_star ? DataType::kInt
                                 : e->children[0]->result_type);
        break;
      default:
        break;
    }
    return Status::OK();
  }

  Status BindSelectList() {
    if (query_->stmt.select_star) {
      if (!query_->stmt.items.empty()) {
        return Status::BindError("SELECT * cannot be mixed with expressions");
      }
      // Expand * into explicit column refs so downstream code has one form.
      for (int t = 0; t < query_->num_tables(); ++t) {
        const BoundTable& bt = query_->tables[static_cast<size_t>(t)];
        for (size_t c = 0; c < bt.schema->num_columns(); ++c) {
          SelectItem item;
          item.expr = MakeColumnRef(bt.ref.effective_name(),
                                    bt.schema->column(c).name);
          query_->stmt.items.push_back(std::move(item));
        }
      }
      query_->stmt.select_star = false;
    }
    if (query_->stmt.items.empty()) {
      return Status::BindError("empty select list");
    }
    for (auto& item : query_->stmt.items) {
      HTAPEX_RETURN_IF_ERROR(BindExpr(item.expr.get()));
      if (item.expr->ContainsAggregate()) query_->has_aggregates = true;
    }
    return Status::OK();
  }

  Status BindOrderItem(OrderItem* item) {
    // ORDER BY may name a select-list alias.
    if (item->expr->kind == ExprKind::kColumnRef &&
        item->expr->table_name.empty()) {
      for (const auto& sel : query_->stmt.items) {
        if (!sel.alias.empty() && sel.alias == item->expr->column_name) {
          item->expr = sel.expr->Clone();
          return Status::OK();  // already bound via the select list
        }
      }
    }
    return BindExpr(item->expr.get());
  }

  void SplitConjuncts(std::unique_ptr<Expr> e,
                      std::vector<std::unique_ptr<Expr>>* out) {
    if (e->kind == ExprKind::kAnd) {
      SplitConjuncts(std::move(e->children[0]), out);
      SplitConjuncts(std::move(e->children[1]), out);
      return;
    }
    out->push_back(std::move(e));
  }

  static bool AllLiterals(const Expr& e, size_t from_child) {
    for (size_t i = from_child; i < e.children.size(); ++i) {
      if (e.children[i]->kind != ExprKind::kLiteral) return false;
    }
    return true;
  }

  /// True when the subtree contains a function applied over a column ref.
  static bool HasFunctionOverColumn(const Expr& e) {
    if (e.kind == ExprKind::kFunction) {
      std::vector<const Expr*> refs;
      e.CollectColumnRefs(&refs);
      if (!refs.empty()) return true;
    }
    for (const auto& c : e.children) {
      if (HasFunctionOverColumn(*c)) return true;
    }
    return false;
  }

  void AnalyzeConjunct(ConjunctInfo* info) {
    const Expr& e = *info->expr;
    std::vector<const Expr*> refs;
    e.CollectColumnRefs(&refs);
    std::set<int> tables;
    for (const Expr* r : refs) tables.insert(r->bound_table);
    info->tables.assign(tables.begin(), tables.end());

    // Equi-join shape: bare column = bare column across two tables.
    if (e.kind == ExprKind::kComparison && e.cmp_op == CompareOp::kEq &&
        e.children[0]->kind == ExprKind::kColumnRef &&
        e.children[1]->kind == ExprKind::kColumnRef &&
        e.children[0]->bound_table != e.children[1]->bound_table) {
      info->is_equi_join = true;
      info->left_table = e.children[0]->bound_table;
      info->right_table = e.children[1]->bound_table;
      info->left_column = e.children[0].get();
      info->right_column = e.children[1].get();
      return;
    }

    if (info->tables.size() != 1) return;

    info->function_over_column = HasFunctionOverColumn(e);

    // Sargable single-table shapes over a bare column and literals.
    if (e.kind == ExprKind::kComparison &&
        e.children[0]->kind == ExprKind::kColumnRef &&
        e.children[1]->kind == ExprKind::kLiteral &&
        e.cmp_op != CompareOp::kLike) {
      info->sargable = true;
      info->sarg_column = e.children[0].get();
    } else if (e.kind == ExprKind::kIn &&
               e.children[0]->kind == ExprKind::kColumnRef &&
               AllLiterals(e, 1)) {
      info->sargable = true;
      info->sarg_column = e.children[0].get();
    } else if (e.kind == ExprKind::kBetween &&
               e.children[0]->kind == ExprKind::kColumnRef &&
               AllLiterals(e, 1)) {
      info->sargable = true;
      info->sarg_column = e.children[0].get();
    }
  }

  Status BindWhere() {
    if (query_->stmt.where == nullptr) return Status::OK();
    HTAPEX_RETURN_IF_ERROR(BindExpr(query_->stmt.where.get()));
    if (query_->stmt.where->ContainsAggregate()) {
      return Status::BindError("aggregates are not allowed in WHERE");
    }
    std::vector<std::unique_ptr<Expr>> parts;
    SplitConjuncts(std::move(query_->stmt.where), &parts);
    for (auto& p : parts) {
      ConjunctInfo info;
      info.expr = std::move(p);
      AnalyzeConjunct(&info);
      query_->conjuncts.push_back(std::move(info));
    }
    return Status::OK();
  }

  /// Column refs not enclosed by an aggregate.
  static void CollectNonAggregateRefs(const Expr& e,
                                      std::vector<const Expr*>* out) {
    if (e.kind == ExprKind::kAggregate) return;
    if (e.kind == ExprKind::kColumnRef) out->push_back(&e);
    for (const auto& c : e.children) CollectNonAggregateRefs(*c, out);
  }

  Status ValidateGrouping() {
    query_->is_grouped = !query_->stmt.group_by.empty();
    if (!query_->has_aggregates && !query_->is_grouped) return Status::OK();
    // Every non-aggregate select item must appear in GROUP BY.
    auto in_group_by = [&](const Expr& e) {
      std::string s = e.ToString();
      for (const auto& g : query_->stmt.group_by) {
        if (g->ToString() == s) return true;
      }
      return false;
    };
    for (const auto& item : query_->stmt.items) {
      if (item.expr->ContainsAggregate()) continue;
      if (!in_group_by(*item.expr)) {
        return Status::BindError(
            "non-aggregated select item must appear in GROUP BY: " +
            item.expr->ToString());
      }
    }
    for (const auto& o : query_->stmt.order_by) {
      if (o.expr->ContainsAggregate()) continue;
      if (!in_group_by(*o.expr)) {
        return Status::BindError(
            "ORDER BY item must be grouped or aggregated: " +
            o.expr->ToString());
      }
    }
    if (query_->stmt.having != nullptr) {
      // Every bare column in HAVING must be a group key; aggregate
      // subtrees are checked via the aggregation output rewrite later.
      std::vector<const Expr*> refs;
      CollectNonAggregateRefs(*query_->stmt.having, &refs);
      for (const Expr* r : refs) {
        if (!in_group_by(*r)) {
          return Status::BindError(
              "HAVING column must be grouped or aggregated: " + r->ToString());
        }
      }
    }
    return Status::OK();
  }

  const Catalog& catalog_;
  BoundQuery* query_;
};

}  // namespace

Result<BoundQuery> Bind(const Catalog& catalog, SelectStatement stmt) {
  BoundQuery query;
  query.stmt = std::move(stmt);
  Binder binder(catalog, &query);
  HTAPEX_RETURN_IF_ERROR(binder.BindAll());
  return query;
}

Result<BoundQuery> ParseAndBind(const Catalog& catalog, std::string_view sql) {
  SelectStatement stmt;
  HTAPEX_ASSIGN_OR_RETURN(stmt, ParseSelect(sql));
  return Bind(catalog, std::move(stmt));
}

}  // namespace htapex
