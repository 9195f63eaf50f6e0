#ifndef HTAPEX_SQL_BINDER_H_
#define HTAPEX_SQL_BINDER_H_

#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "sql/ast.h"

namespace htapex {

/// A FROM-list entry resolved against the catalog. Columns of table i
/// occupy composite-row slots [flat_offset, flat_offset + num_columns).
struct BoundTable {
  TableRef ref;
  const TableSchema* schema = nullptr;
  int flat_offset = 0;
};

/// One WHERE conjunct with the structural analysis both optimizers need.
struct ConjunctInfo {
  std::unique_ptr<Expr> expr;
  std::vector<int> tables;  // referenced bound-table indices, sorted unique

  /// Equality join predicate `a.x = b.y` between two distinct tables.
  bool is_equi_join = false;
  int left_table = -1;
  int right_table = -1;
  const Expr* left_column = nullptr;   // column ref on left_table
  const Expr* right_column = nullptr;  // column ref on right_table

  /// Single-table predicate analysis. `sargable` means the predicate has
  /// the shape <bare column> (=|<|<=|>|>=|IN|BETWEEN) <literals>, i.e. a
  /// B+-tree index on that column can serve it. A predicate like
  /// SUBSTRING(c_phone,1,2) IN (...) references c_phone but is NOT
  /// sargable: `function_over_column` records that an index was defeated by
  /// a function application — the failure mode the paper's Example 1 and
  /// DBG-PT discussion revolve around.
  bool sargable = false;
  const Expr* sarg_column = nullptr;
  bool function_over_column = false;
};

/// A fully bound query, ready for either optimizer.
struct BoundQuery {
  SelectStatement stmt;  // WHERE has been split into `conjuncts`
  std::vector<BoundTable> tables;
  std::vector<ConjunctInfo> conjuncts;
  int total_slots = 0;
  bool has_aggregates = false;
  bool is_grouped = false;  // explicit GROUP BY present

  const BoundTable& table(int i) const { return tables[static_cast<size_t>(i)]; }
  int num_tables() const { return static_cast<int>(tables.size()); }
};

/// Resolves tables/columns, types expressions, splits and analyzes WHERE
/// conjuncts, and validates aggregate/grouping rules.
Result<BoundQuery> Bind(const Catalog& catalog, SelectStatement stmt);

/// Convenience: parse + bind.
Result<BoundQuery> ParseAndBind(const Catalog& catalog, std::string_view sql);

}  // namespace htapex

#endif  // HTAPEX_SQL_BINDER_H_
