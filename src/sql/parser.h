#ifndef HTAPEX_SQL_PARSER_H_
#define HTAPEX_SQL_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "sql/ast.h"

namespace htapex {

/// Most tables one statement may name in FROM and JOIN, the join limit
/// SQLite uses too. It bounds planning work (both optimizers plan 64
/// tables in a few ms; the greedy join order grows super-cubically past
/// that) and the depth of the AND spine the JOIN ... ON conditions build.
inline constexpr int kMaxStatementTables = 64;

/// Parses one SELECT statement (optionally ';'-terminated). Explicit
/// `a JOIN b ON cond` is normalized into comma-FROM plus WHERE conjuncts.
/// A statement naming more than kMaxStatementTables tables fails with
/// kInvalidArgument.
Result<SelectStatement> ParseSelect(std::string_view sql);

}  // namespace htapex

#endif  // HTAPEX_SQL_PARSER_H_
