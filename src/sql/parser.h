#ifndef HTAPEX_SQL_PARSER_H_
#define HTAPEX_SQL_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/result.h"
#include "sql/ast.h"

namespace htapex {

/// Most tables one statement may name in FROM and JOIN, the join limit
/// SQLite uses too. It bounds planning work (both optimizers plan 64
/// tables in a few ms; the greedy join order grows super-cubically past
/// that) and the depth of the AND spine the JOIN ... ON conditions build.
inline constexpr int kMaxStatementTables = 64;

/// Deepest expression nesting one top-level expression may reach.
/// Parenthesised expressions, function and aggregate arguments, NOT chains
/// and unary minus recurse; a statement nested deeper than this is rejected
/// with kParseError instead of overflowing the stack (here or in the
/// binder and evaluator, which recurse over the tree). Binary operators
/// (OR, AND, + - * /) count against the same limit: a flat chain of them
/// builds a left-deep tree as deep as the chain is long, and how deep an
/// operand ends up is only known once the chains above it are parsed, so
/// every application stays counted until its top-level expression ends.
/// The JOIN ... ON conditions are AND-ed outside this count; the table cap
/// bounds that spine.
inline constexpr int kMaxNesting = 256;

/// Longest SQL text, in bytes, that HtapSystem::Bind and ExplainService
/// admission accept: about 5x the longest statement the repository uses
/// (the 3,341-byte 64-table JOIN chain). Checked before any lexing, so an
/// oversized statement costs nothing. ParseSelect itself is not capped.
inline constexpr size_t kMaxStatementBytes = 16 * 1024;

/// kInvalidArgument when `sql` is longer than kMaxStatementBytes.
Status CheckStatementBytes(std::string_view sql);

/// Parses one SELECT statement (optionally ';'-terminated). Explicit
/// `a JOIN b ON cond` is normalized into comma-FROM plus WHERE conjuncts.
/// A statement naming more than kMaxStatementTables tables fails with
/// kInvalidArgument.
Result<SelectStatement> ParseSelect(std::string_view sql);

}  // namespace htapex

#endif  // HTAPEX_SQL_PARSER_H_
