#ifndef PGIVM_CYPHER_PARSER_H_
#define PGIVM_CYPHER_PARSER_H_

#include <string_view>

#include "cypher/ast.h"
#include "support/status.h"

namespace pgivm {

/// Parses `query` (one openCypher read query) into an AST.
///
/// Grammar (fragment): `[OPTIONAL] MATCH ... [WHERE ...]`, `UNWIND ... AS x`,
/// `WITH [DISTINCT] items [WHERE ...]`, terminated by
/// `RETURN [DISTINCT] items [SKIP n] [LIMIT n]`.
/// Anonymous pattern elements get generated `#anonN` variables; return items
/// without `AS` get their source text as alias (made unique if needed).
/// Expressions nested deeper than kMaxExpressionNesting are rejected with
/// InvalidArgument.
Result<Query> ParseQuery(std::string_view query);

/// How deeply expressions may nest: every parenthesised or otherwise nested
/// sub-expression (list element, function argument, CASE branch, ...),
/// every NOT and every unary sign takes one level. Recursive descent would
/// otherwise overflow the stack on hostile input such as 10k open
/// parentheses.
inline constexpr int kMaxExpressionNesting = 256;

}  // namespace pgivm

#endif  // PGIVM_CYPHER_PARSER_H_
