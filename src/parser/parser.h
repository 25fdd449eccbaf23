#ifndef HYPO_PARSER_PARSER_H_
#define HYPO_PARSER_PARSER_H_

#include <memory>
#include <string_view>
#include <vector>

#include "ast/query.h"
#include "ast/rulebase.h"
#include "ast/symbol_table.h"
#include "base/statusor.h"
#include "db/database.h"
#include "parser/lexer.h"

namespace hypo {

/// Parses a rulebase in the surface syntax. Each statement is
///
///   head <- premise, premise, ... .      (rule)
///   head.                                (bodyless rule)
///
/// where a premise is `atom`, `~atom`, or `atom[add: atom, ...]`.
/// Variables start upper-case or with '_'; everything else is a constant
/// or predicate symbol; `%` comments to end of line. `~atom[add: ...]` is
/// rejected with the paper's suggested rewriting.
///
/// A statement that starts with the arrow is a restricted-predicate
/// directive: `:- assumable foo/2.` / `:- retractable bar/1.` (see
/// RuleBase::DeclareAssumable).
StatusOr<RuleBase> ParseRuleBase(std::string_view text,
                                 std::shared_ptr<SymbolTable> symbols);

/// Parses statements of ground atoms ("edge(a, b)." lines) into `db`.
Status ParseFactsInto(std::string_view text, Database* db);

/// Parses a single query: one or more premises separated by commas, with
/// an optional trailing period. Free variables are existential.
StatusOr<Query> ParseQuery(std::string_view text, SymbolTable* symbols);

/// ParseQuery over the tokens Tokenize produced for the query text.
StatusOr<Query> ParseQuery(const std::vector<Token>& tokens,
                           SymbolTable* symbols);

/// ParseQuery that only reads `symbols` and never interns, so it may run
/// while other threads read the table too. Fails with kNotFound at the
/// first constant or predicate `symbols` does not hold; the interning
/// overload then parses the same tokens. Every other result, an error
/// included, is the one the interning overload would give: both read the
/// tokens in the same order and differ only from the first unknown name on.
StatusOr<Query> ParseQueryLookupOnly(const std::vector<Token>& tokens,
                                     const SymbolTable& symbols);

/// Parses one ground atom, e.g. "grad(tony)".
StatusOr<Fact> ParseFact(std::string_view text, SymbolTable* symbols);

/// Result of ParseProgram: rules and extensional facts from one source.
struct ParsedProgram {
  RuleBase rules;
  Database facts;
};

/// Parses a mixed source file: statements whose head is ground and that
/// have no body become database facts; everything else becomes a rule.
/// (The paper keeps R and DB separate; this is a convenience for examples.)
StatusOr<ParsedProgram> ParseProgram(std::string_view text,
                                     std::shared_ptr<SymbolTable> symbols);

}  // namespace hypo

#endif  // HYPO_PARSER_PARSER_H_
