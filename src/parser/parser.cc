#include "parser/parser.h"

#include <unordered_map>
#include <utility>

#include "parser/lexer.h"

namespace hypo {
namespace {

/// Recursive-descent parser over a token stream. One instance parses one
/// source text; per-statement variable scopes are handled by the caller
/// passing a fresh VarScope for each rule or query.
///
/// Built over a mutable SymbolTable it interns every name it meets; built
/// over a const one it only looks names up and fails with kNotFound at the
/// first constant or predicate the table does not hold.
class Parser {
 public:
  Parser(const std::vector<Token>& tokens, SymbolTable* symbols)
      : tokens_(tokens), symbols_(symbols), interner_(symbols) {}
  Parser(const std::vector<Token>& tokens, const SymbolTable& symbols)
      : tokens_(tokens), symbols_(&symbols) {}

  /// Variable scope: maps surface names to rule-local indices.
  struct VarScope {
    std::vector<std::string> names;
    std::unordered_map<std::string, VarIndex> index;

    Term Intern(const std::string& name) {
      auto it = index.find(name);
      if (it != index.end()) return Term::MakeVar(it->second);
      VarIndex vi = static_cast<VarIndex>(names.size());
      names.push_back(name);
      index.emplace(name, vi);
      return Term::MakeVar(vi);
    }
  };

  const Token& Peek() const { return tokens_[pos_]; }
  bool AtEnd() const { return Peek().kind == TokenKind::kEnd; }

  Status ErrorHere(const std::string& what) const {
    const Token& t = Peek();
    return Status::InvalidArgument(what + " at line " +
                                   std::to_string(t.line) + ", column " +
                                   std::to_string(t.column) +
                                   (t.text.empty() ? "" : " near '" + t.text +
                                                              "'"));
  }

  StatusOr<Token> Expect(TokenKind kind) {
    if (Peek().kind != kind) {
      return ErrorHere(std::string("expected ") + TokenKindName(kind) +
                       ", found " + TokenKindName(Peek().kind));
    }
    return tokens_[pos_++];
  }

  bool Consume(TokenKind kind) {
    if (Peek().kind != kind) return false;
    ++pos_;
    return true;
  }

  StatusOr<ConstId> Const(const Token& name) {
    if (interner_ != nullptr) return interner_->InternConst(name.text);
    ConstId id = symbols_->FindConst(name.text);
    if (id == kInvalidConst) return Unknown("constant", name);
    return id;
  }

  StatusOr<PredicateId> Predicate(const Token& name, int arity) {
    if (interner_ != nullptr) {
      return interner_->InternPredicate(name.text, arity);
    }
    HYPO_ASSIGN_OR_RETURN(PredicateId id,
                          symbols_->LookupPredicate(name.text, arity));
    if (id == kInvalidPredicate) return Unknown("predicate", name);
    return id;
  }

  static Status Unknown(const char* what, const Token& name) {
    return Status::NotFound(std::string("unknown ") + what + " '" +
                            name.text + "'");
  }

  /// atom := identifier [ '(' term (',' term)* ')' ]
  StatusOr<Atom> ParseAtom(VarScope* scope) {
    HYPO_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdentifier));
    std::vector<Term> args;
    if (Consume(TokenKind::kLParen)) {
      do {
        const Token& t = Peek();
        if (t.kind == TokenKind::kVariable) {
          ++pos_;
          args.push_back(scope->Intern(t.text));
        } else if (t.kind == TokenKind::kIdentifier) {
          ++pos_;
          HYPO_ASSIGN_OR_RETURN(ConstId c, Const(t));
          args.push_back(Term::MakeConst(c));
        } else {
          return ErrorHere("expected a term (constant or variable)");
        }
      } while (Consume(TokenKind::kComma));
      HYPO_RETURN_IF_ERROR(Expect(TokenKind::kRParen).status());
    }
    HYPO_ASSIGN_OR_RETURN(PredicateId pred,
                          Predicate(name, static_cast<int>(args.size())));
    return Atom{pred, std::move(args)};
  }

  /// premise := '~' atom
  ///           | atom ( '[' ('add' | 'del') ':' atom (',' atom)* ']' )*
  ///
  /// Bracket groups may repeat and mix, e.g. `p(X)[add: q(X)][del: r(X)]`.
  StatusOr<Premise> ParsePremise(VarScope* scope) {
    if (Consume(TokenKind::kTilde)) {
      HYPO_ASSIGN_OR_RETURN(Atom atom, ParseAtom(scope));
      if (Peek().kind == TokenKind::kLBracket) {
        return ErrorHere(
            "negated hypothetical premise '~A[add: B]' is not allowed "
            "(§3.1); introduce a rule 'c <- A[add: B].' and use '~c'");
      }
      return Premise::Negated(std::move(atom));
    }
    HYPO_ASSIGN_OR_RETURN(Atom atom, ParseAtom(scope));
    if (Peek().kind != TokenKind::kLBracket) {
      return Premise::Positive(std::move(atom));
    }
    std::vector<Atom> additions;
    std::vector<Atom> deletions;
    while (Consume(TokenKind::kLBracket)) {
      HYPO_ASSIGN_OR_RETURN(Token kw, Expect(TokenKind::kIdentifier));
      if (kw.text != "add" && kw.text != "del") {
        return Status::InvalidArgument(
            "expected 'add' or 'del' after '[' at line " +
            std::to_string(kw.line));
      }
      HYPO_RETURN_IF_ERROR(Expect(TokenKind::kColon).status());
      std::vector<Atom>& target = kw.text == "add" ? additions : deletions;
      do {
        HYPO_ASSIGN_OR_RETURN(Atom listed, ParseAtom(scope));
        target.push_back(std::move(listed));
      } while (Consume(TokenKind::kComma));
      HYPO_RETURN_IF_ERROR(Expect(TokenKind::kRBracket).status());
    }
    return Premise::Hypothetical(std::move(atom), std::move(additions),
                                 std::move(deletions));
  }

  /// directive := arrow ('assumable' | 'retractable')
  ///              identifier '/' numeral (',' identifier '/' numeral)* '.'
  ///
  /// Restricted-predicate declarations (Sáenz-Pérez): a statement that
  /// *starts* with the arrow is a directive, e.g. `:- assumable take/2.`
  /// The caller has already seen (not consumed) the arrow.
  Status ParseDirectiveInto(RuleBase* rulebase) {
    HYPO_RETURN_IF_ERROR(Expect(TokenKind::kArrow).status());
    HYPO_ASSIGN_OR_RETURN(Token kw, Expect(TokenKind::kIdentifier));
    if (kw.text != "assumable" && kw.text != "retractable") {
      return Status::InvalidArgument(
          "unknown directive ':- " + kw.text + "' at line " +
          std::to_string(kw.line) +
          " (supported: 'assumable', 'retractable')");
    }
    const bool assumable = kw.text == "assumable";
    do {
      HYPO_ASSIGN_OR_RETURN(Token name, Expect(TokenKind::kIdentifier));
      HYPO_RETURN_IF_ERROR(Expect(TokenKind::kSlash).status());
      HYPO_ASSIGN_OR_RETURN(Token arity_tok,
                            Expect(TokenKind::kIdentifier));
      int arity = 0;
      for (char c : arity_tok.text) {
        if (c < '0' || c > '9') {
          return Status::InvalidArgument(
              "expected a numeral arity after '" + name.text +
              "/' at line " + std::to_string(arity_tok.line) + ", found '" +
              arity_tok.text + "'");
        }
        arity = arity * 10 + (c - '0');
      }
      HYPO_ASSIGN_OR_RETURN(PredicateId pred, Predicate(name, arity));
      if (assumable) {
        rulebase->DeclareAssumable(pred);
      } else {
        rulebase->DeclareRetractable(pred);
      }
    } while (Consume(TokenKind::kComma));
    return Expect(TokenKind::kPeriod).status();
  }

  /// rule := atom [ arrow premise (',' premise)* ] '.'
  StatusOr<Rule> ParseRule() {
    VarScope scope;
    Rule rule;
    HYPO_ASSIGN_OR_RETURN(rule.head, ParseAtom(&scope));
    if (Consume(TokenKind::kArrow)) {
      do {
        HYPO_ASSIGN_OR_RETURN(Premise p, ParsePremise(&scope));
        rule.premises.push_back(std::move(p));
      } while (Consume(TokenKind::kComma));
    }
    HYPO_RETURN_IF_ERROR(Expect(TokenKind::kPeriod).status());
    rule.var_names = std::move(scope.names);
    return rule;
  }

  StatusOr<Query> ParseWholeQuery() {
    VarScope scope;
    Query query;
    do {
      HYPO_ASSIGN_OR_RETURN(Premise p, ParsePremise(&scope));
      query.premises.push_back(std::move(p));
    } while (Consume(TokenKind::kComma));
    Consume(TokenKind::kPeriod);  // Optional trailing period.
    if (!AtEnd()) {
      return ErrorHere("trailing input after query");
    }
    query.var_names = std::move(scope.names);
    return query;
  }

 private:
  const std::vector<Token>& tokens_;
  size_t pos_ = 0;
  const SymbolTable* symbols_;
  SymbolTable* interner_ = nullptr;  // Null: lookup-only.
};

}  // namespace

StatusOr<RuleBase> ParseRuleBase(std::string_view text,
                                 std::shared_ptr<SymbolTable> symbols) {
  HYPO_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(tokens, symbols.get());
  RuleBase rulebase(std::move(symbols));
  while (!parser.AtEnd()) {
    if (parser.Peek().kind == TokenKind::kArrow) {
      HYPO_RETURN_IF_ERROR(parser.ParseDirectiveInto(&rulebase));
      continue;
    }
    HYPO_ASSIGN_OR_RETURN(Rule rule, parser.ParseRule());
    rulebase.AddRule(std::move(rule));
  }
  return rulebase;
}

Status ParseFactsInto(std::string_view text, Database* db) {
  HYPO_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(tokens, db->mutable_symbols());
  while (!parser.AtEnd()) {
    HYPO_ASSIGN_OR_RETURN(Rule rule, parser.ParseRule());
    if (!rule.premises.empty() || !rule.head.IsGround()) {
      return Status::InvalidArgument(
          "database statements must be ground atoms without bodies");
    }
    Fact fact;
    fact.predicate = rule.head.predicate;
    for (const Term& t : rule.head.args) fact.args.push_back(t.const_id());
    db->Insert(fact);
  }
  return Status::OK();
}

StatusOr<Query> ParseQuery(std::string_view text, SymbolTable* symbols) {
  HYPO_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  return ParseQuery(tokens, symbols);
}

StatusOr<Query> ParseQuery(const std::vector<Token>& tokens,
                           SymbolTable* symbols) {
  return Parser(tokens, symbols).ParseWholeQuery();
}

StatusOr<Query> ParseQueryLookupOnly(const std::vector<Token>& tokens,
                                     const SymbolTable& symbols) {
  return Parser(tokens, symbols).ParseWholeQuery();
}

StatusOr<Fact> ParseFact(std::string_view text, SymbolTable* symbols) {
  HYPO_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(tokens, symbols);
  Parser::VarScope scope;
  HYPO_ASSIGN_OR_RETURN(Atom atom, parser.ParseAtom(&scope));
  parser.Consume(TokenKind::kPeriod);
  if (!parser.AtEnd()) {
    return Status::InvalidArgument("trailing input after fact");
  }
  if (!atom.IsGround()) {
    return Status::InvalidArgument("fact must be ground");
  }
  Fact fact;
  fact.predicate = atom.predicate;
  for (const Term& t : atom.args) fact.args.push_back(t.const_id());
  return fact;
}

StatusOr<ParsedProgram> ParseProgram(std::string_view text,
                                     std::shared_ptr<SymbolTable> symbols) {
  HYPO_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(text));
  Parser parser(tokens, symbols.get());
  ParsedProgram program{RuleBase(symbols), Database(symbols)};
  while (!parser.AtEnd()) {
    if (parser.Peek().kind == TokenKind::kArrow) {
      HYPO_RETURN_IF_ERROR(parser.ParseDirectiveInto(&program.rules));
      continue;
    }
    HYPO_ASSIGN_OR_RETURN(Rule rule, parser.ParseRule());
    if (rule.premises.empty() && rule.head.IsGround()) {
      Fact fact;
      fact.predicate = rule.head.predicate;
      for (const Term& t : rule.head.args) fact.args.push_back(t.const_id());
      program.facts.Insert(fact);
    } else {
      program.rules.AddRule(std::move(rule));
    }
  }
  return program;
}

}  // namespace hypo
