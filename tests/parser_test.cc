#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "ast/printer.h"
#include "parser/lexer.h"
#include "parser/parser.h"

namespace hypo {
namespace {

std::shared_ptr<SymbolTable> Syms() {
  return std::make_shared<SymbolTable>();
}

TEST(LexerTest, TokenizesRule) {
  auto tokens = Tokenize("grad(S) <- take(S, his101).");
  ASSERT_TRUE(tokens.ok()) << tokens.status();
  ASSERT_EQ(tokens->size(), 13u);  // 12 tokens + End.
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[0].text, "grad");
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kVariable);
  EXPECT_EQ((*tokens)[4].kind, TokenKind::kArrow);
  EXPECT_EQ(tokens->back().kind, TokenKind::kEnd);
}

TEST(LexerTest, ColonDashIsArrow) {
  auto tokens = Tokenize("p :- q.");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kArrow);
}

TEST(LexerTest, CommentsSkipped) {
  auto tokens = Tokenize("p. % trailing words ~!@\nq.");
  ASSERT_TRUE(tokens.ok());
  ASSERT_EQ(tokens->size(), 5u);
  EXPECT_EQ((*tokens)[2].text, "q");
  EXPECT_EQ((*tokens)[2].line, 2);
}

TEST(LexerTest, QuotedConstants) {
  auto tokens = Tokenize("p('Hello world').");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[2].text, "Hello world");
}

TEST(LexerTest, UnterminatedQuoteFails) {
  EXPECT_FALSE(Tokenize("p('oops").ok());
}

TEST(LexerTest, BadCharacterReportsPosition) {
  auto tokens = Tokenize("p.\n  ?");
  ASSERT_FALSE(tokens.ok());
  EXPECT_NE(tokens.status().message().find("line 2"), std::string::npos);
}

TEST(LexerTest, NumeralsAreConstants) {
  auto tokens = Tokenize("next(0, 1).");
  ASSERT_TRUE(tokens.ok());
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kIdentifier);
  EXPECT_EQ((*tokens)[2].text, "0");
}

TEST(ParserTest, RoundTripsThroughPrinter) {
  const char* text =
      "grad(S) <- take(S, his101), take(S, eng201).\n"
      "within1(S, D) <- degree(S, D)[add: take(S, C)].\n"
      "sel(X) <- a(X), ~b(X).\n"
      "fact0.\n";
  auto rules = ParseRuleBase(text, Syms());
  ASSERT_TRUE(rules.ok()) << rules.status();
  EXPECT_EQ(RuleBaseToString(*rules), text);
}

TEST(ParserTest, MultiAtomAdditions) {
  auto rules = ParseRuleBase("p <- q[add: r(a), s(b), t(c)].", Syms());
  ASSERT_TRUE(rules.ok()) << rules.status();
  const Rule& rule = rules->rule(0);
  ASSERT_EQ(rule.premises.size(), 1u);
  EXPECT_EQ(rule.premises[0].kind, PremiseKind::kHypothetical);
  EXPECT_EQ(rule.premises[0].additions.size(), 3u);
}

TEST(ParserTest, NegatedHypotheticalSuggestsRewrite) {
  auto rules = ParseRuleBase("p <- ~q[add: r].", Syms());
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.status().message().find("c <- A[add: B]"),
            std::string::npos);
}

TEST(ParserTest, MissingPeriodFails) {
  EXPECT_FALSE(ParseRuleBase("p <- q", Syms()).ok());
}

TEST(ParserTest, ArityMismatchAcrossRulesFails) {
  EXPECT_FALSE(ParseRuleBase("p(a). q <- p(a, b).", Syms()).ok());
}

TEST(ParserTest, VariablesScopedPerRule) {
  auto rules = ParseRuleBase("p(X) <- q(X).\nr(X) <- s(X).", Syms());
  ASSERT_TRUE(rules.ok());
  EXPECT_EQ(rules->rule(0).num_vars(), 1);
  EXPECT_EQ(rules->rule(1).num_vars(), 1);
}

TEST(ParserTest, AddKeywordRequired) {
  auto rules = ParseRuleBase("p <- q[insert: r].", Syms());
  ASSERT_FALSE(rules.ok());
  EXPECT_NE(rules.status().message().find("add"), std::string::npos);
}

TEST(ParseFactsTest, LoadsGroundAtoms) {
  auto symbols = Syms();
  Database db(symbols);
  ASSERT_TRUE(ParseFactsInto("edge(a, b). edge(b, c). flag.", &db).ok());
  EXPECT_EQ(db.size(), 3);
  PredicateId edge = symbols->FindPredicate("edge");
  EXPECT_EQ(db.CountFor(edge), 2);
}

TEST(ParseFactsTest, RejectsNonGround) {
  auto symbols = Syms();
  Database db(symbols);
  EXPECT_FALSE(ParseFactsInto("edge(a, X).", &db).ok());
}

TEST(ParseFactsTest, RejectsRules) {
  auto symbols = Syms();
  Database db(symbols);
  EXPECT_FALSE(ParseFactsInto("p <- q.", &db).ok());
}

TEST(ParseQueryTest, GroundAndExistential) {
  auto symbols = Syms();
  auto q1 = ParseQuery("grad(tony)[add: take(tony, cs452)]", symbols.get());
  ASSERT_TRUE(q1.ok()) << q1.status();
  EXPECT_EQ(q1->premises.size(), 1u);
  EXPECT_EQ(q1->num_vars(), 0);

  auto q2 = ParseQuery("grad(S)[add: take(S, C)].", symbols.get());
  ASSERT_TRUE(q2.ok());
  EXPECT_EQ(q2->num_vars(), 2);
}

TEST(ParseQueryTest, ConjunctionsAllowed) {
  auto symbols = Syms();
  auto q = ParseQuery("node(X), path(X)[add: pnode(X)], ~bad(X)",
                      symbols.get());
  ASSERT_TRUE(q.ok());
  EXPECT_EQ(q->premises.size(), 3u);
}

TEST(ParseQueryTest, TrailingGarbageFails) {
  auto symbols = Syms();
  EXPECT_FALSE(ParseQuery("p(X). q", symbols.get()).ok());
}

// A parse result as text: the premises, or the error.
std::string Render(const StatusOr<Query>& query, const SymbolTable& symbols) {
  if (!query.ok()) return query.status().ToString();
  std::string out;
  for (const Premise& premise : query->premises) {
    out += PremiseToString(premise, symbols, &query->var_names) + "; ";
  }
  return out;
}

TEST(ParseQueryTest, LookupOnlyMatchesInterningParseOverKnownSymbols) {
  auto symbols = Syms();
  ASSERT_TRUE(ParseRuleBase("reach(X, Y) <- edge(X, Y). edge(a, b).", symbols)
                  .ok());
  const int predicates = symbols->num_predicates();
  const int consts = symbols->num_consts();
  for (const char* text :
       {"reach(a, X)",
        "reach(a, b)[add: edge(b, a)][del: edge(a, b)], ~edge(X, a).",
        "reach(a)", "reach(a, X), edge(X)", "reach(a, X", "reach(a, X) edge",
        "~reach(a, b)[add: edge(b, a)]", "reach(a, b)[put: edge(b, a)]"}) {
    auto tokens = Tokenize(text);
    ASSERT_TRUE(tokens.ok()) << tokens.status();
    auto lookup_only = ParseQueryLookupOnly(*tokens, *symbols);
    auto interned = ParseQuery(*tokens, symbols.get());
    EXPECT_EQ(Render(lookup_only, *symbols), Render(interned, *symbols))
        << text;
  }
  EXPECT_EQ(symbols->num_predicates(), predicates);
  EXPECT_EQ(symbols->num_consts(), consts);
}

TEST(ParseQueryTest, LookupOnlyStopsAtTheFirstUnknownName) {
  auto symbols = Syms();
  ASSERT_TRUE(ParseRuleBase("reach(X, Y) <- edge(X, Y). edge(a, b).", symbols)
                  .ok());
  const int predicates = symbols->num_predicates();
  const int consts = symbols->num_consts();
  for (const char* text : {"reach(a, zz)", "path(a, X)", "reach(a, X), path(X)",
                           "reach(zz)", "reach(a, b)[add: edge(b, zz)]"}) {
    auto tokens = Tokenize(text);
    ASSERT_TRUE(tokens.ok()) << tokens.status();
    EXPECT_EQ(ParseQueryLookupOnly(*tokens, *symbols).status().code(),
              StatusCode::kNotFound)
        << text;
  }
  EXPECT_EQ(symbols->num_predicates(), predicates) << "lookup-only interned";
  EXPECT_EQ(symbols->num_consts(), consts) << "lookup-only interned";
}

TEST(ParseFactTest, SingleGroundAtom) {
  auto symbols = Syms();
  auto f = ParseFact("edge(a, b)", symbols.get());
  ASSERT_TRUE(f.ok());
  EXPECT_EQ(f->args.size(), 2u);
  EXPECT_FALSE(ParseFact("edge(a, X)", symbols.get()).ok());
}

TEST(ParseProgramTest, SplitsFactsFromRules) {
  auto program = ParseProgram(
      "edge(a, b).\n"
      "path(X, Y) <- edge(X, Y).\n"
      "edge(b, c).\n",
      Syms());
  ASSERT_TRUE(program.ok()) << program.status();
  EXPECT_EQ(program->rules.num_rules(), 1);
  EXPECT_EQ(program->facts.size(), 2);
}

}  // namespace
}  // namespace hypo
