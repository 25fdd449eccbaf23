#include <atomic>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "base/failpoint.h"
#include "server/protocol.h"
#include "server/query_server.h"

namespace hypo {
namespace {

constexpr char kReachProgram[] = R"(
reach(X, Y) <- edge(X, Y).
reach(X, Z) <- edge(X, Y), reach(Y, Z).
edge(a, b).
edge(b, c).
)";

std::unique_ptr<QueryServer> MakeServer(const std::string& engine,
                                        int pool = 2,
                                        const char* program = kReachProgram) {
  ServerOptions options;
  options.engine_name = engine;
  options.pool_size = pool;
  auto server = QueryServer::Create(program, options);
  EXPECT_TRUE(server.ok()) << server.status();
  return server.ok() ? std::move(*server) : nullptr;
}

class ServerTest : public ::testing::TestWithParam<const char*> {};

INSTANTIATE_TEST_SUITE_P(AllEngines, ServerTest,
                         ::testing::Values("tabled", "stratified",
                                           "bottomup"));

TEST_P(ServerTest, AnswersTrackMutationsAcrossEpochs) {
  auto server = MakeServer(GetParam());
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->epoch(), 1);

  auto q1 = server->Query("reach(a, X)");
  ASSERT_TRUE(q1.ok()) << q1.status();
  EXPECT_EQ(q1->answers.size(), 2u);  // b, c.

  auto ins = server->Insert("edge(c, d)");
  ASSERT_TRUE(ins.ok()) << ins.status();
  EXPECT_EQ(ins->changed, 1);
  EXPECT_EQ(ins->epoch, 2);

  auto q2 = server->Query("reach(a, X)");
  ASSERT_TRUE(q2.ok()) << q2.status();
  EXPECT_EQ(q2->answers.size(), 3u);  // b, c, d.

  auto ret = server->Retract("edge(a, b)");
  ASSERT_TRUE(ret.ok()) << ret.status();
  EXPECT_EQ(ret->epoch, 3);

  auto q3 = server->Query("reach(a, X)");
  ASSERT_TRUE(q3.ok()) << q3.status();
  EXPECT_TRUE(q3->answers.empty());

  // Ground query: boolean outcome.
  auto q4 = server->Query("reach(b, d)");
  ASSERT_TRUE(q4.ok()) << q4.status();
  EXPECT_TRUE(q4->boolean);
  EXPECT_TRUE(q4->proven);
}

TEST_P(ServerTest, NoOpMutationsDoNotTurnTheEpoch) {
  auto server = MakeServer(GetParam());
  ASSERT_NE(server, nullptr);

  auto dup = server->Insert("edge(a, b)");  // Already present.
  ASSERT_TRUE(dup.ok()) << dup.status();
  EXPECT_EQ(dup->changed, 0);
  EXPECT_EQ(dup->epoch, 1);

  auto absent = server->Retract("edge(x, y)");
  ASSERT_TRUE(absent.ok()) << absent.status();
  EXPECT_EQ(absent->changed, 0);
  EXPECT_EQ(absent->epoch, 1);

  // Insert-then-retract of the same new fact nets to nothing.
  auto insert = server->ParseMutation("edge(p, q)", /*insert=*/true);
  auto retract = server->ParseMutation("edge(p, q)", /*insert=*/false);
  ASSERT_TRUE(insert.ok() && retract.ok());
  auto batch = server->ApplyBatch({*insert, *retract});
  ASSERT_TRUE(batch.ok()) << batch.status();
  EXPECT_EQ(batch->changed, 0);
  EXPECT_EQ(batch->epoch, 1);

  EXPECT_EQ(server->counters().noop_batches, 3);
}

TEST_P(ServerTest, BatchAppliesAtomicallyInOneEpoch) {
  auto server = MakeServer(GetParam());
  ASSERT_NE(server, nullptr);
  auto add = server->ParseMutation("edge(c, d)", /*insert=*/true);
  auto del = server->ParseMutation("edge(a, b)", /*insert=*/false);
  ASSERT_TRUE(add.ok() && del.ok());
  auto outcome = server->ApplyBatch({*add, *del});
  ASSERT_TRUE(outcome.ok()) << outcome.status();
  EXPECT_EQ(outcome->changed, 2);
  EXPECT_EQ(outcome->epoch, 2);

  auto q = server->Query("reach(b, X)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_EQ(q->answers.size(), 2u);  // c, d.
  EXPECT_EQ(server->counters().base_facts, 2);
}

TEST_P(ServerTest, ConcurrentQueriesNeverSeeTornEpochs) {
  // Readers hammer reach(a, X) while a writer toggles edge(a, b). Every
  // answer set must be consistent with SOME epoch: {} (edge absent) or
  // {b, c} (edge present) — a 1-element answer would mean a query
  // observed a half-applied mutation.
  auto server = MakeServer(GetParam(), /*pool=*/4);
  ASSERT_NE(server, nullptr);

  std::atomic<bool> stop{false};
  std::atomic<int> torn{0};
  std::atomic<int> errors{0};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        auto q = server->Query("reach(a, X)");
        if (!q.ok()) {
          errors.fetch_add(1);
          continue;
        }
        size_t n = q->answers.size();
        if (n != 0 && n != 2) torn.fetch_add(1);
      }
    });
  }
  std::thread writer([&] {
    for (int i = 0; i < 50; ++i) {
      auto out = (i % 2 == 0) ? server->Retract("edge(a, b)")
                              : server->Insert("edge(a, b)");
      if (!out.ok()) errors.fetch_add(1);
    }
    stop.store(true, std::memory_order_relaxed);
  });
  writer.join();
  for (auto& t : readers) t.join();

  EXPECT_EQ(torn.load(), 0);
  EXPECT_EQ(errors.load(), 0);
  EXPECT_EQ(server->epoch(), 51) << "50 toggles, every one a net change";
}

TEST_P(ServerTest, PerQueryGovernanceTripsWithoutKillingTheServer) {
  // A chain long enough that the all-pairs query cannot finish in one
  // microsecond, so the deadline trips at a metering check.
  std::string program =
      "reach(X, Y) <- edge(X, Y).\n"
      "reach(X, Z) <- edge(X, Y), reach(Y, Z).\n";
  for (int i = 0; i < 60; ++i) {
    program += "edge(n" + std::to_string(i) + ", n" + std::to_string(i + 1) +
               ").\n";
  }
  auto server = MakeServer(GetParam(), /*pool=*/1, program.c_str());
  ASSERT_NE(server, nullptr);

  QuerySpec tight;
  tight.timeout_micros = 1;
  auto tripped = server->Query("reach(X, Y)", tight);
  ASSERT_FALSE(tripped.ok());
  EXPECT_EQ(tripped.status().code(), StatusCode::kDeadlineExceeded)
      << tripped.status();

  // The same engine, re-leased with the default (unlimited) budget,
  // answers fine: governance is per-query, not per-server.
  auto q = server->Query("reach(n0, n60)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->proven);
}

TEST_P(ServerTest, QueriesNamingNewSymbolsInternThemAndAnswerAsBefore) {
  auto server = MakeServer(GetParam());
  ASSERT_NE(server, nullptr);

  // A new constant is interned, and nothing reaches it.
  auto fresh = server->Query("reach(a, zz)");
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  EXPECT_TRUE(fresh->boolean);
  EXPECT_FALSE(fresh->proven);

  // A new predicate is interned too; it has no facts and no rules.
  auto unknown = server->Query("path(a, X)");
  ASSERT_TRUE(unknown.ok()) << unknown.status();
  EXPECT_EQ(unknown->var_names, std::vector<std::string>{"X"});
  EXPECT_TRUE(unknown->answers.empty());

  // A known predicate at the wrong arity keeps its typed error and message,
  // and so does the predicate the previous query registered.
  auto wrong_arity = server->Query("reach(a)");
  ASSERT_FALSE(wrong_arity.ok());
  EXPECT_EQ(wrong_arity.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(wrong_arity.status().message(),
            "predicate 'reach' used with arity 1 but registered with arity 2");
  auto new_wrong_arity = server->Query("path(a)");
  ASSERT_FALSE(new_wrong_arity.ok());
  EXPECT_EQ(new_wrong_arity.status().message(),
            "predicate 'path' used with arity 1 but registered with arity 2");

  // zz is known now, so this query parses without interning; it must still
  // resolve zz to the constant the first query interned.
  auto known = server->Query("reach(a, zz)[add: edge(c, zz)]");
  ASSERT_TRUE(known.ok()) << known.status();
  EXPECT_TRUE(known->proven);
  auto answers = server->Query("reach(c, X)[add: edge(c, zz)]");
  ASSERT_TRUE(answers.ok()) << answers.status();
  EXPECT_EQ(answers->answers,
            std::vector<std::vector<std::string>>{{"zz"}});
}

TEST(QueryServerTest, CreateRejectsBadConfigurations) {
  ServerOptions demand;
  demand.engine_name = "bottomup";
  demand.engine_options.demand = true;
  EXPECT_EQ(QueryServer::Create(kReachProgram, demand).status().code(),
            StatusCode::kInvalidArgument);

  ServerOptions unknown;
  unknown.engine_name = "quantum";
  EXPECT_EQ(QueryServer::Create(kReachProgram, unknown).status().code(),
            StatusCode::kInvalidArgument);

  ServerOptions empty_pool;
  empty_pool.pool_size = 0;
  EXPECT_EQ(QueryServer::Create(kReachProgram, empty_pool).status().code(),
            StatusCode::kInvalidArgument);

  ServerOptions ok;
  EXPECT_EQ(QueryServer::Create("reach(X <- ", ok).status().code(),
            StatusCode::kInvalidArgument)
      << "parse errors surface at Create";
}

TEST(QueryServerTest, RepairStatsAccumulateAcrossEpochs) {
  ServerOptions options;
  options.engine_name = "bottomup";
  options.pool_size = 1;
  // Every constant appears in two facts, so retracting one fact keeps the
  // domain stable — a shrunken domain falls back to a full recompute and
  // would bypass the incremental path this test pins down.
  auto server = QueryServer::Create(
      "reach(X, Y) <- edge(X, Y).\n"
      "reach(X, Z) <- edge(X, Y), reach(Y, Z).\n"
      "edge(a, b). edge(b, c). edge(c, a).\n",
      options);
  ASSERT_TRUE(server.ok()) << server.status();

  // Warm the model, then retract: the bottom-up engine must take the
  // incremental DRed path, visible in the server's repair counters.
  ASSERT_TRUE((*server)->Query("reach(a, X)").ok());
  ASSERT_TRUE((*server)->Retract("edge(b, c)").ok());
  auto counters = (*server)->counters();
  EXPECT_GE(counters.repair.base_deltas, 1);
  EXPECT_GE(counters.repair.strata_repaired +
                counters.repair.strata_recomputed,
            1);
}

#if HYPO_FAILPOINTS
TEST(QueryServerTest, FailedRepairForcesReinitAndServesTheNewEpoch) {
  // Regression: an engine whose repair aborts mid-flight must not re-enter
  // the pool "repaired ahead" (or behind) of the committed base. The
  // server forces a full re-Init on the failed engine under the epoch
  // write lock, so the error surfaces but every later answer is coherent
  // with the new epoch.
  std::string program =
      "reach(X, Y) <- edge(X, Y).\n"
      "reach(X, Z) <- edge(X, Y), reach(Y, Z).\n"
      "blocked(X, Y) <- node(X), node(Y), ~reach(X, Y).\n"
      "edge(a, b). edge(b, c). edge(c, a).\n"
      "node(a). node(b). node(c).\n";
  ServerOptions options;
  options.engine_name = "bottomup";
  options.pool_size = 1;
  auto server = QueryServer::Create(program, options);
  ASSERT_TRUE(server.ok()) << server.status();
  // Warm the model so the retract takes the repair path; the negated
  // premise forces a stratum recompute, where bottomup.round sits.
  auto warm = (*server)->Query("blocked(a, X)");
  ASSERT_TRUE(warm.ok()) << warm.status();

  FailpointRegistry& registry = FailpointRegistry::Global();
  registry.Arm("bottomup.round", 1, Status::Internal("injected mid-repair"));
  auto out = (*server)->Retract("edge(b, c)");
  registry.DisarmAll();
  ASSERT_FALSE(out.ok()) << "the injected repair failure must surface";
  EXPECT_NE(out.status().message().find("injected mid-repair"),
            std::string::npos)
      << out.status();
  EXPECT_EQ((*server)->epoch(), 2)
      << "the batch committed to the base; the epoch must turn";

  // The re-Init'd engine serves the post-retract world: b lost its only
  // outgoing edge.
  auto q = (*server)->Query("reach(b, X)");
  ASSERT_TRUE(q.ok()) << q.status();
  EXPECT_TRUE(q->answers.empty());
  auto blocked = (*server)->Query("blocked(b, a)");
  ASSERT_TRUE(blocked.ok()) << blocked.status();
  EXPECT_TRUE(blocked->proven);

  // The pool stays serviceable for further epochs.
  ASSERT_TRUE((*server)->Insert("edge(b, c)").ok());
  auto healed = (*server)->Query("reach(b, a)");
  ASSERT_TRUE(healed.ok()) << healed.status();
  EXPECT_TRUE(healed->proven);
}
#endif  // HYPO_FAILPOINTS

TEST(ProtocolTest, ScriptedSessionSpeaksTheLineProtocol) {
  auto server = MakeServer("bottomup");
  ASSERT_NE(server, nullptr);
  std::istringstream in(
      "# comment lines and blanks are ignored\n"
      "\n"
      "ping\n"
      "query reach(a, X)\n"
      "insert edge(c, d)\n"
      "query reach(a, d)\n"
      "retract edge(a, b)\n"
      "query reach(a, X)\n"
      "epoch\n"
      "shutdown\n"
      "query reach(a, X)\n");  // After shutdown: must not be evaluated.
  std::ostringstream out;
  EXPECT_EQ(RunSession(server.get(), in, out), 0);
  EXPECT_EQ(out.str(),
            "ok pong\n"
            "ok 2 answers\n"
            "- X=b\n"
            "- X=c\n"
            "ok epoch=2 changed=1\n"
            "ok yes\n"
            "ok epoch=3 changed=1\n"
            "ok 0 answers\n"
            "ok epoch=3\n"
            "ok bye\n");
}

TEST(ProtocolTest, BatchCommandsAndErrorsKeepTheSessionAlive) {
  auto server = MakeServer("tabled");
  ASSERT_NE(server, nullptr);
  std::istringstream in(
      "begin\n"
      "insert edge(c, d)\n"
      "retract edge(a, b)\n"
      "commit\n"
      "commit\n"
      "begin\n"
      "insert edge(z, z)\n"
      "abort\n"
      "query reach(z, X)\n"
      "insert not-a-fact(\n"
      "frobnicate\n"
      "set timeout_ms=abc\n"
      "set timeout_ms=100\n"
      "stats\n");
  std::ostringstream out;
  EXPECT_EQ(RunSession(server.get(), in, out), 0);
  std::string text = out.str();
  EXPECT_NE(text.find("ok batch\n"), std::string::npos);
  EXPECT_NE(text.find("ok queued\n"), std::string::npos);
  EXPECT_NE(text.find("ok epoch=2 changed=2\n"), std::string::npos);
  EXPECT_NE(text.find("err FailedPrecondition: no batch to commit"),
            std::string::npos);
  EXPECT_NE(text.find("ok aborted\n"), std::string::npos);
  EXPECT_NE(text.find("ok 0 answers\n"), std::string::npos)
      << "the aborted batch must not have applied";
  EXPECT_NE(text.find("err InvalidArgument"), std::string::npos);
  EXPECT_NE(text.find("unknown command \"frobnicate\""), std::string::npos);
  EXPECT_NE(text.find("ok set\n"), std::string::npos);
  EXPECT_NE(text.find("noop_mutations=0"), std::string::npos);
  EXPECT_NE(text.find("base_facts=2"), std::string::npos);
}

}  // namespace
}  // namespace hypo
