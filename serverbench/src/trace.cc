#include "trace.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <unordered_map>

#include "analysis/stratification.h"
#include "engine/bottom_up.h"
#include "engine/memo_board.h"
#include "engine/tabled.h"
#include "parser/parser.h"
#include "server/checkpoint.h"
#include "server/journal.h"

namespace serverbench {
namespace {

/// Spans kept in memory and written out once the run ends.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t request;  // Index into the request stream; -1 for set-up.
    int64_t parent;   // Span id of the caller; -1 at the top.
    int64_t start_ns;
    int64_t end_ns;
  };

  /// Runs `fn(span_id)` inside a new span; returns its length in µs.
  template <typename Fn>
  double Run(const char* name, int64_t request, int64_t parent, Fn&& fn) {
    const int64_t id = static_cast<int64_t>(spans_.size());
    spans_.push_back({name, request, parent, Now(), 0});
    fn(id);
    spans_[id].end_ns = Now();
    return static_cast<double>(spans_[id].end_ns - spans_[id].start_ns) /
           1e3;
  }

  void Write(const std::string& path) const {
    std::ofstream out(path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\": " << i << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << ", \"name\": \"" << s.name
          << "\", \"start_ns\": " << s.start_ns
          << ", \"end_ns\": " << s.end_ns << "}\n";
    }
  }

 private:
  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
};

/// Per-layer sums and sample counts; a metric is sum / count.
class Layers {
 public:
  void Add(const std::string& name, double value) {
    auto& [sum, count] = acc_[name];
    sum += value;
    ++count;
  }
  double Mean(const std::string& name) const {
    auto it = acc_.find(name);
    if (it == acc_.end() || it->second.second == 0) return 0;
    return it->second.first / static_cast<double>(it->second.second);
  }

 private:
  std::map<std::string, std::pair<double, int64_t>> acc_;
};

std::string CanonicalOutcome(const hypo::QueryOutcome& out) {
  if (out.boolean) return CanonicalBool(out.proven);
  std::vector<std::string> rows;
  for (const auto& row : out.answers) {
    std::string text;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) text += ", ";
      text += out.var_names[i] + "=" + row[i];
    }
    rows.push_back(std::move(text));
  }
  return CanonicalRows(std::move(rows));
}

std::unique_ptr<hypo::Engine> MakeEngine(const std::string& name,
                                         const hypo::RuleBase* rules,
                                         const hypo::Database* db,
                                         const hypo::EngineOptions& options) {
  if (name == "bottomup") {
    return std::make_unique<hypo::BottomUpEngine>(rules, db, options);
  }
  return std::make_unique<hypo::TabledEngine>(rules, db, options);
}

/// The layers a server request crosses, driven through their public
/// functions on private copies of the program, database, engine, journal
/// and checkpoint directory. Mirrors QueryServer::Query / ApplyBatch.
class Replay {
 public:
  Replay(const Workload& workload, const std::string& dir, Tracer* tracer,
         Layers* layers)
      : workload_(workload),
        options_(workload.ServerOptionsFor(dir)),
        dir_(dir),
        tracer_(tracer),
        layers_(layers),
        symbols_(std::make_shared<hypo::SymbolTable>()),
        board_(options_.cache_bytes) {}

  hypo::Status SetUp() {
    hypo::StatusOr<hypo::ParsedProgram> parsed =
        hypo::Status::Internal("unparsed");
    tracer_->Run("replay.parse_program", -1, -1, [&](int64_t) {
      parsed = hypo::ParseProgram(workload_.program(), symbols_);
    });
    if (!parsed.ok()) return parsed.status();
    rules_ = std::make_unique<hypo::RuleBase>(std::move(parsed->rules));
    db_ = std::make_unique<hypo::Database>(std::move(parsed->facts));
    Stratify(-1, -1);
    engine_ = MakeEngine(options_.engine_name, rules_.get(), db_.get(),
                         options_.engine_options);
    hypo::Status init;
    layers_->Add("engine.init_us",
                 tracer_->Run("engine.init", -1, -1,
                              [&](int64_t) { init = engine_->Init(); }));
    if (!init.ok()) return init;
    board_.BeginEpoch(epoch_);
    engine_->AttachMemoBoard(&board_);
    Seal(-1, -1);
    std::filesystem::create_directories(dir_);
    return Checkpoint(-1, -1);
  }

  /// Replays query `q` (request `index`); returns its canonical answer.
  std::string Query(const Request& q, int64_t index, bool measured) {
    std::string answer;
    tracer_->Run("replay.query", index, -1, [&](int64_t root) {
      hypo::StatusOr<hypo::Query> query = hypo::Status::Internal("unparsed");
      const double parse_us =
          tracer_->Run("parser.parse_query", index, root, [&](int64_t) {
            query = hypo::ParseQuery(q.query, symbols_.get());
          });
      if (!query.ok()) {
        answer = query.status().ToString();
        return;
      }
      hypo::QueryOutcome out;
      hypo::Status status;
      const double eval_us =
          tracer_->Run("engine.eval", index, root, [&](int64_t) {
            if (query->num_vars() == 0) {
              auto proven = engine_->ProveQuery(*query);
              status = proven.status();
              out.boolean = true;
              out.proven = proven.ok() && *proven;
              return;
            }
            auto tuples = engine_->Answers(*query);
            status = tuples.status();
            if (!tuples.ok()) return;
            out.var_names = query->var_names;
            for (const hypo::Tuple& t : *tuples) {
              std::vector<std::string> row;
              for (hypo::ConstId c : t) row.push_back(symbols_->ConstName(c));
              out.answers.push_back(std::move(row));
            }
          });
      answer = status.ok() ? CanonicalOutcome(out) : status.ToString();
      if (measured) {
        layers_->Add("parser.parse_us", parse_us);
        layers_->Add("engine.eval_us", eval_us);
      }
    });
    return answer;
  }

  /// Replays mutation batch `b` (request `index`); returns its netted
  /// change count, or -1 on failure.
  int64_t Batch(const Request& b, int64_t index, bool measured) {
    int64_t changed = -1;
    tracer_->Run("replay.batch", index, -1, [&](int64_t root) {
      changed = BatchSpans(b, index, root, measured);
    });
    return changed;
  }

 private:
  int64_t BatchSpans(const Request& b, int64_t index, int64_t root,
                     bool measured) {
    std::vector<std::pair<bool, hypo::Fact>> parsed;
    bool parse_ok = true;
    tracer_->Run("parser.parse_fact", index, root, [&](int64_t) {
      for (const auto& [insert, fact] : b.mutations) {
        auto f = hypo::ParseFact(fact.Text(), symbols_.get());
        parse_ok &= f.ok();
        if (f.ok()) parsed.emplace_back(insert, std::move(*f));
      }
    });
    if (!parse_ok) return -1;

    // Net the batch exactly as the server does, before anything moves.
    std::unordered_map<hypo::Fact, bool, hypo::FactHash> initial, present;
    for (const auto& [insert, fact] : parsed) {
      auto [it, fresh] = present.try_emplace(fact, false);
      if (fresh) {
        it->second = db_->Contains(fact);
        initial.emplace(fact, it->second);
      }
      it->second = insert;
    }
    hypo::BaseDelta delta;
    for (const auto& [fact, now] : present) {
      if (now != initial[fact]) {
        (now ? delta.inserts : delta.retracts).push_back(fact);
      }
    }
    const int64_t changed =
        static_cast<int64_t>(delta.inserts.size() + delta.retracts.size());
    if (changed == 0) return 0;

    hypo::Status appended;
    const auto before = std::filesystem::file_size(journal_path_);
    const double append_us =
        tracer_->Run("journal.append", index, root, [&](int64_t) {
          auto names = [&](const std::vector<hypo::Fact>& facts) {
            std::vector<std::pair<std::string, std::vector<std::string>>> out;
            for (const hypo::Fact& f : facts) {
              std::vector<std::string> args;
              for (hypo::ConstId c : f.args) {
                args.push_back(symbols_->ConstName(c));
              }
              out.emplace_back(symbols_->PredicateName(f.predicate),
                               std::move(args));
            }
            return out;
          };
          const auto next = static_cast<uint64_t>(epoch_ + 1);
          appended = journal_->Append(
              next, hypo::EncodeJournalPayload(next, names(delta.inserts),
                                               names(delta.retracts)));
        });
    if (!appended.ok()) return -1;
    const auto journal_bytes =
        std::filesystem::file_size(journal_path_) - before;

    const double mutate_us =
        tracer_->Run("db.mutate", index, root, [&](int64_t) {
          for (const hypo::Fact& f : delta.inserts) db_->Insert(f);
          for (const hypo::Fact& f : delta.retracts) db_->Retract(f);
        });
    const double seal_us = Seal(index, root);
    board_.BeginEpoch(epoch_ + 1);
    engine_->ResetStats();
    hypo::Status repaired;
    const double repair_us =
        tracer_->Run("repair.apply_delta", index, root, [&](int64_t) {
          repaired = engine_->ApplyBaseDelta(delta);
        });
    if (!repaired.ok()) return -1;
    // A delta-triggered Init re-runs the analysis; time that layer alone.
    if (engine_->stats().domain_rebuilds > 0) Stratify(index, root);
    ++epoch_;
    if (epoch_ - last_checkpoint_ >= kCheckpointEvery &&
        !Checkpoint(index, root).ok()) {
      return -1;
    }
    if (measured) {
      layers_->Add("journal.append_us", append_us);
      layers_->Add("journal.bytes_per_batch",
                   static_cast<double>(journal_bytes));
      layers_->Add("db.mutate_us", mutate_us);
      layers_->Add("db.seal_us", seal_us);
      layers_->Add("repair.apply_delta_us", repair_us);
    }
    return changed;
  }

  void Stratify(int64_t index, int64_t parent) {
    layers_->Add("analysis.stratify_us",
                 tracer_->Run("analysis.stratify", index, parent,
                              [&](int64_t) {
                                (void)hypo::ComputeNegationStrata(*rules_);
                              }));
  }

  double Seal(int64_t index, int64_t parent) {
    return tracer_->Run("db.seal", index, parent, [&](int64_t) {
      db_->EnableSortedIndexes();
      for (const auto& [pred, mask] : engine_->BaseProbeSignatures()) {
        db_->PrepareIndex(pred, mask);
      }
      db_->SealIndexes();
    });
  }

  hypo::Status Checkpoint(int64_t index, int64_t parent) {
    hypo::Status status;
    std::string path;
    const auto epoch = static_cast<uint64_t>(epoch_);
    const double us =
        tracer_->Run("checkpoint.write", index, parent, [&](int64_t) {
          status = hypo::WriteCheckpoint(dir_, epoch, workload_.program(),
                                         *symbols_, *db_, &path);
          if (!status.ok()) return;
          journal_path_ = hypo::JournalPath(dir_, epoch);
          auto journal = hypo::Journal::Create(
              journal_path_, epoch, options_.durability.fsync_policy,
              options_.durability.fsync_group_size);
          status = journal.status();
          if (journal.ok()) journal_ = std::move(*journal);
        });
    if (!status.ok()) return status;
    (void)hypo::GarbageCollectDataDir(dir_, epoch);
    last_checkpoint_ = epoch_;
    if (index >= 0) {
      layers_->Add("checkpoint.write_us", us);
      layers_->Add("checkpoint.bytes",
                   static_cast<double>(std::filesystem::file_size(path)));
    }
    return status;
  }

  const Workload& workload_;
  const hypo::ServerOptions options_;
  const std::string dir_;
  Tracer* tracer_;
  Layers* layers_;
  std::shared_ptr<hypo::SymbolTable> symbols_;
  std::unique_ptr<hypo::RuleBase> rules_;
  std::unique_ptr<hypo::Database> db_;
  hypo::MemoBoard board_;  // Outlives the engine that points at it.
  std::unique_ptr<hypo::Engine> engine_;
  std::unique_ptr<hypo::Journal> journal_;
  std::string journal_path_;
  int64_t epoch_ = 1;
  int64_t last_checkpoint_ = 1;
};

/// Serves one request through QueryServer's API with a span per call.
Outcome ServeTraced(hypo::QueryServer* server, const Request& r,
                    int64_t index, Tracer* tracer, Layers* layers,
                    bool measured, hypo::EngineStats* query_stats) {
  Outcome o;
  if (r.is_query) {
    hypo::StatusOr<hypo::QueryOutcome> out =
        hypo::Status::Internal("unserved");
    const double us = tracer->Run("server.query", index, -1, [&](int64_t) {
      out = server->Query(r.query);
    });
    o.failed = !out.ok();
    o.answer = out.ok() ? CanonicalOutcome(*out) : out.status().ToString();
    if (measured && out.ok()) {
      layers->Add("server.query_us", us);
      query_stats->Merge(out->stats);
    }
    return o;
  }
  std::vector<hypo::QueryServer::Mutation> batch;
  tracer->Run("server.parse_mutation", index, -1, [&](int64_t) {
    for (const auto& [insert, fact] : r.mutations) {
      auto m = server->ParseMutation(fact.Text(), insert);
      if (m.ok()) batch.push_back(std::move(*m));
    }
  });
  o.failed = batch.size() != r.mutations.size();
  if (o.failed) return o;
  hypo::StatusOr<hypo::MutationOutcome> out =
      hypo::Status::Internal("unserved");
  const double us =
      tracer->Run("server.apply_batch", index, -1,
                  [&](int64_t) { out = server->ApplyBatch(batch); });
  o.failed = !out.ok();
  o.changed = out.ok() ? out->changed : -1;
  if (measured && out.ok()) layers->Add("server.apply_batch_us", us);
  return o;
}

}  // namespace

int RunTraced(const RunOptions& opt) {
  auto workload = Workload::Make(opt.workload, opt.seed);
  const std::string tag = opt.workload + "-" + std::to_string(opt.seed) +
                          "-" + std::to_string(getpid());
  const std::string data_dir = opt.out_dir + "/data-" + tag;
  const std::string replay_dir = opt.out_dir + "/replay-" + tag;
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(replay_dir);
  auto created = hypo::QueryServer::Create(
      workload->program(), workload->ServerOptionsFor(data_dir));
  if (!created.ok()) {
    std::cerr << "server setup failed: " << created.status() << "\n";
    return 1;
  }
  std::unique_ptr<hypo::QueryServer> server = std::move(*created);
  Tracer tracer;
  Layers layers;
  hypo::EngineStats query_stats;

  std::vector<Request> requests = workload->WarmUp();
  std::vector<Outcome> outcomes;
  for (size_t i = 0; i < requests.size(); ++i) {
    outcomes.push_back(ServeTraced(server.get(), requests[i], i, &tracer,
                                   &layers, false, &query_stats));
  }
  const size_t first_measured = requests.size();
  const hypo::QueryServer::Counters before = server->counters();

  // Phase 1: the server path, for half the run length; the replay of the
  // same stream takes about as long again.
  const Clock::time_point phase_start = Clock::now();
  while (SecondsSince(phase_start) < opt.seconds / 2) {
    const size_t round_start = requests.size();
    workload->NextRound(&requests);
    for (size_t i = round_start; i < requests.size(); ++i) {
      outcomes.push_back(ServeTraced(server.get(), requests[i], i, &tracer,
                                     &layers, true, &query_stats));
    }
  }
  const double phase_s = SecondsSince(phase_start);
  const hypo::QueryServer::Counters after = server->counters();

  // Phase 2: replay through the layers; every answer must match.
  Replay replay(*workload, replay_dir, &tracer, &layers);
  int64_t replay_mismatches = 0;
  if (hypo::Status s = replay.SetUp(); !s.ok()) {
    std::cerr << "replay setup failed: " << s << "\n";
    ++replay_mismatches;
  } else {
    for (size_t i = 0; i < requests.size(); ++i) {
      const Request& r = requests[i];
      const bool measured = i >= first_measured;
      const Outcome& served = outcomes[i];
      if (served.failed) continue;
      const bool same =
          r.is_query ? replay.Query(r, i, measured) == served.answer
                     : replay.Batch(r, i, measured) == served.changed;
      if (!same && ++replay_mismatches <= 5) {
        std::cerr << "request " << i << ": replay differs from the server ("
                  << (r.is_query ? r.query : "batch") << ")\n";
      }
    }
  }

  int64_t attempted = 0, failed = 0, queries = 0, batches = 0;
  for (size_t i = first_measured; i < outcomes.size(); ++i) {
    ++attempted;
    failed += outcomes[i].failed;
    (requests[i].is_query ? queries : batches) += 1;
  }
  StreamChecker checker(*workload, opt.inject_wrong_answer);
  for (size_t i = 0; i < requests.size(); ++i) {
    checker.Check(requests[i], outcomes[i]);
  }
  bool correct = checker.totals().mismatches == 0 && replay_mismatches == 0;
  correct &= CheckCounters(*server, checker.totals());
  correct &= CheckDefinition3(server.get(), *workload, checker.what_ifs(),
                              checker.facts());
  correct &=
      CheckRestart(std::move(server), *workload, data_dir, checker.facts());
  std::filesystem::remove_all(data_dir);
  std::filesystem::remove_all(replay_dir);

  const std::string trace_path = opt.out_dir + "/trace-" + opt.workload +
                                 "-" + std::to_string(opt.seed) + ".jsonl";
  tracer.Write(trace_path);
  std::cout << "# spans written to " << trace_path << std::endl;

  // Per-query engine counts (QueryOutcome::stats) and per-batch server
  // counters, both from the real server path.
  const double q = static_cast<double>(std::max<int64_t>(queries, 1));
  const double b = static_cast<double>(std::max<int64_t>(batches, 1));
  const hypo::EngineStats& s = query_stats;
  const hypo::EngineStats& r0 = before.repair;
  const hypo::EngineStats& r1 = after.repair;
  auto per_batch = [&](int64_t delta) {
    return static_cast<double>(delta) / b;
  };
  std::vector<Metric> metrics = {
      {"parser.parse_us", layers.Mean("parser.parse_us"), "us"},
      {"analysis.stratify_us", layers.Mean("analysis.stratify_us"), "us"},
      {"engine.eval_us", layers.Mean("engine.eval_us"), "us"},
      {"engine.init_us", layers.Mean("engine.init_us"), "us"},
      {"engine.vm_ops", s.vm_ops_executed / q, "count"},
      {"engine.join_probes", s.join_probes / q, "count"},
      {"engine.sorted_probes", s.sorted_probes / q, "count"},
      {"engine.facts_derived", s.facts_derived / q, "count"},
      {"engine.states_evaluated", s.states_evaluated / q, "count"},
      {"engine.goals_expanded", s.goals_expanded / q, "count"},
      {"engine.memo_hits", s.memo_hits / q, "count"},
      {"engine.contexts_interned", s.contexts_interned / q, "count"},
      {"engine.context_cache_hits", s.context_cache_hits / q, "count"},
      {"engine.vm_programs_compiled", s.vm_programs_compiled / q, "count"},
      {"engine.parallel_rounds", s.parallel_rounds / q, "count"},
      {"engine.barrier_us", s.barrier_micros / q, "us"},
      {"repair.apply_delta_us", layers.Mean("repair.apply_delta_us"), "us"},
      {"repair.full_reinits",
       per_batch(r1.domain_rebuilds - r0.domain_rebuilds), "count"},
      {"repair.strata_repaired",
       per_batch(r1.strata_repaired - r0.strata_repaired), "count"},
      {"repair.strata_recomputed",
       per_batch(r1.strata_recomputed - r0.strata_recomputed), "count"},
      {"repair.facts_overdeleted",
       per_batch(r1.facts_overdeleted - r0.facts_overdeleted), "count"},
      {"repair.facts_rederived",
       per_batch(r1.facts_rederived - r0.facts_rederived), "count"},
      {"db.mutate_us", layers.Mean("db.mutate_us"), "us"},
      {"db.seal_us", layers.Mean("db.seal_us"), "us"},
      {"db.index_sort_us",
       per_batch(after.index_sort_micros - before.index_sort_micros), "us"},
      {"db.arena_bytes", static_cast<double>(after.arena_bytes), "bytes"},
      {"journal.append_us", layers.Mean("journal.append_us"), "us"},
      {"journal.bytes_per_batch", layers.Mean("journal.bytes_per_batch"),
       "bytes"},
      {"journal.fsyncs_per_batch", per_batch(after.fsyncs - before.fsyncs),
       "count"},
      {"checkpoint.write_us", layers.Mean("checkpoint.write_us"), "us"},
      {"checkpoint.bytes", layers.Mean("checkpoint.bytes"), "bytes"},
      {"board.cross_query_hits", s.cache_hits_cross_query / q, "count"},
      {"board.contexts_reused", s.contexts_reused / q, "count"},
      {"server.query_us", layers.Mean("server.query_us"), "us"},
      {"server.apply_batch_us", layers.Mean("server.apply_batch_us"), "us"},
      {"trace.requests_per_s", static_cast<double>(attempted) / phase_s,
       "req/s"},
  };
  PrintResult(correct, attempted, failed, metrics);
  return 0;
}

}  // namespace serverbench
