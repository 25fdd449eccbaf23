#ifndef SERVERBENCH_WORKLOAD_H_
#define SERVERBENCH_WORKLOAD_H_

#include <compare>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "server/query_server.h"

namespace serverbench {

/// A ground fact as text: the benchmark's own representation, shared with
/// nothing in the library.
struct Fact {
  std::string pred;
  std::vector<std::string> args;

  /// `pred(a, b)`: the form of QueryServer::CanonicalState lines.
  std::string Text() const;
  auto operator<=>(const Fact&) const = default;
};
using FactSet = std::set<Fact>;

enum class QueryKind {
  // Policy rulebase.
  kCanWhatIfGrant,   // can(u, r)[add: grant(g, r)]       yes/no
  kCanWhatIfMember,  // can(u, r)[add: member(u, g)]      yes/no
  kWhoWhatIfGrant,   // can(U, r)[add: grant(g, r)]       U rows
  kExposedWhatIf,    // exposed(r)[add: grant(g, r)]      yes/no
  kCanOpen,          // can(u, R)                         R rows
  kInGroupOpen,      // in_group(u, G)                    G rows
  kNotExposed,       // ~exposed(r)                       yes/no
  kSafeOpen,         // safe(R)                           R rows
  // University rulebase (paper §2, Examples 1-3).
  kGradWhatIf,   // grad(s)[add: take(s, c)]              yes/no
  kWithin1,      // within1(s, D)                         D rows
  kMathPhys,     // degree(s, mathphys)                   yes/no
  kOneMore,      // onemore(s)                            yes/no
  kOneMoreOpen,  // onemore(S)                            S rows
  kDegreeOpen,   // degree(s, D)                          D rows
};

/// One request of a session: a query, or a mutation batch sent as
/// `begin`, one `insert`/`retract` line per mutation, `commit`.
struct Request {
  bool is_query = true;
  QueryKind kind = QueryKind::kCanOpen;
  std::string query;                // Premise text, without the verb.
  std::vector<std::string> params;  // Bound constants, in kind order.
  std::optional<Fact> hypo;         // The [add: ...] premise, if any.
  std::vector<std::pair<bool, Fact>> mutations;  // (insert?, fact)

  /// The protocol lines RunSession reads for this request.
  std::string SessionText() const;
};

/// Builds the query of `kind` over its bound constants `params`.
Request MakeQuery(QueryKind kind, std::vector<std::string> params);

/// A seeded request stream over a generated program. The program text and
/// every request are pure functions of (workload name, seed).
class Workload {
 public:
  /// Null for an unknown name.
  static std::unique_ptr<Workload> Make(const std::string& name,
                                        uint64_t seed);
  static const std::vector<std::string>& Names();

  virtual ~Workload() = default;

  bool policy() const { return policy_; }
  const std::string& program() const { return program_; }
  const FactSet& initial_facts() const { return initial_; }

  /// Engine, pool and durability settings (engines run one thread);
  /// `data_dir` is the run's fresh durability directory.
  hypo::ServerOptions ServerOptionsFor(const std::string& data_dir) const;

  /// The untimed requests every run starts with, charged to setup_s: they
  /// materialise the base models, then retract and restore one fact. They
  /// are the same on every seed up to renaming, so set-up does the same
  /// work on every seed.
  virtual std::vector<Request> WarmUp() = 0;

  /// Appends one round of requests. Every run sends whole rounds.
  virtual void NextRound(std::vector<Request>* out) = 0;

 protected:
  bool policy_ = true;
  std::string engine_;
  std::string program_;
  FactSet initial_;
};

/// Epochs between periodic checkpoints, on every workload.
inline constexpr int64_t kCheckpointEvery = 5;
/// Pooled engines in every server (the hypo_serve default).
inline constexpr int kPoolSize = 2;
/// MemoBoard cap (hypo_serve --cache-mb 64). policy_onboard fills any cap
/// at about 150 KB per epoch; a 64 MB cap is reached within seconds, so
/// its peak RSS is the same however many epochs a run gets through.
inline constexpr int64_t kCacheBytes = 64ll << 20;

}  // namespace serverbench

#endif  // SERVERBENCH_WORKLOAD_H_
