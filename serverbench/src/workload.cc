#include "workload.h"

#include <algorithm>
#include <iterator>
#include <map>

namespace serverbench {

std::string Fact::Text() const {
  std::string out = pred + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i];
  }
  return out + ")";
}

std::string Request::SessionText() const {
  if (is_query) return "query " + query + "\n";
  std::string out = "begin\n";
  for (const auto& [insert, fact] : mutations) {
    out += insert ? "insert " : "retract ";
    out += fact.Text();
    out += "\n";
  }
  return out + "commit\n";
}

Request MakeQuery(QueryKind kind, std::vector<std::string> params) {
  const auto& p = params;
  std::optional<Fact> hypo;
  Request q;
  q.kind = kind;
  switch (kind) {
    case QueryKind::kCanWhatIfGrant:
      hypo = Fact{"grant", {p[2], p[1]}};
      q.query = "can(" + p[0] + ", " + p[1] + ")";
      break;
    case QueryKind::kCanWhatIfMember:
      hypo = Fact{"member", {p[0], p[2]}};
      q.query = "can(" + p[0] + ", " + p[1] + ")";
      break;
    case QueryKind::kWhoWhatIfGrant:
      hypo = Fact{"grant", {p[1], p[0]}};
      q.query = "can(U, " + p[0] + ")";
      break;
    case QueryKind::kExposedWhatIf:
      hypo = Fact{"grant", {p[1], p[0]}};
      q.query = "exposed(" + p[0] + ")";
      break;
    case QueryKind::kCanOpen:
      q.query = "can(" + p[0] + ", R)";
      break;
    case QueryKind::kInGroupOpen:
      q.query = "in_group(" + p[0] + ", G)";
      break;
    case QueryKind::kNotExposed:
      q.query = "~exposed(" + p[0] + ")";
      break;
    case QueryKind::kSafeOpen:
      q.query = "safe(R)";
      break;
    case QueryKind::kGradWhatIf:
      hypo = Fact{"take", {p[0], p[1]}};
      q.query = "grad(" + p[0] + ")";
      break;
    case QueryKind::kWithin1:
      q.query = "within1(" + p[0] + ", D)";
      break;
    case QueryKind::kMathPhys:
      q.query = "degree(" + p[0] + ", mathphys)";
      break;
    case QueryKind::kOneMore:
      q.query = "onemore(" + p[0] + ")";
      break;
    case QueryKind::kOneMoreOpen:
      q.query = "onemore(S)";
      break;
    case QueryKind::kDegreeOpen:
      q.query = "degree(" + p[0] + ", D)";
      break;
  }
  if (hypo.has_value()) q.query += "[add: " + hypo->Text() + "]";
  q.hypo = std::move(hypo);
  q.params = std::move(params);
  return q;
}

hypo::ServerOptions Workload::ServerOptionsFor(
    const std::string& data_dir) const {
  hypo::ServerOptions options;
  options.engine_name = engine_;
  options.pool_size = kPoolSize;
  options.durability.data_dir = data_dir;
  options.durability.fsync_policy = hypo::Journal::FsyncPolicy::kAlways;
  options.durability.checkpoint_every = kCheckpointEvery;
  options.cache_bytes = kCacheBytes;
  return options;
}

namespace {

/// SplitMix64: fixed output for a fixed seed on every platform, unlike the
/// standard distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed ^ 0x5be7c0deULL) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  size_t Uniform(size_t n) { return static_cast<size_t>(Next() % n); }
  bool Percent(int p) { return Uniform(100) < static_cast<size_t>(p); }
  /// Index in [0, n) with popularity falling steeply from 0 (u^3).
  size_t Skewed(size_t n) {
    const double u = static_cast<double>(Next() >> 11) * 0x1.0p-53;
    return std::min(n - 1, static_cast<size_t>(u * u * u * n));
  }

 private:
  uint64_t state_;
};

/// Each of 0..n-1 `copies` times, in random order.
std::vector<int> Shuffled(int n, int copies, Rng* rng) {
  std::vector<int> out;
  for (int i = 0; i < n; ++i) out.insert(out.end(), copies, i);
  for (size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1], out[rng->Uniform(i)]);
  }
  return out;
}

std::string Sym(char prefix, size_t i) {
  return std::string(1, prefix) + std::to_string(i);
}

/// Generator-side fact store: set membership plus per-predicate vectors
/// for picking a random present fact.
class FactPool {
 public:
  bool Has(const Fact& f) const { return set_.count(f) > 0; }
  /// True when `f` was not yet present.
  bool Add(const Fact& f) {
    if (!set_.insert(f).second) return false;
    by_pred_[f.pred].push_back(f);
    return true;
  }
  void Remove(const Fact& f) {
    if (set_.erase(f) == 0) return;
    auto& v = by_pred_[f.pred];
    auto it = std::find(v.begin(), v.end(), f);
    *it = v.back();
    v.pop_back();
  }
  const Fact& Random(const std::string& pred, Rng* rng) {
    const auto& v = by_pred_[pred];
    return v[rng->Uniform(v.size())];
  }
  const FactSet& set() const { return set_; }

 private:
  FactSet set_;
  std::map<std::string, std::vector<Fact>> by_pred_;
};

/// A batch of `mutations`, applied to `pool` as it will be to the server.
Request MakeBatch(std::vector<std::pair<bool, Fact>> mutations,
                  FactPool* pool) {
  Request b;
  b.is_query = false;
  for (const auto& [insert, fact] : mutations) {
    if (insert) {
      pool->Add(fact);
    } else {
      pool->Remove(fact);
    }
  }
  b.mutations = std::move(mutations);
  return b;
}

std::string RenderProgram(const char* rules, const FactSet& facts) {
  std::string out = rules;
  for (const Fact& f : facts) out += f.Text() + ".\n";
  return out;
}

// ---------------------------------------------------------------------
// Policy rulebase: a role/grant policy over a recursive group hierarchy
// (sub(G, K): G is a subgroup of K), with restricted hypotheticals in the
// style of Sáenz-Pérez: only grants and memberships may be assumed.

constexpr const char* kPolicyRules = R"(:- assumable grant/2.
:- assumable member/2.
inherits(G, K) <- sub(G, K).
inherits(G, K) <- inherits(G, H), sub(H, K).
in_group(U, G) <- member(U, G).
in_group(U, K) <- member(U, G), inherits(G, K).
can(U, R) <- in_group(U, G), grant(G, R).
exposed(R) <- can(U, R), external(U).
safe(R) <- resource(R), ~exposed(R).
)";

constexpr int kGroups = 40;
constexpr int kUsers = 200;  // Two memberships each.
constexpr int kMembersPerGroup = 2 * kUsers / kGroups;
constexpr int kResources = 80;
constexpr int kGrantsPerGroup = 3;
constexpr int kExternal = 10;
constexpr int kContexts = 16;
constexpr uint64_t kPolicyShapeSeed = 7;

class PolicyWorkload : public Workload {
 protected:
  explicit PolicyWorkload(uint64_t seed) : rng_(seed) {
    policy_ = true;
    engine_ = "bottomup";
    // The database's shape comes from a fixed generator, so every seed
    // serves the same database up to renaming and the cost of a request
    // hardly varies with the seed: a ternary tree of groups plus a second
    // parent for every fourth group, kMembersPerGroup membership slots and
    // kGrantsPerGroup grant slots per group (a slot repeating a fact
    // collapses), kExternal external users, and the popular contexts. The
    // seed names the groups, users and resources, and drives the request
    // stream.
    Rng shape(kPolicyShapeSeed);
    group_names_ = Shuffled(kGroups, 1, &rng_);
    user_names_ = Shuffled(kUsers, 1, &rng_);
    resource_names_ = Shuffled(kResources, 1, &rng_);
    for (int g = 0; g < kGroups; ++g) {
      pool_.Add({"group", {G(g)}});
      if (g == 0) continue;
      const int parent = (g - 1) / 3;
      pool_.Add({"sub", {G(g), G(parent)}});
      if (g % 4 == 0) {
        int second = 0;
        do {
          second = static_cast<int>(shape.Uniform(g));
        } while (second == parent);
        pool_.Add({"sub", {G(g), G(second)}});
      }
    }
    std::vector<int> slots = Shuffled(kGroups, kMembersPerGroup, &shape);
    for (int u = 0; u < kUsers; ++u) {
      pool_.Add({"user", {U(u)}});
      for (int i = 0; i < 2; ++i) {
        pool_.Add({"member", {U(u), G(slots[2 * u + i])}});
      }
    }
    for (int picked = 0; picked < kExternal;) {
      picked += pool_.Add({"external", {U(shape.Uniform(kUsers))}});
    }
    slots = Shuffled(kGroups, kGrantsPerGroup, &shape);
    for (int r = 0; r < kResources; ++r) pool_.Add({"resource", {R(r)}});
    for (size_t i = 0; i < slots.size(); ++i) {
      pool_.Add({"grant", {G(slots[i]), R(i % kResources)}});
    }
    // The popular hypothetical contexts, most popular first: two thirds
    // grants, one third memberships.
    for (int i = 0; i < kContexts; ++i) {
      if (i % 3 == 2) {
        contexts_.push_back({"member", {U(shape.Uniform(kUsers)),
                                        G(shape.Uniform(kGroups))}});
      } else {
        contexts_.push_back({"grant", {G(shape.Uniform(kGroups)),
                                       R(shape.Uniform(kResources))}});
      }
    }
    initial_ = pool_.set();
    program_ = RenderProgram(kPolicyRules, initial_);
  }

 public:
  /// Every user's `can(u, R)` and `safe(R)`; what-ifs over each popular
  /// context, over a grant to each group and over a membership for each of
  /// the first kGroups users; then one inheritance edge retracted and
  /// restored.
  std::vector<Request> WarmUp() override {
    std::vector<Request> out;
    for (int u = 0; u < kUsers; ++u) {
      out.push_back(MakeQuery(QueryKind::kCanOpen, {U(u)}));
    }
    out.push_back(MakeQuery(QueryKind::kSafeOpen, {}));
    for (const Fact& ctx : contexts_) {
      if (ctx.pred == "member") {
        out.push_back(MakeQuery(QueryKind::kCanWhatIfMember,
                                {ctx.args[0], R(0), ctx.args[1]}));
      } else {
        out.push_back(MakeQuery(QueryKind::kExposedWhatIf,
                                {ctx.args[1], ctx.args[0]}));
      }
    }
    for (int g = 0; g < kGroups; ++g) {
      out.push_back(
          MakeQuery(QueryKind::kWhoWhatIfGrant, {R(g % kResources), G(g)}));
      out.push_back(MakeQuery(QueryKind::kCanWhatIfMember,
                              {U(g), R(0), G((g + 1) % kGroups)}));
    }
    const Fact edge{"sub", {G(1), G(0)}};  // Group 1's tree parent.
    out.push_back(Batch({{false, edge}}));
    out.push_back(Batch({{true, edge}}));
    return out;
  }

 protected:
  std::string G(size_t i) const { return Sym('g', group_names_[i]); }
  std::string U(size_t i) const { return Sym('u', user_names_[i]); }
  std::string R(size_t i) const { return Sym('r', resource_names_[i]); }

  std::string RandomGroup() { return Sym('g', rng_.Uniform(kGroups)); }
  std::string RandomUser() { return Sym('u', rng_.Uniform(kUsers)); }
  std::string RandomResource() { return Sym('r', rng_.Uniform(kResources)); }

  /// A grant over existing constants that is not in the base.
  Fact AbsentGrant() {
    for (;;) {
      Fact f{"grant", {RandomGroup(), RandomResource()}};
      if (!pool_.Has(f)) return f;
    }
  }

  Request Batch(std::vector<std::pair<bool, Fact>> mutations) {
    return MakeBatch(std::move(mutations), &pool_);
  }

  Rng rng_;
  FactPool pool_;
  std::vector<Fact> contexts_;
  std::vector<int> group_names_, user_names_, resource_names_;
};

/// Mostly what-if queries over popular contexts; one grant-change batch
/// per 40-request round. Engines run one thread: with two, 10 runs on a
/// 4-vCPU VM split into a fast and a slow cluster whose query_p90_us
/// differed by 40%.
class PolicyWhatIf : public PolicyWorkload {
 public:
  explicit PolicyWhatIf(uint64_t seed) : PolicyWorkload(seed) {}

  void NextRound(std::vector<Request>* out) override {
    // Odd rounds move a grant, even rounds move it back, so the base
    // never drifts from its generated shape.
    if (undo_.empty()) {
      Fact gone = pool_.Random("grant", &rng_);
      Fact added = AbsentGrant();
      undo_ = {{true, gone}, {false, added}};
      out->push_back(Batch({{false, gone}, {true, added}}));
    } else {
      out->push_back(Batch(std::move(undo_)));
      undo_.clear();
    }
    for (int i = 0; i < 39; ++i) {
      const size_t roll = rng_.Uniform(100);
      if (roll < 55) {
        const Fact& ctx = contexts_[rng_.Skewed(contexts_.size())];
        if (ctx.pred == "member") {
          out->push_back(MakeQuery(QueryKind::kCanWhatIfMember,
                                   {ctx.args[0], RandomResource(),
                                    ctx.args[1]}));
          continue;
        }
        const std::string& g = ctx.args[0];
        const std::string& r = ctx.args[1];
        switch (rng_.Uniform(3)) {
          case 0:
            out->push_back(MakeQuery(QueryKind::kCanWhatIfGrant,
                                     {RandomUser(), r, g}));
            break;
          case 1:
            out->push_back(MakeQuery(QueryKind::kExposedWhatIf, {r, g}));
            break;
          default:
            out->push_back(MakeQuery(QueryKind::kWhoWhatIfGrant, {r, g}));
        }
      } else if (roll < 75) {
        out->push_back(MakeQuery(QueryKind::kCanOpen, {RandomUser()}));
      } else if (roll < 85) {
        out->push_back(MakeQuery(QueryKind::kInGroupOpen, {RandomUser()}));
      } else if (roll < 95) {
        out->push_back(
            MakeQuery(QueryKind::kNotExposed, {RandomResource()}));
      } else {
        out->push_back(MakeQuery(QueryKind::kSafeOpen, {}));
      }
    }
  }

 private:
  std::vector<std::pair<bool, Fact>> undo_;
};

/// Each round onboards a new user (a new constant) in one batch and
/// offboards the user onboarded kWindow rounds earlier, so the base stays
/// the same size however long the run; then six queries, most of them
/// about the newcomer.
class PolicyOnboard : public PolicyWorkload {
 public:
  explicit PolicyOnboard(uint64_t seed) : PolicyWorkload(seed) {}

  void NextRound(std::vector<Request>* out) override {
    constexpr size_t kWindow = 16;
    const std::string user = Sym('n', step_);
    std::vector<std::pair<bool, Fact>> batch;
    std::vector<Fact> facts = {{"user", {user}}};
    const std::string g1 = RandomGroup();
    std::string g2 = RandomGroup();
    while (g2 == g1) g2 = RandomGroup();
    facts.push_back({"member", {user, g1}});
    facts.push_back({"member", {user, g2}});
    if (step_ % 8 == 0) facts.push_back({"external", {user}});
    for (const Fact& f : facts) batch.emplace_back(true, f);
    onboarded_.push_back(facts);
    if (onboarded_.size() > kWindow) {
      for (const Fact& f : onboarded_.front()) batch.emplace_back(false, f);
      onboarded_.erase(onboarded_.begin());
    }
    out->push_back(Batch(std::move(batch)));
    out->push_back(MakeQuery(QueryKind::kCanOpen, {user}));
    out->push_back(MakeQuery(QueryKind::kInGroupOpen, {user}));
    out->push_back(MakeQuery(QueryKind::kCanWhatIfGrant,
                             {user, RandomResource(), RandomGroup()}));
    out->push_back(MakeQuery(QueryKind::kCanWhatIfMember,
                             {user, RandomResource(), RandomGroup()}));
    out->push_back(MakeQuery(QueryKind::kWhoWhatIfGrant,
                             {RandomResource(), RandomGroup()}));
    out->push_back(MakeQuery(QueryKind::kNotExposed, {RandomResource()}));
    ++step_;
  }

 private:
  size_t step_ = 0;
  std::vector<std::vector<Fact>> onboarded_;
};

/// Each round retracts one grant, one membership and one inheritance
/// edge, then restores them, with three queries after each batch. Every
/// fourth round one query is a what-if, for the Definition 3 check. That
/// keeps what-ifs under 5% of the queries, so query_p90_us lands among
/// plain queries. With one what-if per round it landed among the what-ifs,
/// whose cost swings most with host load, and its spread over 10 seeds
/// reached 0.38. No
/// constant enters or leaves the domain (user/group/resource facts stay).
class PolicyRegrant : public PolicyWorkload {
 public:
  explicit PolicyRegrant(uint64_t seed) : PolicyWorkload(seed) {}

  void NextRound(std::vector<Request>* out) override {
    std::vector<Fact> picked = {pool_.Random("grant", &rng_),
                                pool_.Random("member", &rng_),
                                pool_.Random("sub", &rng_)};
    std::vector<std::pair<bool, Fact>> retract, restore;
    for (const Fact& f : picked) {
      retract.emplace_back(false, f);
      restore.emplace_back(true, f);
    }
    out->push_back(Batch(std::move(retract)));
    out->push_back(MakeQuery(QueryKind::kCanOpen, {RandomUser()}));
    out->push_back(MakeQuery(QueryKind::kNotExposed, {RandomResource()}));
    out->push_back(MakeQuery(QueryKind::kInGroupOpen, {RandomUser()}));
    out->push_back(Batch(std::move(restore)));
    if (round_++ % 4 == 0) {
      out->push_back(
          MakeQuery(QueryKind::kCanWhatIfGrant,
                    {RandomUser(), RandomResource(), RandomGroup()}));
    } else {
      out->push_back(MakeQuery(QueryKind::kCanOpen, {RandomUser()}));
    }
    out->push_back(MakeQuery(QueryKind::kSafeOpen, {}));
    out->push_back(MakeQuery(QueryKind::kInGroupOpen, {RandomUser()}));
  }

 private:
  size_t round_ = 0;
};

// ---------------------------------------------------------------------
// University rulebase: the paper's §2 Examples 1-3, plus Example 2 as a
// rule, over generated students and courses.

constexpr const char* kUniversityRules = R"(grad(S) <- take(S, his101), take(S, eng201).
grad(S) <- take(S, cs250), take(S, cs452).
degree(S, math) <- take(S, m101), take(S, m201).
degree(S, phys) <- take(S, p101), take(S, p201).
within1(S, D) <- degree(S, D)[add: take(S, C)].
degree(S, mathphys) <- within1(S, math), within1(S, phys).
onemore(S) <- student(S), grad(S)[add: take(S, C)].
)";

constexpr int kStudents = 40;
constexpr int kCoursesTaken = 3;  // Distinct courses per student.
constexpr uint64_t kShapeSeed = 12;
constexpr int kFillerCourses = 8;
const char* const kRuleCourses[] = {"his101", "eng201", "cs250", "cs452",
                                    "m101",   "m201",   "p101",  "p201"};

/// Enrolment changes as one insert + one retract batch per 20-request
/// round; the rest are the Examples' queries on the default engine.
class UniversityWhatIf : public Workload {
 public:
  explicit UniversityWhatIf(uint64_t seed) : rng_(seed) {
    policy_ = false;
    engine_ = "tabled";
    // The course sets come from a fixed generator and the seed only
    // decides which student gets which set, so every seed serves the same
    // database up to renaming and the cost of a query hardly varies with
    // the seed.
    Rng shape(kShapeSeed);
    for (int s : Shuffled(kStudents, 1, &rng_)) {
      students_.push_back(Sym('s', s));
      pool_.Add({"student", {students_.back()}});
      for (int taken = 0; taken < kCoursesTaken;) {
        taken += pool_.Add({"take", {students_.back(), RandomCourse(&shape)}});
      }
    }
    initial_ = pool_.set();
    program_ = RenderProgram(kUniversityRules, initial_);
  }

  /// `degree(s, D)`, `within1(s, D)` and `onemore(s)` for every student,
  /// in shape order, and `onemore(S)`; then the first student's first
  /// enrolment retracted and restored.
  std::vector<Request> WarmUp() override {
    std::vector<Request> out;
    for (const std::string& s : students_) {
      out.push_back(MakeQuery(QueryKind::kDegreeOpen, {s}));
      out.push_back(MakeQuery(QueryKind::kWithin1, {s}));
      out.push_back(MakeQuery(QueryKind::kOneMore, {s}));
    }
    out.push_back(MakeQuery(QueryKind::kOneMoreOpen, {}));
    const Fact take = *pool_.set().lower_bound({"take", {students_[0]}});
    out.push_back(MakeBatch({{false, take}}, &pool_));
    out.push_back(MakeBatch({{true, take}}, &pool_));
    return out;
  }

  void NextRound(std::vector<Request>* out) override {
    // Odd rounds move one enrolment, even rounds move it back, so the
    // base never drifts from its generated shape.
    if (undo_.empty()) {
      Fact gone = pool_.Random("take", &rng_);
      Fact added;
      do {
        added = {"take", {RandomStudent(), RandomCourse(&rng_)}};
      } while (pool_.Has(added));
      undo_ = {{true, gone}, {false, added}};
      out->push_back(MakeBatch({{false, gone}, {true, added}}, &pool_));
    } else {
      out->push_back(MakeBatch(std::move(undo_), &pool_));
      undo_.clear();
    }
    // Every round sends the same mix of queries, in a seeded order, so the
    // memo state each batch clears is about the same size every round.
    static constexpr QueryKind kMix[] = {
        QueryKind::kGradWhatIf, QueryKind::kGradWhatIf,
        QueryKind::kGradWhatIf, QueryKind::kGradWhatIf,
        QueryKind::kWithin1,    QueryKind::kWithin1,
        QueryKind::kWithin1,    QueryKind::kMathPhys,
        QueryKind::kMathPhys,   QueryKind::kMathPhys,
        QueryKind::kMathPhys,   QueryKind::kOneMore,
        QueryKind::kOneMore,    QueryKind::kDegreeOpen,
        QueryKind::kDegreeOpen, QueryKind::kDegreeOpen,
        QueryKind::kDegreeOpen, QueryKind::kDegreeOpen,
        QueryKind::kOneMoreOpen};
    const std::vector<int> order =
        Shuffled(static_cast<int>(std::size(kMix)), 1, &rng_);
    for (int i : order) {
      const QueryKind kind = kMix[i];
      const std::string s = RandomStudent();
      switch (kind) {
        case QueryKind::kGradWhatIf:
          out->push_back(
              MakeQuery(kind, {s, kRuleCourses[rng_.Uniform(4)]}));
          break;
        case QueryKind::kOneMoreOpen:
          out->push_back(MakeQuery(kind, {}));
          break;
        default:
          out->push_back(MakeQuery(kind, {s}));
      }
    }
  }

 private:
  std::string RandomStudent() { return Sym('s', rng_.Uniform(kStudents)); }
  /// Six in ten picks are one of the rules' own courses, so degrees and
  /// near-degrees are common.
  std::string RandomCourse(Rng* rng) {
    if (rng->Percent(60)) return kRuleCourses[rng->Uniform(8)];
    return Sym('c', rng->Uniform(kFillerCourses));
  }

  Rng rng_;
  FactPool pool_;
  std::vector<std::string> students_;  // In shape order.
  std::vector<std::pair<bool, Fact>> undo_;
};

}  // namespace

const std::vector<std::string>& Workload::Names() {
  static const std::vector<std::string> names = {
      "policy_whatif", "policy_onboard", "policy_regrant",
      "university_whatif"};
  return names;
}

std::unique_ptr<Workload> Workload::Make(const std::string& name,
                                         uint64_t seed) {
  if (name == "policy_whatif") return std::make_unique<PolicyWhatIf>(seed);
  if (name == "policy_onboard") return std::make_unique<PolicyOnboard>(seed);
  if (name == "policy_regrant") return std::make_unique<PolicyRegrant>(seed);
  if (name == "university_whatif") {
    return std::make_unique<UniversityWhatIf>(seed);
  }
  return nullptr;
}

}  // namespace serverbench
