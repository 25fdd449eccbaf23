#include "reference.h"

#include <algorithm>
#include <map>
#include <set>

namespace serverbench {

using Names = std::set<std::string>;

std::string CanonicalBool(bool value) { return value ? "yes" : "no"; }

std::string CanonicalRows(std::vector<std::string> rows) {
  std::sort(rows.begin(), rows.end());
  std::string out = std::to_string(rows.size()) + " rows";
  for (const std::string& row : rows) out += "\n" + row;
  return out;
}

namespace {

std::vector<std::string> Rows(const std::string& var, const Names& values) {
  std::vector<std::string> rows;
  for (const std::string& v : values) rows.push_back(var + "=" + v);
  return rows;
}

std::string_view NextLine(std::string_view* rest) {
  const size_t nl = rest->find('\n');
  std::string_view line = rest->substr(0, nl);
  rest->remove_prefix(nl == std::string_view::npos ? rest->size() : nl + 1);
  return line;
}

// ---------------------------------------------------------------------
// Policy: inherits = transitive closure of sub; in_group = memberships
// plus their ancestors; can = grants of in_group; exposed = what external
// users can reach; safe = resources minus exposed.

struct PolicyModel {
  std::map<std::string, Names> in_group;  // user -> groups
  std::map<std::string, Names> can;       // user -> resources
  Names exposed;
  Names safe;
};

PolicyModel EvaluatePolicy(const FactSet& facts, const Fact* extra) {
  std::map<std::string, Names> parents, members, grants;
  Names external, resources;
  auto take = [&](const Fact& f) {
    if (f.pred == "sub") {
      parents[f.args[0]].insert(f.args[1]);
    } else if (f.pred == "member") {
      members[f.args[0]].insert(f.args[1]);
    } else if (f.pred == "grant") {
      grants[f.args[0]].insert(f.args[1]);
    } else if (f.pred == "external") {
      external.insert(f.args[0]);
    } else if (f.pred == "resource") {
      resources.insert(f.args[0]);
    }
  };
  for (const Fact& f : facts) take(f);
  if (extra != nullptr) take(*extra);

  std::map<std::string, Names> ancestors;  // one or more sub steps up
  auto ancestors_of = [&](const std::string& group) -> const Names& {
    auto [it, fresh] = ancestors.try_emplace(group);
    if (!fresh) return it->second;
    std::vector<std::string> stack(parents[group].begin(),
                                   parents[group].end());
    while (!stack.empty()) {
      std::string g = std::move(stack.back());
      stack.pop_back();
      if (!it->second.insert(g).second) continue;
      for (const std::string& p : parents[g]) stack.push_back(p);
    }
    return it->second;
  };

  PolicyModel model;
  for (const auto& [user, groups] : members) {
    Names& in = model.in_group[user];
    for (const std::string& g : groups) {
      in.insert(g);
      const Names& up = ancestors_of(g);
      in.insert(up.begin(), up.end());
    }
    Names& can = model.can[user];
    for (const std::string& g : in) {
      auto it = grants.find(g);
      if (it != grants.end()) can.insert(it->second.begin(), it->second.end());
    }
    if (external.count(user) > 0) {
      model.exposed.insert(can.begin(), can.end());
    }
  }
  for (const std::string& r : resources) {
    if (model.exposed.count(r) == 0) model.safe.insert(r);
  }
  return model;
}

bool Contains(const std::map<std::string, Names>& m, const std::string& key,
              const std::string& value) {
  auto it = m.find(key);
  return it != m.end() && it->second.count(value) > 0;
}

Names Lookup(const std::map<std::string, Names>& m, const std::string& key) {
  auto it = m.find(key);
  return it == m.end() ? Names() : it->second;
}

class PolicyReference : public Reference {
 public:
  std::string Answer(const Request& q, const FactSet& facts,
                     int64_t version) override {
    const PolicyModel& m = Model(facts, version, q.hypo);
    const auto& p = q.params;
    switch (q.kind) {
      case QueryKind::kCanWhatIfGrant:
      case QueryKind::kCanWhatIfMember:
        return CanonicalBool(Contains(m.can, p[0], p[1]));
      case QueryKind::kWhoWhatIfGrant: {
        Names users;
        for (const auto& [user, resources] : m.can) {
          if (resources.count(p[0]) > 0) users.insert(user);
        }
        return CanonicalRows(Rows("U", users));
      }
      case QueryKind::kExposedWhatIf:
        return CanonicalBool(m.exposed.count(p[0]) > 0);
      case QueryKind::kCanOpen:
        return CanonicalRows(Rows("R", Lookup(m.can, p[0])));
      case QueryKind::kInGroupOpen:
        return CanonicalRows(Rows("G", Lookup(m.in_group, p[0])));
      case QueryKind::kNotExposed:
        return CanonicalBool(m.exposed.count(p[0]) == 0);
      case QueryKind::kSafeOpen:
        return CanonicalRows(Rows("R", m.safe));
      default:
        return "unsupported query kind";
    }
  }

 private:
  const PolicyModel& Model(const FactSet& facts, int64_t version,
                           const std::optional<Fact>& hypo) {
    if (version != version_) {
      version_ = version;
      models_.clear();
    }
    const std::string key = hypo.has_value() ? hypo->Text() : "";
    auto it = models_.find(key);
    if (it == models_.end()) {
      it = models_
               .emplace(key, EvaluatePolicy(
                                 facts, hypo.has_value() ? &*hypo : nullptr))
               .first;
    }
    return it->second;
  }

  int64_t version_ = -1;
  std::map<std::string, PolicyModel> models_;  // "" = no hypothesis
};

// ---------------------------------------------------------------------
// University: only the rules' eight courses decide any derived fact, so a
// student is the bitmask of those courses taken. `[add: take(S, C)]` with
// C ranging over the domain sets one bit or (for any other constant of
// the domain, which always holds student names) none.

const char* const kCourses[] = {"his101", "eng201", "cs250", "cs452",
                                "m101",   "m201",   "p101",  "p201"};
const char* const kDegrees[] = {"math", "phys", "mathphys"};

uint32_t CourseBit(const std::string& course) {
  for (uint32_t i = 0; i < 8; ++i) {
    if (course == kCourses[i]) return 1u << i;
  }
  return 0;
}

bool Grad(uint32_t m) { return (m & 0x3) == 0x3 || (m & 0xC) == 0xC; }

bool Within1(uint32_t m, int degree);

/// degree(S, kDegrees[d]) over the course set `m`.
bool Degree(uint32_t m, int d) {
  if (d == 0) return (m & 0x30) == 0x30;
  if (d == 1) return (m & 0xC0) == 0xC0;
  return Within1(m, 0) && Within1(m, 1);
}

/// within1(S, D) <- degree(S, D)[add: take(S, C)], C over the domain.
bool Within1(uint32_t m, int d) {
  if (Degree(m, d)) return true;
  for (uint32_t i = 0; i < 8; ++i) {
    if (Degree(m | (1u << i), d)) return true;
  }
  return false;
}

/// onemore(S) <- student(S), grad(S)[add: take(S, C)].
bool OneMore(uint32_t m) {
  if (Grad(m)) return true;
  for (uint32_t i = 0; i < 8; ++i) {
    if (Grad(m | (1u << i))) return true;
  }
  return false;
}

class UniversityReference : public Reference {
 public:
  std::string Answer(const Request& q, const FactSet& facts,
                     int64_t version) override {
    if (version != version_) {
      version_ = version;
      courses_.clear();
      students_.clear();
      for (const Fact& f : facts) {
        if (f.pred == "take") {
          courses_[f.args[0]] |= CourseBit(f.args[1]);
        } else if (f.pred == "student") {
          students_.insert(f.args[0]);
        }
      }
    }
    const std::string s = q.params.empty() ? "" : q.params[0];
    const uint32_t m = courses_.count(s) > 0 ? courses_[s] : 0;
    switch (q.kind) {
      case QueryKind::kGradWhatIf:
        return CanonicalBool(Grad(m | CourseBit(q.params[1])));
      case QueryKind::kWithin1:
      case QueryKind::kDegreeOpen: {
        Names degrees;
        for (int d = 0; d < 3; ++d) {
          const bool holds =
              q.kind == QueryKind::kWithin1 ? Within1(m, d) : Degree(m, d);
          if (holds) degrees.insert(kDegrees[d]);
        }
        return CanonicalRows(Rows("D", degrees));
      }
      case QueryKind::kMathPhys:
        return CanonicalBool(Degree(m, 2));
      case QueryKind::kOneMore:
        return CanonicalBool(students_.count(s) > 0 && OneMore(m));
      case QueryKind::kOneMoreOpen: {
        Names who;
        for (const std::string& student : students_) {
          auto it = courses_.find(student);
          if (OneMore(it == courses_.end() ? 0 : it->second)) {
            who.insert(student);
          }
        }
        return CanonicalRows(Rows("S", who));
      }
      default:
        return "unsupported query kind";
    }
  }

 private:
  int64_t version_ = -1;
  std::map<std::string, uint32_t> courses_;
  Names students_;
};

}  // namespace

std::unique_ptr<Reference> Reference::Make(bool policy) {
  if (policy) return std::make_unique<PolicyReference>();
  return std::make_unique<UniversityReference>();
}

int64_t ApplyBatch(const Request& batch, FactSet* facts) {
  std::map<Fact, bool> before;
  for (const auto& [insert, fact] : batch.mutations) {
    before.try_emplace(fact, facts->count(fact) > 0);
    if (insert) {
      facts->insert(fact);
    } else {
      facts->erase(fact);
    }
  }
  int64_t changed = 0;
  for (const auto& [fact, was] : before) {
    changed += (facts->count(fact) > 0) != was;
  }
  return changed;
}

std::string CanonicalResponse(std::string_view response) {
  std::string_view rest = response;
  std::string_view head = NextLine(&rest);
  if (head == "ok yes") return CanonicalBool(true);
  if (head == "ok no") return CanonicalBool(false);
  if (head.substr(0, 3) != "ok " || head.size() < 11 ||
      head.substr(head.size() - 8) != " answers") {
    return "";
  }
  std::vector<std::string> rows;
  while (!rest.empty()) {
    std::string_view line = NextLine(&rest);
    if (line.substr(0, 2) != "- ") return "";
    rows.emplace_back(line.substr(2));
  }
  if (std::to_string(rows.size()) != head.substr(3, head.size() - 11)) {
    return "";
  }
  return CanonicalRows(std::move(rows));
}

int64_t ChangedFromResponse(std::string_view response) {
  while (!response.empty() && response.back() == '\n') {
    response.remove_suffix(1);
  }
  const size_t nl = response.rfind('\n');
  std::string_view last =
      nl == std::string_view::npos ? response : response.substr(nl + 1);
  const size_t at = last.find(" changed=");
  if (last.substr(0, 9) != "ok epoch=" || at == std::string_view::npos) {
    return -1;
  }
  return std::stoll(std::string(last.substr(at + 9)));
}

std::string CanonicalFacts(const FactSet& facts) {
  std::vector<std::string> lines;
  for (const Fact& f : facts) lines.push_back(f.Text());
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

}  // namespace serverbench
