#ifndef SERVERBENCH_REFERENCE_H_
#define SERVERBENCH_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "workload.h"

namespace serverbench {

/// Expected answers computed straight from the generated facts, sharing no
/// code with src/engine: group inheritance is a graph closure, `safe` a set
/// complement, and `A[add: B]` is A evaluated over facts + {B}, as
/// Definition 3 states.
class Reference {
 public:
  /// The evaluator for the policy rulebase, or the university one.
  static std::unique_ptr<Reference> Make(bool policy);
  virtual ~Reference() = default;

  /// Canonical answer of query `q` over `facts`. Equal `version`s promise
  /// equal `facts`, so models are cached per version.
  virtual std::string Answer(const Request& q, const FactSet& facts,
                             int64_t version) = 0;
};

/// Applies a mutation batch in order; returns the netted number of facts
/// whose membership changed (the `changed=` the server must report).
int64_t ApplyBatch(const Request& batch, FactSet* facts);

/// Canonical answers: "yes", "no", or "N rows" then the sorted rows
/// ("X=a, Y=b"), one per line.
std::string CanonicalBool(bool value);
std::string CanonicalRows(std::vector<std::string> rows);

/// The canonical form of a RunSession query response, or "" when the
/// response is not a well-formed answer (e.g. `err ...`).
std::string CanonicalResponse(std::string_view response);

/// The `changed=K` of a mutation response's final line, or -1.
int64_t ChangedFromResponse(std::string_view response);

/// `facts` as sorted `pred(a, b)` lines: QueryServer::CanonicalState form.
std::string CanonicalFacts(const FactSet& facts);

}  // namespace serverbench

#endif  // SERVERBENCH_REFERENCE_H_
