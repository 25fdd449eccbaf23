#ifndef HYPO_AST_SYMBOL_TABLE_H_
#define HYPO_AST_SYMBOL_TABLE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "base/status.h"
#include "base/statusor.h"

namespace hypo {

/// Interned id of a predicate symbol. Dense, starting at 0.
using PredicateId = int32_t;

/// Interned id of a constant symbol. Dense, starting at 0.
using ConstId = int32_t;

constexpr PredicateId kInvalidPredicate = -1;
constexpr ConstId kInvalidConst = -1;

/// Interns predicate and constant symbols to dense integer ids.
///
/// Predicates carry an arity that is fixed at first registration; using the
/// same name with a different arity is rejected (Definition 12 fixes the
/// database schema, and arity punning is invariably a bug in rulebases).
///
/// A SymbolTable is shared by the RuleBase, the Database, and the engines
/// evaluating them. It is append-only: ids remain valid for its lifetime.
class SymbolTable {
 public:
  SymbolTable() = default;

  // Shared by rulebase/database/engine objects; copying would silently
  // fork the id space, so forbid it.
  SymbolTable(const SymbolTable&) = delete;
  SymbolTable& operator=(const SymbolTable&) = delete;

  /// Interns `name` as a predicate of the given arity. Returns the existing
  /// id if already interned with the same arity; error on arity mismatch.
  StatusOr<PredicateId> InternPredicate(std::string_view name, int arity);

  /// Returns the id of an already-interned predicate, or kInvalidPredicate.
  PredicateId FindPredicate(std::string_view name) const;

  /// FindPredicate with InternPredicate's arity check, without interning:
  /// the id if `name` is interned with `arity`, kInvalidPredicate if it is
  /// not interned, and InternPredicate's error on an arity mismatch.
  StatusOr<PredicateId> LookupPredicate(std::string_view name,
                                        int arity) const;

  /// Interns `name` as a constant (idempotent).
  ConstId InternConst(std::string_view name);

  /// Returns the id of an already-interned constant, or kInvalidConst.
  ConstId FindConst(std::string_view name) const;

  const std::string& PredicateName(PredicateId id) const;
  int PredicateArity(PredicateId id) const;
  const std::string& ConstName(ConstId id) const;

  int num_predicates() const { return static_cast<int>(predicates_.size()); }
  int num_consts() const { return static_cast<int>(consts_.size()); }

 private:
  struct PredicateInfo {
    std::string name;
    int arity;
  };

  std::vector<PredicateInfo> predicates_;
  std::unordered_map<std::string, PredicateId> predicate_index_;
  std::vector<std::string> consts_;
  std::unordered_map<std::string, ConstId> const_index_;
};

}  // namespace hypo

#endif  // HYPO_AST_SYMBOL_TABLE_H_
