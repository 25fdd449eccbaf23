#include "ast/symbol_table.h"

#include "base/logging.h"

namespace hypo {

StatusOr<PredicateId> SymbolTable::InternPredicate(std::string_view name,
                                                   int arity) {
  if (arity < 0) {
    return Status::InvalidArgument("negative arity for predicate '" +
                                   std::string(name) + "'");
  }
  HYPO_ASSIGN_OR_RETURN(PredicateId id, LookupPredicate(name, arity));
  if (id != kInvalidPredicate) return id;
  id = static_cast<PredicateId>(predicates_.size());
  predicates_.push_back(PredicateInfo{std::string(name), arity});
  predicate_index_.emplace(std::string(name), id);
  return id;
}

StatusOr<PredicateId> SymbolTable::LookupPredicate(std::string_view name,
                                                   int arity) const {
  PredicateId id = FindPredicate(name);
  if (id != kInvalidPredicate && predicates_[id].arity != arity) {
    return Status::InvalidArgument(
        "predicate '" + std::string(name) + "' used with arity " +
        std::to_string(arity) + " but registered with arity " +
        std::to_string(predicates_[id].arity));
  }
  return id;
}

PredicateId SymbolTable::FindPredicate(std::string_view name) const {
  auto it = predicate_index_.find(std::string(name));
  return it == predicate_index_.end() ? kInvalidPredicate : it->second;
}

ConstId SymbolTable::InternConst(std::string_view name) {
  auto it = const_index_.find(std::string(name));
  if (it != const_index_.end()) return it->second;
  ConstId id = static_cast<ConstId>(consts_.size());
  consts_.emplace_back(name);
  const_index_.emplace(std::string(name), id);
  return id;
}

ConstId SymbolTable::FindConst(std::string_view name) const {
  auto it = const_index_.find(std::string(name));
  return it == const_index_.end() ? kInvalidConst : it->second;
}

const std::string& SymbolTable::PredicateName(PredicateId id) const {
  HYPO_CHECK(id >= 0 && id < num_predicates()) << "bad predicate id " << id;
  return predicates_[id].name;
}

int SymbolTable::PredicateArity(PredicateId id) const {
  HYPO_CHECK(id >= 0 && id < num_predicates()) << "bad predicate id " << id;
  return predicates_[id].arity;
}

const std::string& SymbolTable::ConstName(ConstId id) const {
  HYPO_CHECK(id >= 0 && id < num_consts()) << "bad constant id " << id;
  return consts_[id];
}

}  // namespace hypo
