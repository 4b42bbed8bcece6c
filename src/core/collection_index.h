// Attribute indexes for the Collection's record store.
//
// Every attribute of every record is indexed by value kind:
//
//   * strings -> hash map of value -> member set (equality),
//   * numbers -> ordered map keyed by the value *as double* -> member
//     set (equality and ranges; int and double compare across the divide
//     exactly like CompareAttrValues, NaN values are unindexable and
//     excluded -- NaN matches no comparison anyway),
//   * bools   -> two member sets,
//   * presence -> member set of records carrying a non-null value
//     (serves defined($attr); lists appear only here).
//
// Maintained incrementally by the Collection through one diff routine,
// Update(): join, update and leave all move a member from its old record
// to its new one, touching only the attributes whose indexed value
// changed.  Member sets are ordered by LOID, so candidate lists come out
// sorted in the Collection's canonical result order for free.
//
// The candidate contract matches planner.h: for any record matching the
// full query, the plan's candidate set contains it.  Range boundaries
// are answered inclusively (the residual pass trims the edge) so that
// int64 keys that collide when widened to double can never be dropped.
#pragma once

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "base/attributes.h"
#include "base/loid.h"
#include "query/planner.h"

namespace legion {

class AttributeIndexes {
 public:
  // Moves `member`'s index entries from its `before` record to its
  // `after` record.  An ordered merge over the two (name-sorted)
  // databases unindexes and reindexes only the attributes whose indexed
  // footprint differs, so a push that changed one attribute costs one
  // entry move.  Join is the degenerate case with an empty `before`,
  // leave the one with an empty `after`.  The caller passes the record
  // it stored before and after, so the structures never drift from the
  // store.
  void Update(const Loid& member, const AttributeDatabase& before,
              const AttributeDatabase& after);

  // The result of evaluating an index plan.
  struct Candidates {
    std::vector<Loid> members;  // sorted ascending, unique
    bool exact = false;         // plan-level exactness (planner.h)
  };

  // Evaluates the plan against the indexes.  `and` nodes prune through
  // their cheapest child (by Estimate); `or` nodes union every branch.
  Candidates Eval(const query::IndexPlan& plan) const;

  // Candidate count for the plan without materializing anything,
  // counted only up to `cap`: once the running count exceeds the cap
  // the walk stops and the (now cap-exceeding) partial count returns.
  // The Collection skips the index path when the estimate is close to
  // the store size -- gathering would cost more than the scan.
  std::size_t Estimate(const query::IndexPlan& plan, std::size_t cap) const;

  std::size_t attribute_count() const { return attrs_.size(); }

  // Structural equality: same attributes, keys and member sets.  Lets a
  // diff-maintained index be checked against one rebuilt from scratch.
  friend bool operator==(const AttributeIndexes&,
                         const AttributeIndexes&) = default;

 private:
  struct PerAttribute {
    std::unordered_map<std::string, std::set<Loid>> by_string;
    std::map<double, std::set<Loid>> by_number;
    std::set<Loid> by_bool[2];
    std::set<Loid> present;

    // The value-kind entry for `value` (nothing for null, lists or NaN).
    void Insert(const AttrValue& value, const Loid& member);
    void Erase(const AttrValue& value, const Loid& member);
    bool empty() const {
      return present.empty() && by_string.empty() && by_number.empty() &&
             by_bool[0].empty() && by_bool[1].empty();
    }
    friend bool operator==(const PerAttribute&,
                           const PerAttribute&) = default;
  };

  // Moves one attribute's entries from `before` to `after` (null stands
  // for absent).
  void Replace(const Loid& member, const std::string& name,
               const AttrValue& before, const AttrValue& after);

  void EvalInto(const query::IndexPlan& plan, std::vector<Loid>* out) const;
  void PredicateInto(const query::SargablePredicate& pred,
                     std::vector<Loid>* out) const;
  std::size_t EstimatePredicate(const query::SargablePredicate& pred,
                                std::size_t cap) const;

  std::unordered_map<std::string, PerAttribute> attrs_;
};

}  // namespace legion
