#include "core/collection_index.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace legion {

namespace {

// Inserts into / erases from a keyed set map, dropping empty sets so
// update churn cannot leave tombstone keys behind.
template <typename Map, typename Key>
void MapInsert(Map& map, const Key& key, const Loid& member) {
  map[key].insert(member);
}

template <typename Map, typename Key>
void MapErase(Map& map, const Key& key, const Loid& member) {
  auto it = map.find(key);
  if (it == map.end()) return;
  it->second.erase(member);
  if (it->second.empty()) map.erase(it);
}

// True when `a` and `b` occupy the same index entries, so replacing one
// by the other needs no index work.  As blind to kind as the index is:
// int and double share the numeric key (NaN has none), and every list
// lives in the presence set only.
bool IndexedAlike(const AttrValue& a, const AttrValue& b) {
  if (a.is_numeric() && b.is_numeric()) {
    const double x = a.as_double();
    const double y = b.as_double();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  if (a.is_list() && b.is_list()) return true;
  return a == b;
}

}  // namespace

void AttributeIndexes::PerAttribute::Insert(const AttrValue& value,
                                            const Loid& member) {
  if (value.is_string()) {
    MapInsert(by_string, value.as_string(), member);
  } else if (value.is_numeric()) {
    const double key = value.as_double();
    if (!std::isnan(key)) MapInsert(by_number, key, member);
  } else if (value.is_bool()) {
    by_bool[value.as_bool() ? 1 : 0].insert(member);
  }
  // Lists are reachable through the presence index only.
}

void AttributeIndexes::PerAttribute::Erase(const AttrValue& value,
                                           const Loid& member) {
  if (value.is_string()) {
    MapErase(by_string, value.as_string(), member);
  } else if (value.is_numeric()) {
    const double key = value.as_double();
    if (!std::isnan(key)) MapErase(by_number, key, member);
  } else if (value.is_bool()) {
    by_bool[value.as_bool() ? 1 : 0].erase(member);
  }
}

void AttributeIndexes::Replace(const Loid& member, const std::string& name,
                               const AttrValue& before,
                               const AttrValue& after) {
  if (IndexedAlike(before, after)) return;
  auto it = attrs_.find(name);
  if (it == attrs_.end()) it = attrs_.try_emplace(name).first;
  PerAttribute& index = it->second;
  // Presence moves only when the attribute appears or disappears.
  if (before.is_null()) {
    index.present.insert(member);
  } else if (after.is_null()) {
    index.present.erase(member);
  }
  index.Erase(before, member);
  index.Insert(after, member);
  if (index.empty()) attrs_.erase(it);
}

void AttributeIndexes::Update(const Loid& member,
                              const AttributeDatabase& before,
                              const AttributeDatabase& after) {
  static const AttrValue kAbsent;
  auto old_it = before.begin();
  auto new_it = after.begin();
  while (old_it != before.end() || new_it != after.end()) {
    // < 0: only in before, > 0: only in after, 0: in both.
    int order = 1;
    if (new_it == after.end()) {
      order = -1;
    } else if (old_it != before.end()) {
      order = old_it->first.compare(new_it->first);
    }
    if (order < 0) {
      Replace(member, old_it->first, old_it->second, kAbsent);
      ++old_it;
    } else if (order > 0) {
      Replace(member, new_it->first, kAbsent, new_it->second);
      ++new_it;
    } else {
      Replace(member, new_it->first, old_it->second, new_it->second);
      ++old_it;
      ++new_it;
    }
  }
}

void AttributeIndexes::PredicateInto(const query::SargablePredicate& pred,
                                     std::vector<Loid>* out) const {
  auto it = attrs_.find(pred.attr);
  if (it == attrs_.end()) return;  // attribute never seen: no candidates
  const PerAttribute& index = it->second;

  switch (pred.op) {
    case query::PredicateOp::kDefined:
      out->insert(out->end(), index.present.begin(), index.present.end());
      return;
    case query::PredicateOp::kEq: {
      if (pred.literal.is_string()) {
        auto set = index.by_string.find(pred.literal.as_string());
        if (set != index.by_string.end()) {
          out->insert(out->end(), set->second.begin(), set->second.end());
        }
      } else if (pred.literal.is_bool()) {
        const auto& set = index.by_bool[pred.literal.as_bool() ? 1 : 0];
        out->insert(out->end(), set.begin(), set.end());
      } else if (pred.literal.is_numeric()) {
        auto [begin, end] =
            index.by_number.equal_range(pred.literal.as_double());
        for (auto key = begin; key != end; ++key) {
          out->insert(out->end(), key->second.begin(), key->second.end());
        }
      }
      return;
    }
    case query::PredicateOp::kLt:
    case query::PredicateOp::kLe:
    case query::PredicateOp::kGt:
    case query::PredicateOp::kGe: {
      // Inclusive at the boundary in both directions; the residual pass
      // trims the edge (planner.h explains why this must stay a
      // superset).
      const double bound = pred.literal.as_double();
      auto begin = index.by_number.begin();
      auto end = index.by_number.end();
      if (pred.op == query::PredicateOp::kLt ||
          pred.op == query::PredicateOp::kLe) {
        end = index.by_number.upper_bound(bound);
      } else {
        begin = index.by_number.lower_bound(bound);
      }
      for (auto key = begin; key != end; ++key) {
        out->insert(out->end(), key->second.begin(), key->second.end());
      }
      return;
    }
  }
}

std::size_t AttributeIndexes::EstimatePredicate(
    const query::SargablePredicate& pred, std::size_t cap) const {
  auto it = attrs_.find(pred.attr);
  if (it == attrs_.end()) return 0;
  const PerAttribute& index = it->second;

  switch (pred.op) {
    case query::PredicateOp::kDefined:
      return index.present.size();
    case query::PredicateOp::kEq: {
      if (pred.literal.is_string()) {
        auto set = index.by_string.find(pred.literal.as_string());
        return set == index.by_string.end() ? 0 : set->second.size();
      }
      if (pred.literal.is_bool()) {
        return index.by_bool[pred.literal.as_bool() ? 1 : 0].size();
      }
      if (pred.literal.is_numeric()) {
        auto [begin, end] =
            index.by_number.equal_range(pred.literal.as_double());
        std::size_t n = 0;
        for (auto key = begin; key != end; ++key) n += key->second.size();
        return n;
      }
      return 0;
    }
    default: {
      // Ranges: walk the matching keys summing set sizes, but stop at
      // the cap -- an unselective range is about to lose to the scan (or
      // to a cheaper `and` sibling) anyway, so an exact count of a huge
      // range is money down the drain.
      const double bound = pred.literal.as_double();
      auto begin = index.by_number.begin();
      auto end = index.by_number.end();
      if (pred.op == query::PredicateOp::kLt ||
          pred.op == query::PredicateOp::kLe) {
        end = index.by_number.upper_bound(bound);
      } else {
        begin = index.by_number.lower_bound(bound);
      }
      std::size_t n = 0;
      for (auto key = begin; key != end && n <= cap; ++key) {
        n += key->second.size();
      }
      return n;
    }
  }
}

std::size_t AttributeIndexes::Estimate(const query::IndexPlan& plan,
                                       std::size_t cap) const {
  switch (plan.kind) {
    case query::IndexPlan::Kind::kPredicate:
      return EstimatePredicate(plan.pred, cap);
    case query::IndexPlan::Kind::kAnd: {
      // The cap shrinks as better children turn up, so expensive range
      // counts stop as soon as they lose.
      std::size_t best = std::numeric_limits<std::size_t>::max();
      for (const auto& child : plan.children) {
        best = std::min(best, Estimate(child, std::min(cap, best)));
      }
      return best;
    }
    case query::IndexPlan::Kind::kOr: {
      std::size_t total = 0;
      for (const auto& child : plan.children) {
        total += Estimate(child, cap);
        if (total > cap) break;
      }
      return total;
    }
  }
  return std::numeric_limits<std::size_t>::max();
}

void AttributeIndexes::EvalInto(const query::IndexPlan& plan,
                                std::vector<Loid>* out) const {
  switch (plan.kind) {
    case query::IndexPlan::Kind::kPredicate:
      PredicateInto(plan.pred, out);
      return;
    case query::IndexPlan::Kind::kAnd: {
      // Matches are a subset of every conjunct's candidates, so prune
      // through the cheapest child and let the residual pass check the
      // rest -- intersecting the large siblings would cost more than it
      // saves.
      const query::IndexPlan* cheapest = nullptr;
      std::size_t best = std::numeric_limits<std::size_t>::max();
      for (const auto& child : plan.children) {
        const std::size_t estimate = Estimate(child, std::min(
            best, std::numeric_limits<std::size_t>::max() - 1));
        if (estimate < best) {
          best = estimate;
          cheapest = &child;
        }
      }
      if (cheapest != nullptr) EvalInto(*cheapest, out);
      return;
    }
    case query::IndexPlan::Kind::kOr:
      for (const auto& child : plan.children) EvalInto(child, out);
      return;
  }
}

AttributeIndexes::Candidates AttributeIndexes::Eval(
    const query::IndexPlan& plan) const {
  Candidates result;
  result.exact = plan.exact;
  EvalInto(plan, &result.members);
  // Individual member sets come out LOID-sorted, but ranges and unions
  // interleave sets; restore the canonical order (and drop duplicates a
  // record can earn by matching several `or` branches).
  std::sort(result.members.begin(), result.members.end());
  result.members.erase(
      std::unique(result.members.begin(), result.members.end()),
      result.members.end());
  return result;
}

}  // namespace legion
