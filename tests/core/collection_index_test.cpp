// Attribute indexes (collection_index.h): candidate soundness,
// boundary handling, and the join/update/leave maintenance that keeps
// them in lockstep with the Collection's record store -- including a
// randomized churn property checking the diff-maintained indexes against
// ones rebuilt from scratch.
#include "core/collection_index.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "base/rng.h"
#include "core/collection.h"
#include "test_world.h"

namespace legion {
namespace {

using testing::Await;
using testing::TestWorld;

Loid M(std::uint64_t serial) { return Loid(LoidSpace::kHost, 0, serial); }

query::IndexPlan Pred(const std::string& attr, query::PredicateOp op,
                      AttrValue literal = {}) {
  query::IndexPlan plan;
  plan.kind = query::IndexPlan::Kind::kPredicate;
  plan.pred = query::SargablePredicate{attr, op, std::move(literal)};
  return plan;
}

TEST(AttributeIndexesTest, EqualityLookup) {
  AttributeIndexes indexes;
  AttributeDatabase a;
  a.Set("arch", "x86");
  AttributeDatabase b;
  b.Set("arch", "sparc");
  indexes.Update(M(1), {}, a);
  indexes.Update(M(2), {}, b);
  indexes.Update(M(3), {}, a);

  auto result =
      indexes.Eval(Pred("arch", query::PredicateOp::kEq, AttrValue("x86")));
  EXPECT_EQ(result.members, (std::vector<Loid>{M(1), M(3)}));
  auto miss =
      indexes.Eval(Pred("arch", query::PredicateOp::kEq, AttrValue("vax")));
  EXPECT_TRUE(miss.members.empty());
}

TEST(AttributeIndexesTest, RangeBoundariesAreInclusiveSupersets) {
  // The candidate contract is superset-only: a strict `< 1.0` must still
  // return the record at exactly 1.0 (the residual pass trims it).
  AttributeIndexes indexes;
  for (std::uint64_t i = 1; i <= 5; ++i) {
    AttributeDatabase db;
    db.Set("load", 0.5 * static_cast<double>(i));  // 0.5 .. 2.5
    indexes.Update(M(i), {}, db);
  }
  auto lt = indexes.Eval(Pred("load", query::PredicateOp::kLt, AttrValue(1.0)));
  EXPECT_EQ(lt.members, (std::vector<Loid>{M(1), M(2)}));  // 0.5 and 1.0
  EXPECT_FALSE(lt.exact);
  auto gt = indexes.Eval(Pred("load", query::PredicateOp::kGt, AttrValue(2.0)));
  EXPECT_EQ(gt.members, (std::vector<Loid>{M(4), M(5)}));  // 2.0 and 2.5
}

TEST(AttributeIndexesTest, IntAndDoubleShareTheNumericIndex) {
  // CompareAttrValues compares across the int/double divide; so does the
  // index, which keys everything as double.
  AttributeIndexes indexes;
  AttributeDatabase ints;
  ints.Set("cpus", 4);
  AttributeDatabase doubles;
  doubles.Set("cpus", 4.0);
  indexes.Update(M(1), {}, ints);
  indexes.Update(M(2), {}, doubles);
  auto result =
      indexes.Eval(Pred("cpus", query::PredicateOp::kEq, AttrValue(4)));
  EXPECT_EQ(result.members, (std::vector<Loid>{M(1), M(2)}));
}

TEST(AttributeIndexesTest, DefinedUsesPresence) {
  AttributeIndexes indexes;
  AttributeDatabase with;
  with.Set("gpu", true);
  AttributeDatabase with_null;
  with_null.Set("gpu", AttrValue());  // null: not defined
  indexes.Update(M(1), {}, with);
  indexes.Update(M(2), {}, with_null);
  auto result = indexes.Eval(Pred("gpu", query::PredicateOp::kDefined));
  EXPECT_EQ(result.members, (std::vector<Loid>{M(1)}));
  EXPECT_TRUE(
      indexes.Eval(Pred("none", query::PredicateOp::kDefined)).members.empty());
}

TEST(AttributeIndexesTest, LeaveErasesEveryTrace) {
  AttributeIndexes indexes;
  AttributeDatabase db;
  db.Set("arch", "x86");
  db.Set("load", 0.5);
  db.Set("up", true);
  indexes.Update(M(1), {}, db);
  EXPECT_EQ(indexes.attribute_count(), 3u);
  indexes.Update(M(1), db, {});
  EXPECT_EQ(indexes.attribute_count(), 0u);  // empty structures pruned
}

TEST(AttributeIndexesTest, OrUnionsAndDeduplicates) {
  AttributeIndexes indexes;
  AttributeDatabase db;
  db.Set("arch", "x86");
  db.Set("load", 0.1);
  indexes.Update(M(1), {}, db);
  query::IndexPlan plan;
  plan.kind = query::IndexPlan::Kind::kOr;
  plan.children.push_back(
      Pred("arch", query::PredicateOp::kEq, AttrValue("x86")));
  plan.children.push_back(
      Pred("load", query::PredicateOp::kLt, AttrValue(1.0)));
  auto result = indexes.Eval(plan);
  EXPECT_EQ(result.members, (std::vector<Loid>{M(1)}));  // once, not twice
}

TEST(AttributeIndexesTest, AndPrunesThroughCheapestChild) {
  AttributeIndexes indexes;
  for (std::uint64_t i = 1; i <= 100; ++i) {
    AttributeDatabase db;
    db.Set("arch", i == 7 ? "alpha" : "x86");
    db.Set("load", 0.5);
    indexes.Update(M(i), {}, db);
  }
  query::IndexPlan plan;
  plan.kind = query::IndexPlan::Kind::kAnd;
  plan.children.push_back(
      Pred("arch", query::PredicateOp::kEq, AttrValue("alpha")));
  plan.children.push_back(
      Pred("load", query::PredicateOp::kLe, AttrValue(1.0)));
  auto result = indexes.Eval(plan);
  // The arch child (1 candidate) wins over the load child (100).
  EXPECT_EQ(result.members, (std::vector<Loid>{M(7)}));
  EXPECT_LE(indexes.Estimate(plan, 1000), 1u);
}

TEST(AttributeIndexesTest, EstimateHonorsTheCap) {
  AttributeIndexes indexes;
  for (std::uint64_t i = 1; i <= 50; ++i) {
    AttributeDatabase db;
    db.Set("load", static_cast<double>(i));
    indexes.Update(M(i), {}, db);
  }
  const auto plan = Pred("load", query::PredicateOp::kLe, AttrValue(1e9));
  EXPECT_EQ(indexes.Estimate(plan, 1000), 50u);
  // Capped: stops counting shortly past the cap instead of walking all.
  EXPECT_GT(indexes.Estimate(plan, 10), 10u);
}

// ---- Maintenance through the Collection ------------------------------------

class CollectionIndexTest : public ::testing::Test {
 protected:
  AttributeDatabase HostRecord(const std::string& arch, double load) {
    AttributeDatabase db;
    db.Set("host_arch", arch);
    db.Set("host_load", load);
    return db;
  }

  TestWorld world_;
};

TEST_F(CollectionIndexTest, JoinUpdateLeaveKeepIndexConsistent) {
  Await<bool> joined;
  world_.collection->JoinCollection(M(1), HostRecord("x86", 0.9),
                                    joined.Sink());
  auto x86 = world_.collection->QueryLocal("$host_arch == \"x86\"");
  ASSERT_EQ(x86->size(), 1u);
  EXPECT_GE(world_.collection->index_hits(), 1u);

  // Update flips the arch; the old index entry must be gone.
  Await<bool> updated;
  world_.collection->UpdateCollectionEntry(M(1), HostRecord("sparc", 0.1),
                                           updated.Sink());
  EXPECT_TRUE(world_.collection->QueryLocal("$host_arch == \"x86\"")->empty());
  EXPECT_EQ(world_.collection->QueryLocal("$host_arch == \"sparc\"")->size(),
            1u);

  Await<bool> left;
  world_.collection->LeaveCollection(M(1), left.Sink());
  EXPECT_TRUE(
      world_.collection->QueryLocal("$host_arch == \"sparc\"")->empty());
}

TEST_F(CollectionIndexTest, IndexAndScanCountersSplitTraffic) {
  Await<bool> joined;
  world_.collection->JoinCollection(M(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  const auto hits = world_.collection->index_hits();
  const auto fallbacks = world_.collection->planner_fallbacks();
  (void)world_.collection->QueryLocal("$host_arch == \"x86\"");  // sargable
  (void)world_.collection->QueryLocal("match($host_arch, \"x\")");  // not
  QueryOptions force;
  force.force_scan = true;
  (void)world_.collection->QueryLocal("$host_arch == \"x86\"", force);
  EXPECT_EQ(world_.collection->index_hits(), hits + 1);
  EXPECT_EQ(world_.collection->planner_fallbacks(), fallbacks + 2);
}

TEST_F(CollectionIndexTest, CompileCacheCountsHitsAndMisses) {
  Await<bool> joined;
  world_.collection->JoinCollection(M(1), HostRecord("x86", 0.5),
                                    joined.Sink());
  const std::string text = "$host_load < 1.0";
  (void)world_.collection->QueryLocal(text);
  (void)world_.collection->QueryLocal(text);
  (void)world_.collection->QueryLocal(text);
  EXPECT_EQ(world_.collection->compile_cache_misses(), 1u);
  EXPECT_EQ(world_.collection->compile_cache_hits(), 2u);
}

TEST_F(CollectionIndexTest, MaxResultsAndOrderByPrune) {
  for (std::uint64_t i = 1; i <= 10; ++i) {
    Await<bool> joined;
    world_.collection->JoinCollection(
        M(i), HostRecord("x86", 1.0 - 0.1 * static_cast<double>(i)),
        joined.Sink());
  }
  QueryOptions top3;
  top3.max_results = 3;
  top3.order_by = "host_load";
  auto result = world_.collection->QueryLocal("$host_arch == \"x86\"", top3);
  ASSERT_EQ(result->size(), 3u);
  // Least-loaded first: members 10, 9, 8 carry loads 0.0, 0.1, 0.2.
  EXPECT_EQ((*result)[0].member, M(10));
  EXPECT_EQ((*result)[1].member, M(9));
  EXPECT_EQ((*result)[2].member, M(8));

  QueryOptions worst;
  worst.max_results = 1;
  worst.order_by = "host_load";
  worst.descending = true;
  auto high = world_.collection->QueryLocal("$host_arch == \"x86\"", worst);
  ASSERT_EQ(high->size(), 1u);
  EXPECT_EQ((*high)[0].member, M(1));

  QueryOptions member_order;
  member_order.max_results = 2;
  auto first_two =
      world_.collection->QueryLocal("$host_arch == \"x86\"", member_order);
  ASSERT_EQ(first_two->size(), 2u);
  EXPECT_EQ((*first_two)[0].member, M(1));
  EXPECT_EQ((*first_two)[1].member, M(2));
}

TEST_F(CollectionIndexTest, DerivedAttributesMaterializeOnEmittedOnly) {
  // The injected function runs once per *emitted* record: with top-k
  // pruning the pruned matches never pay for materialization.
  int calls = 0;
  world_.collection->functions().Register(
      "expensive", [&calls](const AttributeDatabase&,
                            const std::vector<AttrValue>&) -> AttrValue {
        ++calls;
        return AttrValue(1);
      });
  for (std::uint64_t i = 1; i <= 20; ++i) {
    Await<bool> joined;
    world_.collection->JoinCollection(M(i), HostRecord("x86", 0.5),
                                      joined.Sink());
  }
  QueryOptions top2;
  top2.max_results = 2;
  auto result = world_.collection->QueryLocal("$host_arch == \"x86\"", top2);
  ASSERT_EQ(result->size(), 2u);
  EXPECT_EQ(calls, 2);
  EXPECT_EQ((*result)[0].attributes.Get("expensive")->as_int(), 1);
}

// ---- Diff maintenance under randomized churn ------------------------------

// Byte-level value identity: same kind and same bits (so NaN equals NaN
// and 4 differs from 4.0), lists element-wise.
bool SameBytes(const AttrValue& a, const AttrValue& b) {
  if (a.storage().index() != b.storage().index()) return false;
  if (a.is_double()) {
    return std::bit_cast<std::uint64_t>(a.as_double()) ==
           std::bit_cast<std::uint64_t>(b.as_double());
  }
  if (a.is_list()) {
    const AttrList& x = a.as_list();
    const AttrList& y = b.as_list();
    if (x.size() != y.size()) return false;
    for (std::size_t i = 0; i < x.size(); ++i) {
      if (!SameBytes(x[i], y[i])) return false;
    }
    return true;
  }
  return a == b;
}

bool SameBytes(const AttributeDatabase& a, const AttributeDatabase& b) {
  if (a.size() != b.size() || a.version() != b.version()) return false;
  for (auto x = a.begin(), y = b.begin(); x != a.end(); ++x, ++y) {
    if (x->first != y->first || !SameBytes(x->second, y->second)) {
      return false;
    }
  }
  return true;
}

// A value of a random kind, biased towards the cases where kind and
// index footprint disagree: ints and equal doubles, NaN, null, lists.
AttrValue RandomValue(Rng& rng) {
  const auto small = rng.UniformInt(0, 3);
  switch (rng.Index(9)) {
    case 0:
      return AttrValue(small);
    case 1:
      return AttrValue(static_cast<double>(small));
    case 2:
      return AttrValue(static_cast<double>(small) + 0.5);
    case 3:
      return AttrValue(std::numeric_limits<double>::quiet_NaN());
    case 4:
      return AttrValue(std::to_string(small));
    case 5:
      return AttrValue(rng.Bernoulli(0.5));
    case 6:
      return AttrValue();
    case 7:
      return AttrValue(AttrList{AttrValue(small)});
    default:
      return AttrValue(AttrList{});
  }
}

// Flips the kind of `value` while keeping what it means where possible:
// int <-> equal double, number <-> its text, anything else re-drawn.
AttrValue FlipKind(const AttrValue& value, Rng& rng) {
  if (value.is_int()) return AttrValue(static_cast<double>(value.as_int()));
  if (value.is_double() && !std::isnan(value.as_double()) &&
      value.as_double() == std::floor(value.as_double())) {
    return AttrValue(static_cast<std::int64_t>(value.as_double()));
  }
  if (value.is_numeric()) return AttrValue(value.ToString());
  return RandomValue(rng);
}

// Indexes rebuilt from scratch over the Collection's stored records.
AttributeIndexes Rebuilt(const CollectionObject& collection) {
  AttributeIndexes rebuilt;
  const auto records = collection.QueryLocal("true");
  for (const CollectionRecord& record : *records) {
    rebuilt.Update(record.member, {}, record.attributes);
  }
  return rebuilt;
}

TEST_F(CollectionIndexTest, DiffMaintainedIndexesEqualRebuiltUnderChurn) {
  // "member" is in the name pool: a caller-supplied member key must be
  // overwritten by the Collection's own, on join and on update alike.
  const std::vector<std::string> names = {"arch", "cpus", "host_load",
                                          "member", "tags", "up"};
  Rng rng(20260418);
  std::map<Loid, AttributeDatabase> pushed;  // what each member last sent
  for (int step = 0; step < 3000; ++step) {
    const Loid member = M(1 + rng.Index(6));
    auto it = pushed.find(member);
    if (it != pushed.end() && rng.Bernoulli(0.08)) {
      Await<bool> left;
      world_.collection->LeaveCollection(member, left.Sink());
      pushed.erase(it);
    } else {
      AttributeDatabase attrs;
      if (it != pushed.end() && rng.Bernoulli(0.8)) {
        // A host push: mostly the previous record with a few changes.
        for (const auto& [name, value] : it->second) {
          if (rng.Bernoulli(0.1)) continue;  // key removed
          attrs.Set(name, rng.Bernoulli(0.2) ? FlipKind(value, rng) : value);
        }
        if (rng.Bernoulli(0.3)) {
          attrs.Set(names[rng.Index(names.size())], RandomValue(rng));
        }
      } else {
        for (const std::string& name : names) {
          if (rng.Bernoulli(0.6)) attrs.Set(name, RandomValue(rng));
        }
      }
      Await<bool> done;
      if (it == pushed.end()) {
        world_.collection->JoinCollection(member, attrs, done.Sink());
      } else {
        world_.collection->UpdateCollectionEntry(member, attrs, done.Sink());
      }
      pushed[member] = attrs;
    }

    ASSERT_TRUE(world_.collection->indexes() == Rebuilt(*world_.collection))
        << "step " << step;
    auto stored = world_.collection->QueryLocal("true");
    ASSERT_TRUE(stored.ok());
    ASSERT_EQ(stored->size(), pushed.size()) << "step " << step;
    for (const CollectionRecord& record : *stored) {
      // The stored record is a plain copy of the push plus `member`.
      AttributeDatabase expected = pushed.at(record.member);
      expected.Set("member", record.member.ToString());
      ASSERT_TRUE(SameBytes(record.attributes, expected))
          << "step " << step << ": " << record.attributes.ToString()
          << " vs " << expected.ToString();
    }
  }
}

}  // namespace
}  // namespace legion
