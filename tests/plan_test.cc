#include "plan/plan.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "util/rng.h"

namespace dace::plan {
namespace {

// Builds the example-style plan:
//        HashJoin(0)
//        /        \
//   SeqScan(1)   Hash(2)
//                  |
//              SeqScan(3)
QueryPlan SmallJoinPlan() {
  QueryPlan plan;
  PlanNode scan1;
  scan1.type = OperatorType::kSeqScan;
  scan1.est_cardinality = 100;
  scan1.annotation.table_id = 0;
  const int32_t s1 = plan.AddNode(scan1);

  PlanNode scan2;
  scan2.type = OperatorType::kSeqScan;
  scan2.est_cardinality = 50;
  scan2.annotation.table_id = 1;
  const int32_t s2 = plan.AddNode(scan2);

  PlanNode hash;
  hash.type = OperatorType::kHash;
  hash.est_cardinality = 50;
  hash.children = {s2};
  const int32_t h = plan.AddNode(hash);

  PlanNode join;
  join.type = OperatorType::kHashJoin;
  join.est_cardinality = 500;
  join.annotation.left_table = 0;
  join.annotation.left_column = 0;
  join.annotation.right_table = 1;
  join.annotation.right_column = 2;
  join.children = {s1, h};
  const int32_t j = plan.AddNode(join);
  plan.SetRoot(j);
  return plan;
}

// Random binary tree of `n` nodes for property tests.
QueryPlan RandomPlan(int n, uint64_t seed) {
  Rng rng(seed);
  QueryPlan plan;
  std::vector<int32_t> roots;
  for (int i = 0; i < n; ++i) {
    PlanNode node;
    node.type = static_cast<OperatorType>(rng.UniformInt(0, 15));
    node.est_cardinality = rng.Uniform(1.0, 1e6);
    node.est_cost = rng.Uniform(1.0, 1e7);
    node.actual_cardinality = rng.Uniform(1.0, 1e6);
    node.actual_time_ms = rng.Uniform(0.01, 1e4);
    // Attach up to two previous roots as children.
    const int take = static_cast<int>(
        rng.UniformInt(0, std::min<int64_t>(2, static_cast<int64_t>(roots.size()))));
    for (int k = 0; k < take; ++k) {
      node.children.push_back(roots.back());
      roots.pop_back();
    }
    roots.push_back(plan.AddNode(std::move(node)));
  }
  // Chain any remaining roots under a final node.
  while (roots.size() > 1) {
    PlanNode glue;
    glue.type = OperatorType::kNestedLoop;
    glue.children.push_back(roots.back());
    roots.pop_back();
    glue.children.push_back(roots.back());
    roots.pop_back();
    roots.push_back(plan.AddNode(std::move(glue)));
  }
  plan.SetRoot(roots[0]);
  return plan;
}

TEST(OperatorTypeTest, NamesRoundTrip) {
  for (int t = 0; t < kNumOperatorTypes; ++t) {
    const OperatorType type = static_cast<OperatorType>(t);
    auto parsed = OperatorTypeFromName(OperatorTypeName(type));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, type);
  }
}

TEST(OperatorTypeTest, NamesAreUnique) {
  std::set<std::string> names;
  for (int t = 0; t < kNumOperatorTypes; ++t) {
    names.insert(OperatorTypeName(static_cast<OperatorType>(t)));
  }
  EXPECT_EQ(names.size(), static_cast<size_t>(kNumOperatorTypes));
}

TEST(OperatorTypeTest, UnknownNameFails) {
  EXPECT_FALSE(OperatorTypeFromName("Quantum Scan").ok());
}

TEST(OperatorTypeTest, ScanAndJoinClassification) {
  EXPECT_TRUE(IsScan(OperatorType::kSeqScan));
  EXPECT_TRUE(IsScan(OperatorType::kIndexOnlyScan));
  EXPECT_FALSE(IsScan(OperatorType::kHashJoin));
  EXPECT_TRUE(IsJoin(OperatorType::kMergeJoin));
  EXPECT_TRUE(IsJoin(OperatorType::kNestedLoop));
  EXPECT_FALSE(IsJoin(OperatorType::kSort));
  EXPECT_FALSE(IsJoin(OperatorType::kHash));
}

TEST(QueryPlanTest, DfsOrderIsPreorder) {
  const QueryPlan plan = SmallJoinPlan();
  const std::vector<int32_t> dfs = plan.DfsOrder();
  // Root (3), left scan (0), hash (2), inner scan (1).
  ASSERT_EQ(dfs.size(), 4u);
  EXPECT_EQ(dfs[0], 3);
  EXPECT_EQ(dfs[1], 0);
  EXPECT_EQ(dfs[2], 2);
  EXPECT_EQ(dfs[3], 1);
}

TEST(QueryPlanTest, HeightsFromRoot) {
  const QueryPlan plan = SmallJoinPlan();
  const std::vector<int32_t> heights = plan.Heights();
  EXPECT_EQ(heights[3], 0);  // join (root)
  EXPECT_EQ(heights[0], 1);  // outer scan
  EXPECT_EQ(heights[2], 1);  // hash
  EXPECT_EQ(heights[1], 2);  // inner scan
}

TEST(QueryPlanTest, AncestorClosureReflexive) {
  const QueryPlan plan = SmallJoinPlan();
  const auto closure = plan.AncestorClosure();
  const size_t n = plan.size();
  for (size_t i = 0; i < n; ++i) EXPECT_EQ(closure[i * n + i], 1);
}

TEST(QueryPlanTest, AncestorClosureStructure) {
  const QueryPlan plan = SmallJoinPlan();
  const auto closure = plan.AncestorClosure();
  const size_t n = plan.size();
  // DFS positions: 0=join, 1=outer scan, 2=hash, 3=inner scan.
  EXPECT_EQ(closure[0 * n + 1], 1);  // join covers outer scan
  EXPECT_EQ(closure[0 * n + 3], 1);  // join covers inner scan transitively
  EXPECT_EQ(closure[2 * n + 3], 1);  // hash covers inner scan
  EXPECT_EQ(closure[1 * n + 0], 0);  // child does not cover parent
  EXPECT_EQ(closure[1 * n + 2], 0);  // siblings unrelated
  EXPECT_EQ(closure[2 * n + 1], 0);
}

TEST(QueryPlanTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(SmallJoinPlan().Validate().ok());
}

TEST(QueryPlanTest, ValidateRejectsEmpty) {
  QueryPlan plan;
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateRejectsBadRoot) {
  QueryPlan plan = SmallJoinPlan();
  plan.SetRoot(99);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateRejectsMultipleParents) {
  QueryPlan plan;
  PlanNode leaf;
  leaf.type = OperatorType::kSeqScan;
  const int32_t l = plan.AddNode(leaf);
  PlanNode p1;
  p1.type = OperatorType::kSort;
  p1.children = {l};
  plan.AddNode(p1);
  PlanNode p2;
  p2.type = OperatorType::kLimit;
  p2.children = {l};
  const int32_t top = plan.AddNode(p2);
  plan.SetRoot(top);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateRejectsRootWithParent) {
  QueryPlan plan = SmallJoinPlan();
  plan.SetRoot(1);  // the inner scan has a parent
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateRejectsForest) {
  QueryPlan plan;
  PlanNode a;
  a.type = OperatorType::kSeqScan;
  const int32_t ai = plan.AddNode(a);
  PlanNode b;
  b.type = OperatorType::kSeqScan;
  plan.AddNode(b);
  plan.SetRoot(ai);
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(QueryPlanTest, ValidateRejectsTernaryNode) {
  QueryPlan plan;
  const int32_t a = plan.AddNode(PlanNode{});
  const int32_t b = plan.AddNode(PlanNode{});
  const int32_t c = plan.AddNode(PlanNode{});
  PlanNode top;
  top.children = {a, b, c};
  plan.SetRoot(plan.AddNode(top));
  EXPECT_FALSE(plan.Validate().ok());
}

TEST(PlanTextTest, RoundTripSmallPlan) {
  const QueryPlan plan = SmallJoinPlan();
  auto parsed = ParsePlanText(plan.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToText(), plan.ToText());
}

TEST(PlanTextTest, RoundTripPreservesMetrics) {
  QueryPlan plan = SmallJoinPlan();
  plan.mutable_node(3).est_cost = 123.456789;
  plan.mutable_node(3).actual_time_ms = 0.000123;
  auto parsed = ParsePlanText(plan.ToText());
  ASSERT_TRUE(parsed.ok());
  const PlanNode& root = parsed->node(parsed->root());
  EXPECT_DOUBLE_EQ(root.est_cost, 123.456789);
  EXPECT_DOUBLE_EQ(root.actual_time_ms, 0.000123);
}

TEST(PlanTextTest, RoundTripPreservesAnnotations) {
  QueryPlan plan = SmallJoinPlan();
  FilterPredicate f;
  f.column_id = 2;
  f.op = CompareOp::kLe;
  f.literal = -7.25;
  f.est_selectivity = 0.125;
  plan.mutable_node(0).annotation.filters.push_back(f);
  plan.mutable_node(0).annotation.table_rows = 12345.0;

  auto parsed = ParsePlanText(plan.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  // Node 0 is DFS position 1 in the parsed plan.
  const std::vector<int32_t> dfs = parsed->DfsOrder();
  const PlanNode& scan = parsed->node(dfs[1]);
  ASSERT_EQ(scan.annotation.filters.size(), 1u);
  EXPECT_EQ(scan.annotation.filters[0].column_id, 2);
  EXPECT_EQ(scan.annotation.filters[0].op, CompareOp::kLe);
  EXPECT_DOUBLE_EQ(scan.annotation.filters[0].literal, -7.25);
  EXPECT_DOUBLE_EQ(scan.annotation.filters[0].est_selectivity, 0.125);
  EXPECT_DOUBLE_EQ(scan.annotation.table_rows, 12345.0);
  const PlanNode& join = parsed->node(dfs[0]);
  EXPECT_EQ(join.annotation.left_table, 0);
  EXPECT_EQ(join.annotation.right_column, 2);
}

// SmallJoinPlan with every annotation ToText prints populated: table rows
// on both scans, two filters on the left scan, one on the right.
QueryPlan AnnotatedJoinPlan() {
  QueryPlan plan = SmallJoinPlan();
  plan.mutable_node(0).annotation.table_rows = 1e6;
  plan.mutable_node(1).annotation.table_rows = 2500.0;
  FilterPredicate f;
  f.column_id = 2;
  f.op = CompareOp::kLe;
  f.literal = -7.25;
  f.est_selectivity = 0.125;
  plan.mutable_node(0).annotation.filters.push_back(f);
  f.column_id = 4;
  f.op = CompareOp::kNe;
  f.literal = 3.0;
  f.est_selectivity = 0.75;
  plan.mutable_node(0).annotation.filters.push_back(f);
  plan.mutable_node(1).annotation.filters.push_back(f);
  return plan;
}

// The same tree with its node arena stored in reverse order.
QueryPlan Renumbered(const QueryPlan& plan) {
  const auto n = static_cast<int32_t>(plan.size());
  QueryPlan out;
  for (int32_t i = n - 1; i >= 0; --i) {
    PlanNode node = plan.node(i);
    for (int32_t& child : node.children) child = n - 1 - child;
    out.AddNode(std::move(node));
  }
  out.SetRoot(n - 1 - plan.root());
  return out;
}

// operator== must agree with text equality both ways, and equal text must
// mean an equal structural hash. Returns whether the texts were equal.
bool ExpectEqualityMatchesText(const QueryPlan& a, const QueryPlan& b) {
  const bool same_text = a.ToText() == b.ToText();
  EXPECT_EQ(a == b, same_text) << a.ToText() << "vs\n" << b.ToText();
  EXPECT_EQ(b == a, same_text);
  if (same_text) {
    EXPECT_EQ(a.StructuralHash(), b.StructuralHash());
  }
  return same_text;
}

double NextUp(double x) {
  return std::nextafter(x, std::numeric_limits<double>::infinity());
}

TEST(PlanEqualityTest, MatchesTextUnderSingleFieldMutations) {
  // One-ulp steps on the doubles: %.17g tells them apart, so equality must.
  const std::vector<std::function<void(PlanNode*)>> mutations = {
      [](PlanNode* n) {
        n->type = static_cast<OperatorType>(
            (static_cast<int>(n->type) + 1) % kNumOperatorTypes);
      },
      [](PlanNode* n) { n->est_cardinality = NextUp(n->est_cardinality); },
      [](PlanNode* n) { n->est_cost = NextUp(n->est_cost); },
      [](PlanNode* n) { n->actual_cardinality = NextUp(n->actual_cardinality); },
      [](PlanNode* n) { n->actual_time_ms = NextUp(n->actual_time_ms); },
      [](PlanNode* n) { n->annotation.table_id += 1; },
      [](PlanNode* n) { n->annotation.table_id = -1; },
      [](PlanNode* n) { n->annotation.table_rows = NextUp(n->annotation.table_rows); },
      [](PlanNode* n) { n->annotation.left_table += 1; },
      [](PlanNode* n) { n->annotation.left_table = -1; },
      [](PlanNode* n) { n->annotation.left_column += 1; },
      [](PlanNode* n) { n->annotation.right_table += 1; },
      [](PlanNode* n) { n->annotation.right_column += 1; },
      [](PlanNode* n) { n->annotation.filters.push_back(FilterPredicate{}); },
      [](PlanNode* n) {
        if (!n->annotation.filters.empty()) n->annotation.filters.pop_back();
      },
      [](PlanNode* n) {
        for (FilterPredicate& f : n->annotation.filters) f.column_id += 1;
      },
      [](PlanNode* n) {
        for (FilterPredicate& f : n->annotation.filters) {
          f.op = static_cast<CompareOp>((static_cast<int>(f.op) + 1) % 6);
        }
      },
      [](PlanNode* n) {
        for (FilterPredicate& f : n->annotation.filters) f.literal = NextUp(f.literal);
      },
      [](PlanNode* n) {
        for (FilterPredicate& f : n->annotation.filters) {
          f.est_selectivity = NextUp(f.est_selectivity);
        }
      },
      [](PlanNode* n) {
        std::reverse(n->children.begin(), n->children.end());
      },
  };

  std::vector<QueryPlan> plans = {SmallJoinPlan(), AnnotatedJoinPlan()};
  for (uint64_t seed = 0; seed < 4; ++seed) {
    plans.push_back(RandomPlan(9, 900 + seed));
  }
  std::vector<bool> ever_differs(mutations.size(), false);
  for (const QueryPlan& base : plans) {
    EXPECT_TRUE(ExpectEqualityMatchesText(base, base));
    for (const QueryPlan& other : plans) ExpectEqualityMatchesText(base, other);
    for (size_t id = 0; id < base.size(); ++id) {
      for (size_t m = 0; m < mutations.size(); ++m) {
        QueryPlan mutated = base;
        mutations[m](&mutated.mutable_node(static_cast<int32_t>(id)));
        if (!ExpectEqualityMatchesText(base, mutated)) ever_differs[m] = true;
      }
    }
  }
  // Every mutation changes the text of some plan: the sweep is not vacuous.
  for (size_t m = 0; m < mutations.size(); ++m) {
    EXPECT_TRUE(ever_differs[m]) << "mutation " << m;
  }
}

TEST(PlanEqualityTest, FieldsTextOmitsDoNotMatter) {
  const QueryPlan base = AnnotatedJoinPlan();

  // table_rows without a table: the Hash node (2) has table_id -1.
  QueryPlan rows = base;
  rows.mutable_node(2).annotation.table_rows = 42.0;
  EXPECT_TRUE(ExpectEqualityMatchesText(base, rows));

  // The join quad without a left table: every field but left_table is
  // invisible while left_table < 0.
  QueryPlan no_join = base;
  no_join.mutable_node(3).annotation.left_table = -1;
  QueryPlan no_join_other = no_join;
  no_join_other.mutable_node(3).annotation.left_column = 9;
  no_join_other.mutable_node(3).annotation.right_table = 8;
  no_join_other.mutable_node(3).annotation.right_column = 7;
  EXPECT_TRUE(ExpectEqualityMatchesText(no_join, no_join_other));

  // A different negative table id prints nothing either.
  QueryPlan neg = base;
  neg.mutable_node(2).annotation.table_id = -5;
  EXPECT_TRUE(ExpectEqualityMatchesText(base, neg));

  // Node numbering inside the arena.
  for (const QueryPlan& plan : {base, RandomPlan(15, 77)}) {
    const QueryPlan renumbered = Renumbered(plan);
    ASSERT_TRUE(renumbered.Validate().ok());
    EXPECT_NE(renumbered.root(), plan.root());
    EXPECT_TRUE(ExpectEqualityMatchesText(plan, renumbered));
  }

  // Empty plans equal each other and nothing else.
  EXPECT_TRUE(ExpectEqualityMatchesText(QueryPlan(), QueryPlan()));
  EXPECT_FALSE(ExpectEqualityMatchesText(QueryPlan(), base));
}

TEST(PlanEqualityTest, NegativeZeroDiffersFromZero) {
  QueryPlan pos = AnnotatedJoinPlan();
  pos.mutable_node(3).est_cost = 0.0;
  pos.mutable_node(0).annotation.filters[0].literal = 0.0;
  QueryPlan neg_cost = pos;
  neg_cost.mutable_node(3).est_cost = -0.0;
  QueryPlan neg_literal = pos;
  neg_literal.mutable_node(0).annotation.filters[0].literal = -0.0;
  for (const QueryPlan* neg : {&neg_cost, &neg_literal}) {
    EXPECT_FALSE(ExpectEqualityMatchesText(pos, *neg));
    EXPECT_NE(pos.StructuralHash(), neg->StructuralHash());
  }
}

TEST(PlanTextTest, ParseRejectsGarbage) {
  EXPECT_FALSE(ParsePlanText("not a plan").ok());
  EXPECT_FALSE(ParsePlanText("").ok());
  EXPECT_FALSE(ParsePlanText("Seq Scan (rows=abc cost=1 arows=1 ams=1)").ok());
}

TEST(PlanTextTest, ParseRejectsIndentationJump) {
  const char* text =
      "Hash Join (rows=1 cost=1 arows=1 ams=1)\n"
      "    Seq Scan (rows=1 cost=1 arows=1 ams=1)\n";  // depth 2 under depth 0
  EXPECT_FALSE(ParsePlanText(text).ok());
}

TEST(PlanTextTest, ParseRejectsMultipleRoots) {
  const char* text =
      "Seq Scan (rows=1 cost=1 arows=1 ams=1)\n"
      "Seq Scan (rows=1 cost=1 arows=1 ams=1)\n";
  EXPECT_FALSE(ParsePlanText(text).ok());
}

TEST(PlanTextTest, ParseRejectsUnknownOperator) {
  EXPECT_FALSE(ParsePlanText("Flux Scan (rows=1 cost=1 arows=1 ams=1)").ok());
}

// Property sweep over random trees.
class PlanPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(PlanPropertyTest, RandomPlanInvariants) {
  const uint64_t seed = static_cast<uint64_t>(GetParam());
  const QueryPlan plan = RandomPlan(2 + GetParam() * 3, seed);
  ASSERT_TRUE(plan.Validate().ok());

  const std::vector<int32_t> dfs = plan.DfsOrder();
  EXPECT_EQ(dfs.size(), plan.size());
  // DFS visits every node exactly once.
  std::set<int32_t> unique(dfs.begin(), dfs.end());
  EXPECT_EQ(unique.size(), plan.size());
  EXPECT_EQ(dfs[0], plan.root());

  // Heights: children are exactly one deeper.
  const std::vector<int32_t> heights = plan.Heights();
  for (size_t i = 0; i < plan.size(); ++i) {
    for (int32_t child : plan.node(static_cast<int32_t>(i)).children) {
      EXPECT_EQ(heights[static_cast<size_t>(child)],
                heights[i] + 1);
    }
  }

  // Closure row sums equal subtree sizes; root row covers all.
  const auto closure = plan.AncestorClosure();
  const size_t n = plan.size();
  size_t root_row = 0;
  for (size_t j = 0; j < n; ++j) root_row += closure[j];
  EXPECT_EQ(root_row, n);

  // Closure transitivity: A[i][j] and A[j][k] imply A[i][k].
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (!closure[i * n + j]) continue;
      for (size_t k = 0; k < n; ++k) {
        if (closure[j * n + k]) EXPECT_EQ(closure[i * n + k], 1);
      }
    }
  }

  // Antisymmetry: A[i][j] and A[j][i] only on the diagonal.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j < n; ++j) {
      if (i != j && closure[i * n + j]) EXPECT_EQ(closure[j * n + i], 0);
    }
  }
}

TEST_P(PlanPropertyTest, TextRoundTripOnRandomPlans) {
  const uint64_t seed = static_cast<uint64_t>(GetParam()) + 500;
  const QueryPlan plan = RandomPlan(3 + GetParam() * 2, seed);
  auto parsed = ParsePlanText(plan.ToText());
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToText(), plan.ToText());
  EXPECT_EQ(parsed->size(), plan.size());
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanPropertyTest, ::testing::Range(0, 12));

}  // namespace
}  // namespace dace::plan
