#ifndef DACE_PLAN_PLAN_H_
#define DACE_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/status.h"

namespace dace::plan {

// Physical operator types. The paper's experiments consider 16 node types
// (Sec. V "Parameters Setting"); these mirror PostgreSQL's plan nodes.
enum class OperatorType : uint8_t {
  kSeqScan = 0,
  kIndexScan = 1,
  kIndexOnlyScan = 2,
  kBitmapIndexScan = 3,
  kBitmapHeapScan = 4,
  kNestedLoop = 5,
  kHashJoin = 6,
  kMergeJoin = 7,
  kHash = 8,
  kSort = 9,
  kMaterialize = 10,
  kAggregate = 11,
  kHashAggregate = 12,
  kGroupAggregate = 13,
  kLimit = 14,
  kGather = 15,
};

inline constexpr int kNumOperatorTypes = 16;

// Short PostgreSQL-like display name ("Seq Scan", "Hash Join", ...).
const char* OperatorTypeName(OperatorType type);

// Inverse of OperatorTypeName.
StatusOr<OperatorType> OperatorTypeFromName(std::string_view name);

bool IsScan(OperatorType type);
bool IsJoin(OperatorType type);

// Comparison operator of a filter predicate.
enum class CompareOp : uint8_t { kEq = 0, kLt = 1, kGt = 2, kLe = 3, kGe = 4, kNe = 5 };
const char* CompareOpName(CompareOp op);

// A single column filter (col <op> literal). `selectivity` is the
// optimizer's *estimate*; the true selectivity lives in the engine.
struct FilterPredicate {
  int32_t column_id = -1;
  CompareOp op = CompareOp::kEq;
  double literal = 0.0;
  double est_selectivity = 1.0;
};

// Optional structural annotations used by the richer baseline featurizers
// (MSCN/TPool/QueryFormer learn tables/joins/predicates; DACE ignores these).
struct NodeAnnotation {
  int32_t table_id = -1;       // scans: which base table
  double table_rows = 0.0;     // scans: base-table size (from the catalog)
  int32_t left_table = -1;     // joins: table ids of the equi-join condition
  int32_t right_table = -1;
  int32_t left_column = -1;
  int32_t right_column = -1;
  std::vector<FilterPredicate> filters;
};

// One node of a physical plan. Cardinalities are row counts; costs are in
// the optimizer's abstract cost units; times are milliseconds.
struct PlanNode {
  OperatorType type = OperatorType::kSeqScan;

  // Optimizer estimates — these are model INPUT features.
  double est_cardinality = 1.0;
  double est_cost = 0.0;

  // Ground truth from execution (labels; never model input except DACE-A,
  // which swaps actual_cardinality in for est_cardinality, Fig. 12).
  double actual_cardinality = 1.0;
  double actual_time_ms = 0.0;

  NodeAnnotation annotation;

  std::vector<int32_t> children;  // indices into QueryPlan::nodes()
};

// A physical query plan tree stored as a node arena. Nodes may be added in
// any order (the optimizer builds bottom-up); the root is set explicitly.
// Derived structures (DFS order, adjacency closure, heights) are computed on
// demand and follow the paper's definitions:
//   - DFS order: preorder traversal, children in stored order (Sec. IV-B).
//   - A(p): reflexive-transitive closure of the parent relation, i.e.
//     A[i][j] = 1 iff node i is node j or an ancestor of node j (Eq. 3).
//   - height: length of the path from the node to the root (root = 0).
class QueryPlan {
 public:
  QueryPlan() = default;

  // Appends a node and returns its index.
  int32_t AddNode(PlanNode node);

  void SetRoot(int32_t root) { root_ = root; }
  int32_t root() const { return root_; }

  const std::vector<PlanNode>& nodes() const { return nodes_; }
  std::vector<PlanNode>& mutable_nodes() { return nodes_; }
  const PlanNode& node(int32_t i) const { return nodes_[static_cast<size_t>(i)]; }
  PlanNode& mutable_node(int32_t i) { return nodes_[static_cast<size_t>(i)]; }
  size_t size() const { return nodes_.size(); }

  // Preorder DFS sequence of node indices starting at the root.
  std::vector<int32_t> DfsOrder() const;

  // Heights indexed by node id (root 0, child of root 1, ...).
  std::vector<int32_t> Heights() const;

  // n×n row-major closure matrix over the DFS sequence: entry
  // (i, j) == 1 iff dfs[i] is an ancestor-or-self of dfs[j].
  // n = size(); the i/j indices refer to positions in DfsOrder().
  std::vector<uint8_t> AncestorClosure() const;

  // Scratch-reusing variants of the derived-structure getters: identical
  // results, but every buffer is caller-owned so a warm caller (the batched
  // featurize path) performs zero heap allocations. `stack` is traversal
  // scratch whose contents are meaningless afterwards.
  void DfsOrderInto(std::vector<int32_t>* order,
                    std::vector<int32_t>* stack) const;
  void HeightsInto(std::vector<int32_t>* heights,
                   std::vector<int32_t>* stack) const;
  // `dfs` must be this plan's DfsOrder() (pass the buffer DfsOrderInto just
  // filled — recomputing it here would waste the caller's pass).
  void AncestorClosureInto(const std::vector<int32_t>& dfs,
                           std::vector<uint8_t>* closure,
                           std::vector<size_t>* subtree_scratch) const;

  // Validates tree-ness: a single root, every non-root node has exactly one
  // parent, no cycles, all indices in range.
  Status Validate() const;

  // EXPLAIN-like indented text form (stable, parseable by ParsePlanText).
  std::string ToText() const;

  // Structural fingerprint: a Hash64 over exactly the fields ToText prints,
  // in the same preorder from the root, with doubles taken by bit pattern.
  // Plans that compare equal hash equal; unequal plans collide with ~2^-64
  // odds, so a hash match is confirmed with operator== before it is trusted.
  uint64_t StructuralHash() const;

  // Structural equality without rendering text: walks both trees in
  // preorder and compares the fields ToText prints, doubles by bit pattern
  // (%.17g round-trips, so for finite values this is exactly
  // `ToText() == other.ToText()`, -0.0 != 0.0 included). Internal node
  // numbering and the fields ToText omits (table_rows without a table, the
  // join quad without a left table, unreachable nodes) do not matter.
  bool operator==(const QueryPlan& other) const;

 private:
  std::vector<PlanNode> nodes_;
  int32_t root_ = -1;
};

// Parses the output of QueryPlan::ToText back into a plan.
StatusOr<QueryPlan> ParsePlanText(std::string_view text);

}  // namespace dace::plan

#endif  // DACE_PLAN_PLAN_H_
