#ifndef DACE_ENGINE_OPTIMIZER_H_
#define DACE_ENGINE_OPTIMIZER_H_

#include <cstdint>
#include <vector>

#include "core/plan_choice.h"
#include "engine/catalog.h"
#include "engine/cost_model.h"
#include "engine/selectivity.h"
#include "engine/workload.h"
#include "plan/plan.h"

namespace dace::engine {

// Forced physical choices for one plan build. kAuto reproduces the classic
// heuristic decision for that slot bit-for-bit; anything else overrides it.
enum class AccessPathChoice : uint8_t {
  kAuto,
  kSeqScan,     // sequential scan (parallel Gather applied as usual)
  kIndexScan,   // plain/index-only scan; needs an indexed filtered column
  kBitmapScan,  // bitmap index+heap pair; needs an indexed filtered column
};

enum class JoinMethodChoice : uint8_t {
  kAuto,
  kNestedLoop,  // inner still materialized when non-trivial
  kHashJoin,    // build side still the estimated-smaller input
  kMergeJoin,   // both inputs sorted
};

// One candidate's worth of decisions. Empty vectors mean "all kAuto";
// `table_order` (a permutation of positions into spec.tables, order[0] =
// first scanned table) empty means the spec's own left-deep order.
// `access_paths[i]` / `join_methods[j]` align with table_order positions /
// join steps, not with spec order.
struct PlanDecisions {
  std::vector<int32_t> table_order;
  std::vector<AccessPathChoice> access_paths;
  std::vector<JoinMethodChoice> join_methods;
};

// Bounds for candidate enumeration. The defaults keep the per-query set
// small enough to simulate exhaustively in the selection bench.
struct CandidateOptions {
  int max_join_orders = 6;  // classic order + up to this-1 alternatives
  int max_candidates = 48;  // hard cap on the whole candidate set
};

// Result of estimator-driven plan choice.
struct PlanChoice {
  plan::QueryPlan plan;        // the chosen candidate
  size_t index = 0;            // its position in EnumerateCandidates()
  std::vector<double> scores;  // scorer output per candidate
};

// Builds physical plans the way a classical optimizer would: scan and join
// methods are chosen from ESTIMATED cardinalities and the abstract cost
// model, so mis-estimates propagate into realistic physical plans (e.g. a
// nested loop picked for a join the optimizer wrongly believes is tiny).
//
// The produced plan carries:
//   est_cardinality / est_cost  — what the DBMS would print in EXPLAIN
//                                 (costs inclusive of children, PG-style);
//   actual_cardinality          — ground truth from the selectivity model.
// actual_time_ms is left zero; Executor (executor.h) fills it per machine.
//
// Plan construction is deterministic: the same query yields the same plan,
// so workloads 1 and 2 (machines M1/M2) share plans exactly as in the paper.
//
// Two entry points:
//   BuildPlan        — the classic heuristic path, unchanged semantics
//                      (identical bytes to BuildPlanWithDecisions with empty
//                      decisions). All training corpora are built through it.
//   ChoosePlan       — estimator-driven: enumerates a bounded candidate set
//                      (join-method / access-path / join-order variants) and
//                      lets a pluggable core::PlanChoiceEstimator pick the
//                      winner. The native PG-style scorer (root est_cost) is
//                      the default plugin and, by construction, picks the
//                      minimal-estimated-cost candidate.
class Optimizer {
 public:
  // `db` and `scorer` (when given) must outlive the optimizer. A null
  // scorer means NativeScorer().
  explicit Optimizer(const Database* db,
                     const core::PlanChoiceEstimator* scorer = nullptr)
      : db_(db), selectivity_(db), cost_params_(), scorer_(scorer) {}

  // `spec` must be valid for the database (see ValidateSpec).
  plan::QueryPlan BuildPlan(const QuerySpec& spec) const;

  // BuildPlan with forced choices. Out-of-range/inapplicable forcings fall
  // back to the classic decision for that slot (an index scan cannot be
  // forced onto a table with no indexed filtered column), so every
  // decisions value yields a valid plan.
  plan::QueryPlan BuildPlanWithDecisions(const QuerySpec& spec,
                                         const PlanDecisions& decisions) const;

  // Deterministic bounded candidate set for `spec`. Candidate 0 is always
  // the classic BuildPlan result; the rest are single-slot join-method and
  // access-path perturbations plus alternative connected left-deep join
  // orders. A candidate is dropped when it equals an earlier one: equal
  // QueryPlan::StructuralHash confirmed by the exact structural operator==,
  // so a hash collision never drops a distinct plan. A single-slot
  // perturbation that resolves to candidate 0's own choice for that slot is
  // not built at all: it would rebuild candidate 0 byte for byte. The spec
  // is validated and its scan and join statistics computed once, then
  // shared by every candidate. Every candidate validates.
  // `options.max_candidates` must be >= 1.
  std::vector<plan::QueryPlan> EnumerateCandidates(
      const QuerySpec& spec,
      const CandidateOptions& options = CandidateOptions()) const;

  // Enumerates candidates and returns the one the scorer ranks cheapest
  // (first index wins ties; non-finite scores lose to any finite score).
  PlanChoice ChoosePlan(const QuerySpec& spec,
                        const core::PlanChoiceEstimator& scorer,
                        const CandidateOptions& options = CandidateOptions()) const;

  // Same, with the injected (constructor) scorer or the native default.
  PlanChoice ChoosePlan(const QuerySpec& spec,
                        const CandidateOptions& options = CandidateOptions()) const;

  // The default plugin: ranks candidates by the PG-style inclusive abstract
  // cost already recorded at the plan root.
  static const core::PlanChoiceEstimator& NativeScorer();

  const CostParams& cost_params() const { return cost_params_; }

 private:
  struct SubPlan {
    int32_t root = -1;
    double est_card = 1.0;
    double act_card = 1.0;
    double est_cost = 0.0;  // inclusive
  };

  // What BuildScan derives from one table ref's filters alone. It does not
  // depend on any decision, so one query computes it once per spec table
  // and every candidate built for that query reads it.
  struct ScanStats {
    std::vector<plan::FilterPredicate> filters;  // est_selectivity annotated
    double est_sel = 1.0;   // EstimatedConjunction
    double true_sel = 1.0;  // TrueConjunction
    bool can_index = false;    // some filtered column is indexed
    size_t bitmap_qual = 0;    // the first indexed filter, when can_index
    double bitmap_true_sel = 1.0;  // TruePredicate of that filter
  };

  // What BuildJoin derives from one spec join edge alone, fixed per query
  // like ScanStats.
  struct JoinStats {
    double est_sel = 1.0;   // EstimatedJoin
    double true_sel = 1.0;  // TrueJoin, boosted by the to-table's true_sel
  };

  // Everything a build reads that depends on the spec alone.
  struct QueryStats {
    std::vector<ScanStats> scans;  // aligned with spec.tables
    std::vector<JoinStats> joins;  // aligned with spec.join_edge_ids
  };

  QueryStats ComputeQueryStats(const QuerySpec& spec) const;

  // The access path a scan with `stats` takes under `forced`: kSeqScan,
  // kIndexScan or kBitmapScan, never kAuto. kAuto decides on the estimated
  // selectivity; an index or bitmap forcing on a table with no indexed
  // filtered column resolves to kSeqScan.
  static AccessPathChoice ResolvePath(const ScanStats& stats,
                                      AccessPathChoice forced);

  // The build body shared by BuildPlan, BuildPlanWithDecisions and
  // EnumerateCandidates. `spec` must already be validated and `stats` must
  // be ComputeQueryStats(spec). When `methods` is non-null it receives the
  // join method each join step resolved to, in step order.
  plan::QueryPlan Build(const QuerySpec& spec, const QueryStats& stats,
                        const PlanDecisions& decisions,
                        std::vector<JoinMethodChoice>* methods = nullptr) const;

  // Builds the access path for one table ref.
  SubPlan BuildScan(const TableRef& ref, const ScanStats& stats,
                    AccessPathChoice forced, plan::QueryPlan* plan) const;

  // Joins `left` with a fresh scan of `right_ref` along `edge`; `*resolved`
  // receives the join method `forced` resolved to (never kAuto).
  SubPlan BuildJoin(const SubPlan& left, const TableRef& right_ref,
                    const ScanStats& right_stats,
                    AccessPathChoice right_forced, const JoinEdge& edge,
                    const JoinStats& join, JoinMethodChoice forced,
                    plan::QueryPlan* plan, JoinMethodChoice* resolved) const;

  // Appends a unary node on top of `input`.
  SubPlan AddUnary(plan::OperatorType type, const SubPlan& input,
                   double est_out, double act_out,
                   plan::QueryPlan* plan) const;

  double OwnCost(plan::OperatorType type, const CostInputs& in) const {
    return OperatorCost(type, in, cost_params_);
  }

  const Database* db_;
  SelectivityModel selectivity_;
  CostParams cost_params_;
  const core::PlanChoiceEstimator* scorer_ = nullptr;  // null = native
};

}  // namespace dace::engine

#endif  // DACE_ENGINE_OPTIMIZER_H_
