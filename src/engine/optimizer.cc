#include "engine/optimizer.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dace::engine {

namespace {

using plan::OperatorType;
using plan::PlanNode;
using plan::QueryPlan;

constexpr double kMaxCard = 1e12;

double ClampCard(double card) { return std::clamp(card, 1.0, kMaxCard); }

obs::Counter* ChooseCallsCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("select.choose_calls");
  return c;
}

obs::Counter* CandidatesCounter() {
  static obs::Counter* c =
      obs::MetricsRegistry::Default()->GetCounter("select.candidates");
  return c;
}

obs::Histogram* CandidatesPerQueryHistogram() {
  static obs::Histogram* h = obs::MetricsRegistry::Default()->GetHistogram(
      "select.candidates_per_query", obs::ExponentialBuckets(1.0, 2.0, 8));
  return h;
}

// Ranks candidates by the inclusive PG-style abstract cost the optimizer
// already wrote at the root. Scores are cost units, not milliseconds.
class NativeCostChoice final : public core::PlanChoiceEstimator {
 public:
  std::string Name() const override { return "native"; }
  double ScorePlan(const QueryPlan& plan) const override {
    return plan.node(plan.root()).est_cost;
  }
};

// True when one of the spec's join edges links `table_id` to a table that
// is already in `joined`.
bool ConnectsToJoined(const Database& db, const QuerySpec& spec,
                      int32_t table_id, const std::vector<int32_t>& joined) {
  for (const int32_t edge_id : spec.join_edge_ids) {
    const JoinEdge& edge = db.join_edges[static_cast<size_t>(edge_id)];
    for (const int32_t j : joined) {
      if ((edge.from_table == j && edge.to_table == table_id) ||
          (edge.to_table == j && edge.from_table == table_id)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace

const core::PlanChoiceEstimator& Optimizer::NativeScorer() {
  static const NativeCostChoice* scorer = new NativeCostChoice();
  return *scorer;
}

Optimizer::QueryStats Optimizer::ComputeQueryStats(
    const QuerySpec& spec) const {
  QueryStats stats;
  std::vector<ScanStats>& scans = stats.scans;
  scans.resize(spec.tables.size());
  for (size_t k = 0; k < spec.tables.size(); ++k) {
    const TableRef& ref = spec.tables[k];
    const Table& table = db_->tables[static_cast<size_t>(ref.table_id)];
    ScanStats& s = scans[k];
    // Annotate each predicate with the optimizer's estimate (EXPLAIN shows
    // per-qual selectivities implicitly through row counts).
    s.filters = ref.filters;
    for (plan::FilterPredicate& f : s.filters) {
      f.est_selectivity = selectivity_.EstimatedPredicate(ref.table_id, f);
    }
    s.est_sel = selectivity_.EstimatedConjunction(ref.table_id, s.filters);
    s.true_sel = selectivity_.TrueConjunction(ref.table_id, s.filters);
    // An index path can only be taken (chosen or forced) when a filtered
    // column is indexed. A bitmap scan's index covers the first such qual.
    for (size_t i = 0; i < s.filters.size(); ++i) {
      if (table.columns[static_cast<size_t>(s.filters[i].column_id)].indexed) {
        s.can_index = true;
        s.bitmap_qual = i;
        s.bitmap_true_sel =
            selectivity_.TruePredicate(ref.table_id, s.filters[i]);
        break;
      }
    }
  }
  stats.joins.resize(spec.join_edge_ids.size());
  for (size_t e = 0; e < spec.join_edge_ids.size(); ++e) {
    const JoinEdge& edge =
        db_->join_edges[static_cast<size_t>(spec.join_edge_ids[e])];
    // The true filter selectivity of the edge's to-table drives the join's
    // correlation boost.
    double to_true_sel = 1.0;
    for (size_t k = 0; k < spec.tables.size(); ++k) {
      if (spec.tables[k].table_id == edge.to_table) {
        to_true_sel = scans[k].true_sel;
        break;
      }
    }
    stats.joins[e].est_sel = selectivity_.EstimatedJoin(edge);
    stats.joins[e].true_sel = selectivity_.TrueJoin(edge, to_true_sel);
  }
  return stats;
}

AccessPathChoice Optimizer::ResolvePath(const ScanStats& stats,
                                        AccessPathChoice forced) {
  // Access-path choice on ESTIMATES, like a real optimizer; an inapplicable
  // forcing degrades to the sequential scan.
  if (forced == AccessPathChoice::kAuto) {
    if (stats.can_index && stats.est_sel < 0.002) {
      return AccessPathChoice::kIndexScan;
    }
    if (stats.can_index && stats.est_sel < 0.05) {
      return AccessPathChoice::kBitmapScan;
    }
    return AccessPathChoice::kSeqScan;
  }
  return stats.can_index ? forced : AccessPathChoice::kSeqScan;
}

Optimizer::SubPlan Optimizer::BuildScan(const TableRef& ref,
                                        const ScanStats& stats,
                                        AccessPathChoice forced,
                                        QueryPlan* plan) const {
  const Table& table = db_->tables[static_cast<size_t>(ref.table_id)];
  const double rows = static_cast<double>(table.row_count);
  const std::vector<plan::FilterPredicate>& filters = stats.filters;
  const double est_card = ClampCard(rows * stats.est_sel);
  const double act_card = ClampCard(rows * stats.true_sel);
  const AccessPathChoice path = ResolvePath(stats, forced);

  CostInputs in;
  in.table_rows = rows;
  in.width_bytes = table.width_bytes;
  in.num_filters = static_cast<int>(filters.size());
  in.out_rows = est_card;

  PlanNode node;
  node.est_cardinality = est_card;
  node.actual_cardinality = act_card;
  node.annotation.table_id = ref.table_id;
  node.annotation.table_rows = rows;
  node.annotation.filters = filters;

  SubPlan out;
  out.est_card = est_card;
  out.act_card = act_card;

  if (path == AccessPathChoice::kIndexScan) {
    // Highly selective and indexed: plain index scan; index-only when the
    // single predicate touches just the indexed column (deterministic
    // stand-in for a covering-index check).
    const bool index_only =
        filters.size() == 1 && (ref.table_id + filters[0].column_id) % 3 == 0;
    node.type = index_only ? OperatorType::kIndexOnlyScan
                           : OperatorType::kIndexScan;
    node.est_cost = OwnCost(node.type, in);
    out.root = plan->AddNode(std::move(node));
    out.est_cost = plan->node(out.root).est_cost;
    return out;
  }

  if (path == AccessPathChoice::kBitmapScan) {
    // Mid-selectivity: bitmap index scan feeding a bitmap heap scan. The
    // index scan covers only the first indexed qual, so its row stream is
    // rows * sel(that qual), not the full conjunction; the qual itself is
    // priced through cpu_index_tuple_cost, not as an extra filter. The heap
    // scan consumes that stream and rechecks the REMAINING quals — charging
    // all of them again would double-count the index qual.
    const double bitmap_est =
        ClampCard(rows * filters[stats.bitmap_qual].est_selectivity);
    const double bitmap_act = ClampCard(rows * stats.bitmap_true_sel);

    PlanNode bitmap;
    bitmap.type = OperatorType::kBitmapIndexScan;
    bitmap.est_cardinality = bitmap_est;
    bitmap.actual_cardinality = bitmap_act;
    bitmap.annotation.table_id = ref.table_id;
    bitmap.annotation.table_rows = rows;
    CostInputs bin = in;
    bin.out_rows = bitmap_est;
    bin.num_filters = 0;
    bitmap.est_cost = OwnCost(OperatorType::kBitmapIndexScan, bin);
    const int32_t bitmap_id = plan->AddNode(std::move(bitmap));

    node.type = OperatorType::kBitmapHeapScan;
    CostInputs hin = in;
    hin.left_rows = bitmap_est;  // tuples delivered by the bitmap
    hin.num_filters = static_cast<int>(filters.size()) - 1;
    node.est_cost =
        OwnCost(OperatorType::kBitmapHeapScan, hin) + plan->node(bitmap_id).est_cost;
    node.children.push_back(bitmap_id);
    out.root = plan->AddNode(std::move(node));
    out.est_cost = plan->node(out.root).est_cost;
    return out;
  }

  // Sequential scan; very large tables go parallel behind a Gather.
  node.type = OperatorType::kSeqScan;
  node.est_cost = OwnCost(OperatorType::kSeqScan, in);
  const double seq_cost = node.est_cost;
  out.root = plan->AddNode(std::move(node));
  out.est_cost = seq_cost;
  if (rows > 2.5e6) {
    PlanNode gather;
    gather.type = OperatorType::kGather;
    gather.est_cardinality = est_card;
    gather.actual_cardinality = act_card;
    // The Gather relays the scan's table identity so annotation-reading
    // featurizers (Zero-Shot, QPPNet) see a populated node. Filters stay on
    // the scan: they are applied below the Gather, and the executor charges
    // annotation filters to whichever node carries them.
    gather.annotation.table_id = ref.table_id;
    gather.annotation.table_rows = rows;
    CostInputs gin;
    gin.left_rows = est_card;
    gin.out_rows = est_card;
    gather.est_cost = OwnCost(OperatorType::kGather, gin) + out.est_cost;
    gather.children.push_back(out.root);
    out.root = plan->AddNode(std::move(gather));
    out.est_cost = plan->node(out.root).est_cost;
  }
  return out;
}

Optimizer::SubPlan Optimizer::AddUnary(OperatorType type, const SubPlan& input,
                                       double est_out, double act_out,
                                       QueryPlan* plan) const {
  PlanNode node;
  node.type = type;
  node.est_cardinality = ClampCard(est_out);
  node.actual_cardinality = ClampCard(act_out);
  CostInputs in;
  in.left_rows = input.est_card;
  in.out_rows = node.est_cardinality;
  node.est_cost = OwnCost(type, in) + input.est_cost;
  node.children.push_back(input.root);
  SubPlan out;
  out.root = plan->AddNode(std::move(node));
  out.est_card = ClampCard(est_out);
  out.act_card = ClampCard(act_out);
  out.est_cost = plan->node(out.root).est_cost;
  return out;
}

Optimizer::SubPlan Optimizer::BuildJoin(const SubPlan& left,
                                        const TableRef& right_ref,
                                        const ScanStats& right_stats,
                                        AccessPathChoice right_forced,
                                        const JoinEdge& edge,
                                        const JoinStats& join,
                                        JoinMethodChoice forced,
                                        QueryPlan* plan,
                                        JoinMethodChoice* resolved) const {
  SubPlan right = BuildScan(right_ref, right_stats, right_forced, plan);

  const double est_card =
      ClampCard(left.est_card * right.est_card * join.est_sel);
  const double act_card =
      ClampCard(left.act_card * right.act_card * join.true_sel);

  PlanNode node;
  node.est_cardinality = est_card;
  node.actual_cardinality = act_card;
  node.annotation.left_table = edge.from_table;
  node.annotation.left_column = edge.from_column;
  node.annotation.right_table = edge.to_table;
  node.annotation.right_column = edge.to_column;

  SubPlan out;
  out.est_card = est_card;
  out.act_card = act_card;

  // Method choice from estimates unless forced.
  JoinMethodChoice method = forced;
  if (method == JoinMethodChoice::kAuto) {
    const bool tiny_inner = right.est_card <= 200.0;
    const bool small_product = left.est_card * right.est_card <= 2e5;
    const bool balanced_large = left.est_card > 5e4 && right.est_card > 5e4 &&
                                left.est_card < 4.0 * right.est_card &&
                                right.est_card < 4.0 * left.est_card;
    method = (tiny_inner || small_product) ? JoinMethodChoice::kNestedLoop
             : balanced_large              ? JoinMethodChoice::kMergeJoin
                                           : JoinMethodChoice::kHashJoin;
  }
  *resolved = method;

  if (method == JoinMethodChoice::kNestedLoop) {
    // Nested loop; materialize a non-trivial inner to avoid rescans.
    SubPlan inner = right;
    if (right.est_card > 50.0) {
      inner = AddUnary(OperatorType::kMaterialize, right, right.est_card,
                       right.act_card, plan);
    }
    node.type = OperatorType::kNestedLoop;
    CostInputs in;
    in.left_rows = left.est_card;
    in.right_rows = inner.est_card;
    in.out_rows = est_card;
    node.est_cost = OwnCost(OperatorType::kNestedLoop, in) + left.est_cost +
                    inner.est_cost;
    node.children.push_back(left.root);
    node.children.push_back(inner.root);
    out.root = plan->AddNode(std::move(node));
  } else if (method == JoinMethodChoice::kMergeJoin) {
    // Merge join over two sorts.
    SubPlan sl = AddUnary(OperatorType::kSort, left, left.est_card,
                          left.act_card, plan);
    SubPlan sr = AddUnary(OperatorType::kSort, right, right.est_card,
                          right.act_card, plan);
    node.type = OperatorType::kMergeJoin;
    CostInputs in;
    in.left_rows = sl.est_card;
    in.right_rows = sr.est_card;
    in.out_rows = est_card;
    node.est_cost =
        OwnCost(OperatorType::kMergeJoin, in) + sl.est_cost + sr.est_cost;
    node.children.push_back(sl.root);
    node.children.push_back(sr.root);
    out.root = plan->AddNode(std::move(node));
  } else {
    // Hash join: build on the estimated-smaller side.
    SubPlan probe = left;
    SubPlan build = right;
    if (left.est_card < right.est_card) std::swap(probe, build);
    SubPlan hash = AddUnary(OperatorType::kHash, build, build.est_card,
                            build.act_card, plan);
    node.type = OperatorType::kHashJoin;
    CostInputs in;
    in.left_rows = probe.est_card;
    in.right_rows = hash.est_card;
    in.out_rows = est_card;
    node.est_cost =
        OwnCost(OperatorType::kHashJoin, in) + probe.est_cost + hash.est_cost;
    node.children.push_back(probe.root);
    node.children.push_back(hash.root);
    out.root = plan->AddNode(std::move(node));
  }
  out.est_cost = plan->node(out.root).est_cost;
  return out;
}

QueryPlan Optimizer::BuildPlan(const QuerySpec& spec) const {
  return BuildPlanWithDecisions(spec, PlanDecisions{});
}

QueryPlan Optimizer::BuildPlanWithDecisions(const QuerySpec& spec,
                                            const PlanDecisions& decisions) const {
  DACE_CHECK_OK(ValidateSpec(*db_, spec));
  return Build(spec, ComputeQueryStats(spec), decisions);
}

QueryPlan Optimizer::Build(const QuerySpec& spec, const QueryStats& stats,
                           const PlanDecisions& decisions,
                           std::vector<JoinMethodChoice>* methods) const {
  QueryPlan plan;
  const size_t num_tables = spec.tables.size();
  const std::vector<ScanStats>& scans = stats.scans;
  JoinMethodChoice method = JoinMethodChoice::kAuto;

  const auto path_of = [&](size_t slot) {
    return slot < decisions.access_paths.size() ? decisions.access_paths[slot]
                                                : AccessPathChoice::kAuto;
  };
  const auto method_of = [&](size_t step) {
    return step < decisions.join_methods.size() ? decisions.join_methods[step]
                                                : JoinMethodChoice::kAuto;
  };

  bool spec_order = decisions.table_order.empty();
  if (!spec_order) {
    DACE_CHECK_EQ(decisions.table_order.size(), num_tables);
    spec_order = true;
    for (size_t k = 0; k < num_tables; ++k) {
      if (decisions.table_order[k] != static_cast<int32_t>(k)) {
        spec_order = false;
        break;
      }
    }
  }

  SubPlan current;
  if (spec_order) {
    current = BuildScan(spec.tables[0], scans[0], path_of(0), &plan);
    for (size_t k = 0; k < spec.join_edge_ids.size(); ++k) {
      const JoinEdge& edge =
          db_->join_edges[static_cast<size_t>(spec.join_edge_ids[k])];
      current = BuildJoin(current, spec.tables[k + 1], scans[k + 1],
                          path_of(k + 1), edge, stats.joins[k], method_of(k),
                          &plan, &method);
      if (methods != nullptr) methods->push_back(method);
    }
  } else {
    // Reordered left-deep build: join tables in `table_order`, attaching
    // each through the first not-yet-used spec edge that connects it to the
    // already-joined prefix (the order must keep the join graph connected).
    std::vector<bool> edge_used(spec.join_edge_ids.size(), false);
    std::vector<int32_t> joined_ids;
    const auto first = static_cast<size_t>(decisions.table_order[0]);
    current = BuildScan(spec.tables[first], scans[first], path_of(0), &plan);
    joined_ids.push_back(spec.tables[first].table_id);
    for (size_t k = 1; k < num_tables; ++k) {
      const auto pos = static_cast<size_t>(decisions.table_order[k]);
      const int32_t next_id = spec.tables[pos].table_id;
      int edge_slot = -1;
      for (size_t e = 0; e < spec.join_edge_ids.size() && edge_slot < 0; ++e) {
        if (edge_used[e]) continue;
        const JoinEdge& edge =
            db_->join_edges[static_cast<size_t>(spec.join_edge_ids[e])];
        for (const int32_t j : joined_ids) {
          if ((edge.from_table == j && edge.to_table == next_id) ||
              (edge.to_table == j && edge.from_table == next_id)) {
            edge_slot = static_cast<int>(e);
            break;
          }
        }
      }
      DACE_CHECK_GE(edge_slot, 0) << "table order disconnects the join graph";
      const auto slot = static_cast<size_t>(edge_slot);
      edge_used[slot] = true;
      const JoinEdge& edge =
          db_->join_edges[static_cast<size_t>(spec.join_edge_ids[slot])];
      current = BuildJoin(current, spec.tables[pos], scans[pos], path_of(k),
                          edge, stats.joins[slot], method_of(k - 1), &plan,
                          &method);
      if (methods != nullptr) methods->push_back(method);
      joined_ids.push_back(next_id);
    }
  }

  if (spec.has_aggregate) {
    if (spec.aggregate_type == OperatorType::kAggregate ||
        spec.group_table < 0) {
      current = AddUnary(OperatorType::kAggregate, current, 1.0, 1.0, &plan);
    } else {
      const int32_t table_id =
          spec.tables[static_cast<size_t>(spec.group_table)].table_id;
      const double est_groups = selectivity_.EstimatedGroupCount(
          table_id, spec.group_column, current.est_card);
      const double act_groups = selectivity_.TrueGroupCount(
          table_id, spec.group_column, current.act_card);
      if (spec.aggregate_type == OperatorType::kGroupAggregate) {
        current = AddUnary(OperatorType::kSort, current, current.est_card,
                           current.act_card, &plan);
        current = AddUnary(OperatorType::kGroupAggregate, current, est_groups,
                           act_groups, &plan);
      } else {
        current = AddUnary(OperatorType::kHashAggregate, current, est_groups,
                           act_groups, &plan);
      }
    }
  }
  if (spec.has_sort) {
    current = AddUnary(OperatorType::kSort, current, current.est_card,
                       current.act_card, &plan);
  }
  if (spec.has_limit) {
    current = AddUnary(OperatorType::kLimit, current,
                       std::min(current.est_card, spec.limit_rows),
                       std::min(current.act_card, spec.limit_rows), &plan);
  }

  plan.SetRoot(current.root);
  DACE_CHECK_OK(plan.Validate());
  return plan;
}

std::vector<QueryPlan> Optimizer::EnumerateCandidates(
    const QuerySpec& spec, const CandidateOptions& options) const {
  DACE_CHECK_GE(options.max_candidates, 1);
  DACE_CHECK_OK(ValidateSpec(*db_, spec));
  const QueryStats stats = ComputeQueryStats(spec);
  std::vector<QueryPlan> out;
  std::vector<uint64_t> hashes;  // out[i].StructuralHash()
  // Returns true when the decisions produced a structurally new candidate.
  const auto add = [&](const PlanDecisions& decisions) {
    if (static_cast<int>(out.size()) >= options.max_candidates) return false;
    QueryPlan plan = Build(spec, stats, decisions);
    const uint64_t hash = plan.StructuralHash();
    for (size_t i = 0; i < out.size(); ++i) {
      if (hashes[i] == hash && out[i] == plan) return false;
    }
    hashes.push_back(hash);
    out.push_back(std::move(plan));
    return true;
  };

  // Candidate 0: the classic heuristic plan, with the join method each step
  // resolved to.
  std::vector<JoinMethodChoice> classic_methods;
  out.push_back(Build(spec, stats, PlanDecisions{}, &classic_methods));
  hashes.push_back(out[0].StructuralHash());

  const size_t num_tables = spec.tables.size();
  const size_t num_joins = spec.join_edge_ids.size();

  // The single-slot perturbations below skip every forcing that resolves to
  // candidate 0's own choice for that slot: estimated cardinalities, and so
  // every other slot's kAuto decision, do not depend on the method or path
  // chosen at a slot, so such a build would reproduce candidate 0 byte for
  // byte and be dropped as its duplicate.

  // Single-slot join-method perturbations on the spec's own order.
  for (size_t j = 0; j < num_joins; ++j) {
    for (const JoinMethodChoice method :
         {JoinMethodChoice::kNestedLoop, JoinMethodChoice::kHashJoin,
          JoinMethodChoice::kMergeJoin}) {
      if (method == classic_methods[j]) continue;
      PlanDecisions decisions;
      decisions.join_methods.assign(num_joins, JoinMethodChoice::kAuto);
      decisions.join_methods[j] = method;
      add(decisions);
    }
  }

  // Single-slot access-path perturbations (slot k = k-th scanned table).
  for (size_t t = 0; t < num_tables; ++t) {
    const AccessPathChoice classic =
        ResolvePath(stats.scans[t], AccessPathChoice::kAuto);
    for (const AccessPathChoice path :
         {AccessPathChoice::kSeqScan, AccessPathChoice::kIndexScan,
          AccessPathChoice::kBitmapScan}) {
      if (ResolvePath(stats.scans[t], path) == classic) continue;
      PlanDecisions decisions;
      decisions.access_paths.assign(num_tables, AccessPathChoice::kAuto);
      decisions.access_paths[t] = path;
      add(decisions);
    }
  }

  // Alternative connected left-deep join orders (all slots kAuto), emitted
  // in lexicographic position order so the set is deterministic.
  if (num_tables > 2 && options.max_join_orders > 1) {
    int budget = options.max_join_orders - 1;
    std::vector<int32_t> order;
    std::vector<bool> taken(num_tables, false);
    std::vector<int32_t> placed_ids;
    const auto dfs = [&](const auto& self) -> void {
      if (budget <= 0 ||
          static_cast<int>(out.size()) >= options.max_candidates) {
        return;
      }
      if (order.size() == num_tables) {
        bool identity = true;
        for (size_t k = 0; k < num_tables; ++k) {
          if (order[k] != static_cast<int32_t>(k)) {
            identity = false;
            break;
          }
        }
        if (!identity) {
          PlanDecisions decisions;
          decisions.table_order = order;
          if (add(decisions)) --budget;
        }
        return;
      }
      for (size_t pos = 0; pos < num_tables; ++pos) {
        if (taken[pos]) continue;
        const int32_t table_id = spec.tables[pos].table_id;
        if (!order.empty() &&
            !ConnectsToJoined(*db_, spec, table_id, placed_ids)) {
          continue;
        }
        taken[pos] = true;
        order.push_back(static_cast<int32_t>(pos));
        placed_ids.push_back(table_id);
        self(self);
        placed_ids.pop_back();
        order.pop_back();
        taken[pos] = false;
      }
    };
    dfs(dfs);
  }

  CandidatesCounter()->Add(out.size());
  CandidatesPerQueryHistogram()->Observe(static_cast<double>(out.size()));
  return out;
}

PlanChoice Optimizer::ChoosePlan(const QuerySpec& spec,
                                 const core::PlanChoiceEstimator& scorer,
                                 const CandidateOptions& options) const {
  std::vector<QueryPlan> candidates = EnumerateCandidates(spec, options);
  ChooseCallsCounter()->Add(1);

  PlanChoice choice;
  choice.scores = scorer.ScorePlans(candidates);
  DACE_CHECK_EQ(choice.scores.size(), candidates.size())
      << "scorer " << scorer.Name() << " returned a mis-sized score vector";

  // First finite minimum wins; a candidate with a non-finite score can never
  // be chosen over one the scorer actually priced.
  size_t best = 0;
  for (size_t i = 1; i < candidates.size(); ++i) {
    const double score = choice.scores[i];
    const double incumbent = choice.scores[best];
    if (std::isfinite(score) &&
        (!std::isfinite(incumbent) || score < incumbent)) {
      best = i;
    }
  }
  choice.index = best;
  choice.plan = std::move(candidates[best]);
  return choice;
}

PlanChoice Optimizer::ChoosePlan(const QuerySpec& spec,
                                 const CandidateOptions& options) const {
  return ChoosePlan(spec, scorer_ != nullptr ? *scorer_ : NativeScorer(),
                    options);
}

}  // namespace dace::engine
