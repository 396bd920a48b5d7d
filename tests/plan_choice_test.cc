// Tests of estimator-driven plan selection (DESIGN.md §15): the bounded
// candidate enumeration, the pluggable core::PlanChoiceEstimator surface,
// and the invariants the selection bench relies on — candidate 0 is the
// classic heuristic plan, the native scorer picks the minimal-estimated-cost
// candidate, and construction is deterministic across runs and plugins.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <string>
#include <vector>

#include "baselines/postgres_cost.h"
#include "core/plan_choice.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "engine/optimizer.h"
#include "engine/workload.h"
#include "util/checksum.h"

namespace dace::engine {
namespace {

using plan::OperatorType;
using plan::QueryPlan;

// Scores a plan by the NEGATED native cost: ranks candidates exactly
// backwards, so any test where it agrees with the native choice would only
// pass by accident.
class WorstCostChoice final : public core::PlanChoiceEstimator {
 public:
  std::string Name() const override { return "worst"; }
  double ScorePlan(const QueryPlan& plan) const override {
    return -plan.node(plan.root()).est_cost;
  }
};

class PlanChoiceTest : public ::testing::Test {
 protected:
  PlanChoiceTest() : db_(BuildImdbLike(42)), optimizer_(&db_) {}

  std::vector<QuerySpec> Specs(int count, uint64_t seed) {
    return GenerateQueries(db_, WorkloadKind::kComplex, count, seed);
  }

  Database db_;
  Optimizer optimizer_;
};

TEST_F(PlanChoiceTest, CandidateZeroIsTheClassicPlan) {
  for (const QuerySpec& spec : Specs(25, 4)) {
    const std::vector<QueryPlan> candidates =
        optimizer_.EnumerateCandidates(spec);
    ASSERT_FALSE(candidates.empty());
    EXPECT_EQ(candidates[0].ToText(), optimizer_.BuildPlan(spec).ToText());
  }
}

TEST_F(PlanChoiceTest, EmptyDecisionsMatchBuildPlanByteForByte) {
  for (const QuerySpec& spec : Specs(25, 5)) {
    EXPECT_EQ(optimizer_.BuildPlanWithDecisions(spec, PlanDecisions{}).ToText(),
              optimizer_.BuildPlan(spec).ToText());
  }
}

TEST_F(PlanChoiceTest, CandidatesAreValidDistinctAndBounded) {
  CandidateOptions options;
  for (const QuerySpec& spec : Specs(25, 6)) {
    const std::vector<QueryPlan> candidates =
        optimizer_.EnumerateCandidates(spec, options);
    ASSERT_GE(candidates.size(), 1u);
    ASSERT_LE(candidates.size(),
              static_cast<size_t>(options.max_candidates));
    std::set<std::string> texts;
    for (const QueryPlan& candidate : candidates) {
      ASSERT_TRUE(candidate.Validate().ok()) << candidate.ToText();
      EXPECT_TRUE(texts.insert(candidate.ToText()).second)
          << "duplicate candidate:\n"
          << candidate.ToText();
    }
  }
}

TEST_F(PlanChoiceTest, MultiJoinQueriesOfferARealChoice) {
  // A query with joins must yield alternatives (at minimum the forced
  // join-method variants differ from the heuristic pick).
  bool saw_multi_join = false;
  for (const QuerySpec& spec : Specs(40, 7)) {
    if (spec.NumJoins() < 1) continue;
    saw_multi_join = true;
    EXPECT_GE(optimizer_.EnumerateCandidates(spec).size(), 3u);
  }
  ASSERT_TRUE(saw_multi_join);
}

TEST_F(PlanChoiceTest, ForcedJoinMethodsProduceRequestedOperators) {
  QuerySpec spec;
  TableRef title, cast;
  title.table_id = 0;
  cast.table_id = 2;
  spec.tables = {title, cast};
  spec.join_edge_ids = {db_.FindEdge(0, 2)};

  const auto types_of = [&](JoinMethodChoice method) {
    PlanDecisions decisions;
    decisions.join_methods = {method};
    const QueryPlan plan = optimizer_.BuildPlanWithDecisions(spec, decisions);
    std::set<OperatorType> types;
    for (const auto& node : plan.nodes()) types.insert(node.type);
    return types;
  };

  EXPECT_TRUE(types_of(JoinMethodChoice::kNestedLoop)
                  .count(OperatorType::kNestedLoop));
  EXPECT_TRUE(
      types_of(JoinMethodChoice::kHashJoin).count(OperatorType::kHashJoin));
  EXPECT_TRUE(
      types_of(JoinMethodChoice::kMergeJoin).count(OperatorType::kMergeJoin));
}

TEST_F(PlanChoiceTest, InapplicableAccessPathForcingFallsBackToSeqScan) {
  // title.production_year (column 1) is unindexed: forcing an index or
  // bitmap path must degrade to a valid sequential scan, not die.
  QuerySpec spec;
  TableRef ref;
  ref.table_id = 0;
  plan::FilterPredicate f;
  f.column_id = 1;
  f.op = plan::CompareOp::kEq;
  f.literal = 1999.0;
  ref.filters = {f};
  spec.tables.push_back(std::move(ref));

  for (const AccessPathChoice path :
       {AccessPathChoice::kIndexScan, AccessPathChoice::kBitmapScan}) {
    PlanDecisions decisions;
    decisions.access_paths = {path};
    const QueryPlan plan = optimizer_.BuildPlanWithDecisions(spec, decisions);
    ASSERT_TRUE(plan.Validate().ok());
    bool saw_seq = false;
    for (const auto& node : plan.nodes()) {
      saw_seq |= node.type == OperatorType::kSeqScan;
    }
    EXPECT_TRUE(saw_seq);
  }
}

// Satellite: with the native estimator plugged in, the chosen candidate has
// minimal estimated cost among the enumerated candidates, and the reported
// scores ARE the candidates' root costs.
TEST_F(PlanChoiceTest, NativeChoiceMinimizesEstimatedCost) {
  for (const QuerySpec& spec : Specs(30, 8)) {
    const std::vector<QueryPlan> candidates =
        optimizer_.EnumerateCandidates(spec);
    const PlanChoice choice = optimizer_.ChoosePlan(spec);
    ASSERT_EQ(choice.scores.size(), candidates.size());

    double min_cost = std::numeric_limits<double>::infinity();
    size_t first_argmin = 0;
    for (size_t i = 0; i < candidates.size(); ++i) {
      const double cost = candidates[i].node(candidates[i].root()).est_cost;
      EXPECT_DOUBLE_EQ(choice.scores[i], cost);
      if (cost < min_cost) {
        min_cost = cost;
        first_argmin = i;
      }
    }
    EXPECT_EQ(choice.index, first_argmin);
    EXPECT_DOUBLE_EQ(choice.plan.node(choice.plan.root()).est_cost, min_cost);
    EXPECT_EQ(choice.plan.ToText(), candidates[first_argmin].ToText());
  }
}

// Satellite: plan construction stays deterministic — the same spec yields
// the same plan bytes on every call, the candidate set does not depend on
// which scorer is plugged in, and each plugin's choice is repeatable.
TEST_F(PlanChoiceTest, ConstructionDeterministicAcrossRunsAndPlugins) {
  const WorstCostChoice worst;
  const Optimizer with_worst(&db_, &worst);
  for (const QuerySpec& spec : Specs(20, 9)) {
    const std::vector<QueryPlan> a = optimizer_.EnumerateCandidates(spec);
    const std::vector<QueryPlan> b = with_worst.EnumerateCandidates(spec);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].ToText(), b[i].ToText());
    }
    EXPECT_EQ(optimizer_.ChoosePlan(spec).plan.ToText(),
              optimizer_.ChoosePlan(spec).plan.ToText());
    EXPECT_EQ(with_worst.ChoosePlan(spec).plan.ToText(),
              with_worst.ChoosePlan(spec).plan.ToText());
  }
}

TEST_F(PlanChoiceTest, InjectedScorerActuallyDrivesTheChoice) {
  const WorstCostChoice worst;
  const Optimizer with_worst(&db_, &worst);
  bool diverged = false;
  for (const QuerySpec& spec : Specs(20, 10)) {
    const std::vector<QueryPlan> candidates =
        optimizer_.EnumerateCandidates(spec);
    const PlanChoice choice = with_worst.ChoosePlan(spec);

    // The backwards scorer must pick the MAX-cost candidate.
    size_t argmax = 0;
    for (size_t i = 1; i < candidates.size(); ++i) {
      if (candidates[i].node(candidates[i].root()).est_cost >
          candidates[argmax].node(candidates[argmax].root()).est_cost) {
        argmax = i;
      }
    }
    EXPECT_EQ(choice.plan.ToText(), candidates[argmax].ToText());
    diverged |= choice.index != optimizer_.ChoosePlan(spec).index;
  }
  EXPECT_TRUE(diverged)
      << "max-cost and min-cost choices never diverged: candidate sets "
         "offer no real alternatives";
}

TEST_F(PlanChoiceTest, EstimatorAdapterForwardsToTheLearnedModel) {
  const std::vector<QueryPlan> train = GenerateLabeledPlans(
      db_, MachineM1(), WorkloadKind::kComplex, 60, /*seed=*/11);
  baselines::PostgresLinear model;
  model.Train(train);
  const core::EstimatorPlanChoice adapter(&model);
  EXPECT_EQ(adapter.Name(), model.Name());
  EXPECT_TRUE(adapter.ScoresAreMilliseconds());

  const std::vector<QueryPlan> candidates = optimizer_.EnumerateCandidates(
      GenerateQueries(db_, WorkloadKind::kComplex, 1, 12)[0]);
  const std::vector<double> batch = adapter.ScorePlans(candidates);
  ASSERT_EQ(batch.size(), candidates.size());
  for (size_t i = 0; i < candidates.size(); ++i) {
    EXPECT_DOUBLE_EQ(batch[i], model.PredictMs(candidates[i]));
    EXPECT_DOUBLE_EQ(adapter.ScorePlan(candidates[i]), batch[i]);
  }

  // A learned scorer plugged into ChoosePlan picks its own argmin.
  const Optimizer with_model(&db_, &adapter);
  for (const QuerySpec& spec : Specs(10, 13)) {
    const PlanChoice choice = with_model.ChoosePlan(spec);
    const double chosen = adapter.ScorePlan(choice.plan);
    for (const double score : choice.scores) {
      EXPECT_LE(chosen, score);
    }
  }
}

TEST_F(PlanChoiceTest, AlternativeJoinOrdersAreConnectedAndBounded) {
  CandidateOptions options;
  options.max_join_orders = 4;
  for (const QuerySpec& spec : Specs(30, 14)) {
    if (spec.NumJoins() < 2) continue;
    const std::vector<QueryPlan> candidates =
        optimizer_.EnumerateCandidates(spec, options);
    // Every candidate joins the same set of base tables (structural check:
    // identical multiset of scan-annotation table ids).
    std::multiset<int32_t> expected;
    for (const TableRef& ref : spec.tables) expected.insert(ref.table_id);
    for (const QueryPlan& candidate : candidates) {
      std::multiset<int32_t> scanned;
      for (const auto& node : candidate.nodes()) {
        if (node.children.empty() && node.annotation.table_id >= 0) {
          scanned.insert(node.annotation.table_id);
        }
      }
      EXPECT_EQ(scanned, expected) << candidate.ToText();
    }
  }
}

// A cap below one would leave ChoosePlan nothing to choose from; the
// enumerator rejects it up front instead of returning an empty set.
TEST_F(PlanChoiceTest, NonPositiveCandidateCapDies) {
  const QuerySpec spec = Specs(1, 15)[0];
  for (const int cap : {0, -3}) {
    CandidateOptions options;
    options.max_candidates = cap;
    EXPECT_DEATH((void)optimizer_.ChoosePlan(spec, options), "max_candidates");
    EXPECT_DEATH((void)optimizer_.EnumerateCandidates(spec, options),
                 "max_candidates");
  }
}

// CRC-32 digests of the optimizer's output bytes over a fixed spec set.
struct OutputDigest {
  size_t candidates = 0;          // total over all specs
  uint32_t candidates_crc = 0;    // every candidate's ToText(), in order
  uint32_t build_plan_crc = 0;    // every BuildPlan(spec).ToText()
};

OutputDigest DigestOf(const Database& db, int count, uint64_t seed) {
  const Optimizer optimizer(&db);
  Crc32 candidates_crc;
  Crc32 build_plan_crc;
  OutputDigest digest;
  for (const QuerySpec& spec :
       GenerateQueries(db, WorkloadKind::kComplex, count, seed)) {
    for (const QueryPlan& candidate : optimizer.EnumerateCandidates(spec)) {
      const std::string text = candidate.ToText();
      candidates_crc.Update(text.data(), text.size());
      ++digest.candidates;
    }
    const std::string text = optimizer.BuildPlan(spec).ToText();
    build_plan_crc.Update(text.data(), text.size());
  }
  digest.candidates_crc = candidates_crc.digest();
  digest.build_plan_crc = build_plan_crc.digest();
  return digest;
}

// Golden bytes: the constants were computed with the enumerator that
// deduplicated candidates by their ToText() strings. Candidate content,
// order and count must not move, and neither may BuildPlan, through which
// every training corpus is built.
TEST(PlanChoiceGoldenTest, EnumeratorAndBuildPlanBytesArePinned) {
  const OutputDigest imdb = DigestOf(BuildImdbLike(42), 300, 21);
  EXPECT_EQ(imdb.candidates, 2687u);
  EXPECT_EQ(imdb.candidates_crc, 0x0d6fa11au);
  EXPECT_EQ(imdb.build_plan_crc, 0x3c2628ecu);

  const OutputDigest tpch = DigestOf(BuildTpchLike(42), 100, 22);
  EXPECT_EQ(tpch.candidates, 895u);
  EXPECT_EQ(tpch.candidates_crc, 0x6452b644u);
  EXPECT_EQ(tpch.build_plan_crc, 0x5949ecbeu);
}

// The enumeration contract spelled out through the public build entry
// point, with no shortcut: candidate 0, then every single-slot join-method
// forcing, then every single-slot access-path forcing, then up to
// max_join_orders - 1 alternative connected left-deep orders in
// lexicographic position order. Each is built in full and kept unless it
// equals an earlier candidate.
std::vector<QueryPlan> ReferenceCandidates(const Database& db,
                                           const Optimizer& optimizer,
                                           const QuerySpec& spec,
                                           const CandidateOptions& options) {
  std::vector<QueryPlan> out;
  const auto add = [&](const PlanDecisions& decisions) {
    if (static_cast<int>(out.size()) >= options.max_candidates) return false;
    QueryPlan plan = optimizer.BuildPlanWithDecisions(spec, decisions);
    for (const QueryPlan& earlier : out) {
      if (earlier == plan) return false;
    }
    out.push_back(std::move(plan));
    return true;
  };
  add(PlanDecisions{});
  const size_t num_tables = spec.tables.size();
  const size_t num_joins = spec.join_edge_ids.size();
  for (size_t j = 0; j < num_joins; ++j) {
    for (const JoinMethodChoice method :
         {JoinMethodChoice::kNestedLoop, JoinMethodChoice::kHashJoin,
          JoinMethodChoice::kMergeJoin}) {
      PlanDecisions decisions;
      decisions.join_methods.assign(num_joins, JoinMethodChoice::kAuto);
      decisions.join_methods[j] = method;
      add(decisions);
    }
  }
  for (size_t t = 0; t < num_tables; ++t) {
    for (const AccessPathChoice path :
         {AccessPathChoice::kSeqScan, AccessPathChoice::kIndexScan,
          AccessPathChoice::kBitmapScan}) {
      PlanDecisions decisions;
      decisions.access_paths.assign(num_tables, AccessPathChoice::kAuto);
      decisions.access_paths[t] = path;
      add(decisions);
    }
  }
  if (num_tables <= 2 || options.max_join_orders <= 1) return out;
  int budget = options.max_join_orders - 1;
  std::vector<int32_t> order;
  std::vector<bool> taken(num_tables, false);
  const auto connects = [&](int32_t table_id) {
    for (const int32_t edge_id : spec.join_edge_ids) {
      const JoinEdge& edge = db.join_edges[static_cast<size_t>(edge_id)];
      for (const int32_t pos : order) {
        const int32_t placed = spec.tables[static_cast<size_t>(pos)].table_id;
        if ((edge.from_table == placed && edge.to_table == table_id) ||
            (edge.to_table == placed && edge.from_table == table_id)) {
          return true;
        }
      }
    }
    return false;
  };
  const auto dfs = [&](const auto& self) -> void {
    if (budget <= 0 || static_cast<int>(out.size()) >= options.max_candidates) {
      return;
    }
    if (order.size() == num_tables) {
      bool identity = true;
      for (size_t k = 0; k < num_tables; ++k) {
        identity = identity && order[k] == static_cast<int32_t>(k);
      }
      PlanDecisions decisions;
      decisions.table_order = order;
      if (!identity && add(decisions)) --budget;
      return;
    }
    for (size_t pos = 0; pos < num_tables; ++pos) {
      if (taken[pos]) continue;
      if (!order.empty() && !connects(spec.tables[pos].table_id)) continue;
      taken[pos] = true;
      order.push_back(static_cast<int32_t>(pos));
      self(self);
      order.pop_back();
      taken[pos] = false;
    }
  };
  dfs(dfs);
  return out;
}

// EnumerateCandidates skips the builds it can show would reproduce
// candidate 0; that may not change one candidate. Plan for plan against the
// full-build reference on every database of the benchmark corpus (the
// databases every Workbench experiment runs on), for two workload kinds and
// the candidate and join-order bounds below, at and beyond their defaults.
TEST(PlanChoiceDifferentialTest, EnumeratorMatchesFullBuildReference) {
  size_t total = 0;
  for (const Database& db : BuildCorpus()) {
    const Optimizer optimizer(&db);
    for (const WorkloadKind kind :
         {WorkloadKind::kComplex, WorkloadKind::kSynthetic}) {
      for (const QuerySpec& spec : GenerateQueries(db, kind, 40, 23)) {
        for (const int max_candidates : {1, 3, 48}) {
          for (const int max_join_orders : {1, 6}) {
            CandidateOptions options;
            options.max_candidates = max_candidates;
            options.max_join_orders = max_join_orders;
            const std::vector<QueryPlan> got =
                optimizer.EnumerateCandidates(spec, options);
            const std::vector<QueryPlan> want =
                ReferenceCandidates(db, optimizer, spec, options);
            ASSERT_EQ(got.size(), want.size())
                << db.name << " max_candidates " << max_candidates
                << " max_join_orders " << max_join_orders;
            for (size_t i = 0; i < got.size(); ++i) {
              ASSERT_TRUE(got[i] == want[i])
                  << db.name << " candidate " << i << ":\n"
                  << got[i].ToText() << "reference:\n"
                  << want[i].ToText();
            }
            total += got.size();
          }
        }
      }
    }
  }
  EXPECT_GT(total, 0u);
}

}  // namespace
}  // namespace dace::engine
