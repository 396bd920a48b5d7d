// Batched inference differential tests. Teacher misses are routed by
// precision: f64 prices each plan through the per-plan reference forward,
// f32 packs them into one single-precision forward. Contracts under test:
//   - composition independence: a plan's f32 answer is bit-identical whether
//     it is priced alone or packed with other plans — a 1-node plan next to
//     a deep chain included — under both ISAs;
//   - a lone f64 miss through the batch entry point equals PredictMs bitwise;
//   - the DESIGN §13 error budget: the q-error of the f32 prediction
//     measured against the f64 prediction stays under a bound far below any
//     model-accuracy signal;
//   - the scratch shrink-to-high-watermark governor, on both precisions.

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "nn/kernels.h"
#include "nn/kernels_f32.h"

namespace dace::core {
namespace {

using nn::kernel::Precision;

// A root-to-leaf chain of `nodes` operators — the deepest possible plan
// shape, maximizing both the DFS row count and the ancestor-mask density.
plan::QueryPlan ChainPlan(int nodes) {
  plan::QueryPlan p;
  for (int i = 0; i < nodes; ++i) {
    plan::PlanNode node;
    node.type = i + 1 == nodes ? plan::OperatorType::kSeqScan
                               : plan::OperatorType::kNestedLoop;
    node.est_cardinality = 10.0 + i;
    node.est_cost = 100.0 + 3.0 * i;
    node.actual_cardinality = 12.0 + i;
    node.actual_time_ms = 1.0 + 0.1 * i;
    if (i + 1 < nodes) node.children.push_back(i + 1);
    p.AddNode(std::move(node));
  }
  p.SetRoot(0);
  return p;
}

plan::QueryPlan SingleNodePlan() { return ChainPlan(1); }

class PackedInferenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const engine::Database db = engine::BuildImdbLike(11);
    plans_ = engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                          engine::WorkloadKind::kComplex, 48, 3);
    DaceConfig config;
    config.epochs = 1;
    estimator_ = DaceEstimator(config);
    estimator_.Train(plans_);
    estimator_.set_prediction_cache_capacity(0);
    // Bitwise f64 assertions below must not inherit a DACE_PRECISION=f32
    // environment; tests that exercise the f32 path opt in explicitly.
    nn::kernel::SetPrecision(nn::kernel::Precision::kF64);
  }

  void TearDown() override {
    nn::kernel::SetIsa(original_isa_);
    nn::kernel::SetPrecision(original_precision_);
  }

  std::vector<const plan::QueryPlan*> Ptrs(
      const std::vector<plan::QueryPlan>& plans) {
    std::vector<const plan::QueryPlan*> ptrs;
    for (const auto& p : plans) ptrs.push_back(&p);
    return ptrs;
  }

  // One batch at `precision` with an empty cache, so every plan is computed.
  std::vector<double> Predict(const std::vector<plan::QueryPlan>& batch,
                              Precision precision) {
    nn::kernel::SetPrecision(precision);
    estimator_.set_prediction_cache_capacity(0);
    return estimator_.PredictBatchMs(Ptrs(batch));
  }

  std::vector<plan::QueryPlan> plans_;
  DaceEstimator estimator_;
  const nn::kernel::Isa original_isa_ = nn::kernel::ActiveIsa();
  const nn::kernel::Precision original_precision_ =
      nn::kernel::ActivePrecision();
};

TEST_F(PackedInferenceTest, EmptyBatchReturnsEmptyOnEveryMode) {
  for (Precision precision : {Precision::kF64, Precision::kF32}) {
    nn::kernel::SetPrecision(precision);
    EXPECT_TRUE(estimator_.PredictBatchMs(std::vector<plan::QueryPlan>())
                    .empty());
    EXPECT_TRUE(estimator_
                    .PredictSubPlansBatchMs(
                        std::span<const plan::QueryPlan* const>())
                    .empty());
  }
}

TEST_F(PackedInferenceTest, SinglePlanForcedPackMatchesPredictMsBitwise) {
  // A lone f64 teacher miss goes through the batch entry point; it must
  // still be bit-identical to PredictMs, under both ISAs.
  estimator_.set_tier_mode(DaceEstimator::TierMode::kTeacherOnly);
  for (nn::kernel::Isa isa :
       {nn::kernel::Isa::kScalar, nn::kernel::Isa::kAvx2}) {
    if (isa == nn::kernel::Isa::kAvx2 && !nn::kernel::HasAvx2()) continue;
    nn::kernel::SetIsa(isa);
    SCOPED_TRACE(nn::kernel::IsaName(isa));
    for (const auto& plan : {plans_[0], plans_[7], SingleNodePlan()}) {
      nn::kernel::SetPrecision(Precision::kF64);
      const double reference = estimator_.PredictMs(plan);
      const std::vector<double> batched =
          Predict(std::vector<plan::QueryPlan>{plan}, Precision::kF64);
      ASSERT_EQ(1u, batched.size());
      EXPECT_EQ(reference, batched[0]);
    }
  }
}

// Batch composition must not change an answer: each plan priced alone (a
// 1-plan pack) equals, bitwise, its answer inside one mixed pack holding
// the corpus plus one-node plans whose score tiles are almost entirely
// padding and a chain deeper than anything in the training corpus.
TEST_F(PackedInferenceTest, ExtremeShapeMixPacksBitwise) {
  estimator_.set_tier_mode(DaceEstimator::TierMode::kTeacherOnly);
  std::vector<plan::QueryPlan> batch = plans_;
  batch.push_back(SingleNodePlan());
  batch.push_back(ChainPlan(120));
  for (nn::kernel::Isa isa :
       {nn::kernel::Isa::kScalar, nn::kernel::Isa::kAvx2}) {
    if (isa == nn::kernel::Isa::kAvx2 && !nn::kernel::HasAvx2()) continue;
    nn::kernel::SetIsa(isa);
    SCOPED_TRACE(nn::kernel::IsaName(isa));
    const std::vector<double> mixed = Predict(batch, Precision::kF32);
    ASSERT_EQ(batch.size(), mixed.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::vector<double> alone =
          Predict(std::vector<plan::QueryPlan>{batch[i]}, Precision::kF32);
      ASSERT_EQ(1u, alone.size());
      EXPECT_EQ(alone[0], mixed[i]) << "plan " << i;
    }
  }
}

TEST_F(PackedInferenceTest, IdenticalPlansBatchAndCacheInteraction) {
  // A batch of copies of one plan, cache enabled: every copy misses the
  // (empty) cache in the probe pass, and every result must equal the
  // per-plan value bit-for-bit. The NEXT batch is all hits.
  estimator_.set_prediction_cache_capacity(64);
  const double reference = estimator_.PredictMs(plans_[3]);
  estimator_.set_prediction_cache_capacity(64);  // reset entries + counters
  const std::vector<plan::QueryPlan> batch(8, plans_[3]);
  const std::vector<double> first = estimator_.PredictBatchMs(Ptrs(batch));
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(reference, first[i]) << "copy " << i;
  }
  const auto after_fill = estimator_.prediction_cache_stats();
  EXPECT_EQ(0u, after_fill.hits);
  const std::vector<double> second = estimator_.PredictBatchMs(Ptrs(batch));
  for (size_t i = 0; i < second.size(); ++i) {
    EXPECT_EQ(reference, second[i]) << "cached copy " << i;
  }
  const auto after_hits = estimator_.prediction_cache_stats();
  EXPECT_EQ(8u, after_hits.hits);
  estimator_.set_prediction_cache_capacity(0);
}

// The f32 error budget (DESIGN §13): per-plan q-error of the f32 packed
// prediction against the f64 reference. The budget is 1.001 — a 0.1%
// multiplicative error, two orders of magnitude below the model's own
// median q-error, asserted with the batch containing the corpus plus the
// extreme synthetic shapes.
TEST_F(PackedInferenceTest, F32QErrorDeltaWithinBudget) {
  std::vector<plan::QueryPlan> batch = plans_;
  batch.push_back(SingleNodePlan());
  batch.push_back(ChainPlan(120));
  const std::vector<double> f64_preds = Predict(batch, Precision::kF64);
  const std::vector<double> f32_preds = Predict(batch, Precision::kF32);
  ASSERT_EQ(f64_preds.size(), f32_preds.size());
  double worst_q = 1.0;
  for (size_t i = 0; i < f64_preds.size(); ++i) {
    ASSERT_GT(f64_preds[i], 0.0) << "plan " << i;
    ASSERT_GT(f32_preds[i], 0.0) << "plan " << i;
    const double q = std::max(f64_preds[i] / f32_preds[i],
                              f32_preds[i] / f64_preds[i]);
    EXPECT_LT(q, 1.001) << "plan " << i << ": f64=" << f64_preds[i]
                        << " f32=" << f32_preds[i];
    worst_q = std::max(worst_q, q);
  }
  // The bound must not be vacuous: f32 really is a different computation.
  EXPECT_GT(worst_q, 1.0);
}

// f32 must also re-fold its weight image when the weights change, rather
// than serving predictions from the stale fold.
TEST_F(PackedInferenceTest, F32RefoldsAfterFineTune) {
  const std::vector<double> before = Predict(plans_, Precision::kF32);
  estimator_.FineTune(plans_);
  const std::vector<double> after = Predict(plans_, Precision::kF32);
  const std::vector<double> f64_after = Predict(plans_, Precision::kF64);
  ASSERT_EQ(after.size(), f64_after.size());
  bool any_changed = false;
  for (size_t i = 0; i < before.size(); ++i) {
    any_changed = any_changed || before[i] != after[i];
    // Post-fine-tune f32 tracks the post-fine-tune f64 weights (the LoRA
    // adapters are folded into the f32 image), same budget as above.
    const double q =
        std::max(f64_after[i] / after[i], after[i] / f64_after[i]);
    EXPECT_LT(q, 1.001) << "plan " << i;
  }
  EXPECT_TRUE(any_changed);  // the fine-tune moved the weights
}

// Scratch governor: one pathological deep plan pins megabyte-class buffers;
// a patience-window of small batches afterwards must shrink them back, on
// the per-plan (f64) and packed (f32) scratch alike, for root-only and
// all-rows batches.
TEST_F(PackedInferenceTest, ScratchShrinksBackToSmallWorkload) {
  for (Precision precision : {Precision::kF64, Precision::kF32}) {
    for (bool sub_plans : {false, true}) {
      nn::kernel::SetPrecision(precision);
      SCOPED_TRACE(std::string(nn::kernel::PrecisionName(precision)) +
                   (sub_plans ? " sub-plans" : " roots"));
      const auto run = [&](const std::vector<plan::QueryPlan>& batch) {
        if (sub_plans) {
          (void)estimator_.PredictSubPlansBatchMs(Ptrs(batch));
        } else {
          (void)estimator_.PredictBatchMs(Ptrs(batch));
        }
      };
      // A 300-node plan (>= the governor's 256-node floor) warms the scratch.
      std::vector<plan::QueryPlan> big;
      big.push_back(ChainPlan(300));
      big.push_back(ChainPlan(299));
      run(big);
      EXPECT_GE(estimator_.InferenceScratchPeakNodes(), 300u);
      // Small batches only: the governor needs its full patience streak
      // before dropping the watermark.
      std::vector<plan::QueryPlan> small(plans_.begin(), plans_.begin() + 8);
      for (int call = 0; call < 20; ++call) run(small);
      EXPECT_LT(estimator_.InferenceScratchPeakNodes(), 256u)
          << "scratch still sized for the 300-node outlier";
    }
  }
}

// One oversized batch inside the patience window resets the streak: the
// governor must NOT shrink scratch a live workload still needs.
TEST_F(PackedInferenceTest, GovernorSparesActiveDeepWorkloads) {
  for (Precision precision : {Precision::kF64, Precision::kF32}) {
    nn::kernel::SetPrecision(precision);
    SCOPED_TRACE(nn::kernel::PrecisionName(precision));
    std::vector<plan::QueryPlan> big;
    big.push_back(ChainPlan(300));
    std::vector<plan::QueryPlan> small(plans_.begin(), plans_.begin() + 8);
    (void)estimator_.PredictBatchMs(Ptrs(big));
    for (int round = 0; round < 3; ++round) {
      for (int call = 0; call < 10; ++call) {
        (void)estimator_.PredictBatchMs(Ptrs(small));
      }
      (void)estimator_.PredictBatchMs(Ptrs(big));  // streak reset
    }
    EXPECT_GE(estimator_.InferenceScratchPeakNodes(), 300u);
  }
}

}  // namespace
}  // namespace dace::core
