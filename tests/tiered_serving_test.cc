// Tiered serving differential tests (DESIGN.md §14): the distilled student
// answers batch misses first and an agreement gate escalates low-confidence
// plans to the teacher. Contracts under test:
//   - student-tier answers are bit-identical across ISA / DACE_KERNELS modes
//     (the i8 kernel table carries a 0-ULP scalar/AVX2 contract);
//   - escalated answers are bit-identical to teacher-only serving;
//   - the predict.tier.* counters reconcile exactly:
//       predict.tier.student + predict.tier.escalated
//         == predict.tier.requests
//     on every batch composition, tier mode, and cache state;
//   - end-to-end tiered accuracy stays within the 1.05× q-error budget of
//     teacher-only serving on a fig05-style workload;
//   - the distilled student round-trips through the framed checkpoint as the
//     optional trailing section, and a student-free checkpoint drops a live
//     student on load.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "nn/kernels.h"
#include "nn/kernels_f32.h"
#include "obs/metrics.h"
#include "util/thread_pool.h"

namespace dace::core {
namespace {

using TierMode = DaceEstimator::TierMode;
using nn::kernel::Precision;

struct TierCounters {
  uint64_t requests, student, escalated, teacher;

  static TierCounters Take() {
    obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
    return {r->GetCounter("predict.tier.requests")->Value(),
            r->GetCounter("predict.tier.student")->Value(),
            r->GetCounter("predict.tier.escalated")->Value(),
            r->GetCounter("predict.tier.teacher")->Value()};
  }

  TierCounters Delta(const TierCounters& before) const {
    return {requests - before.requests, student - before.student,
            escalated - before.escalated, teacher - before.teacher};
  }
};

class TieredServingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const engine::Database db = engine::BuildImdbLike(17);
    train_plans_ = engine::GenerateLabeledPlans(
        db, engine::MachineM1(), engine::WorkloadKind::kComplex, 64, 3);
    eval_plans_ = engine::GenerateLabeledPlans(
        db, engine::MachineM1(), engine::WorkloadKind::kComplex, 48, 5);
    DaceConfig config;
    config.epochs = 1;
    estimator_ = DaceEstimator(config);
    estimator_.Train(train_plans_);
    distill_stats_ = estimator_.Distill(train_plans_);
    estimator_.set_prediction_cache_capacity(0);
    // Bitwise f64 assertions must not inherit DACE_PRECISION from the
    // environment; tests that want i8 opt in explicitly.
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

  std::vector<double> Predict(const std::vector<plan::QueryPlan>& batch,
                              TierMode mode) {
    estimator_.set_tier_mode(mode);
    estimator_.set_prediction_cache_capacity(0);
    return estimator_.PredictBatchMs(Ptrs(batch));
  }

  static double MedianQError(const std::vector<double>& preds,
                             const std::vector<plan::QueryPlan>& plans) {
    std::vector<double> q;
    for (size_t i = 0; i < plans.size(); ++i) {
      const double actual = plans[i].node(plans[i].root()).actual_time_ms;
      if (actual <= 0.0 || preds[i] <= 0.0) continue;
      q.push_back(std::max(preds[i] / actual, actual / preds[i]));
    }
    std::sort(q.begin(), q.end());
    return q[q.size() / 2];
  }

  std::vector<plan::QueryPlan> train_plans_;
  std::vector<plan::QueryPlan> eval_plans_;
  DaceEstimator estimator_;
  StudentTrainStats distill_stats_;
  const nn::kernel::Isa original_isa_ = nn::kernel::ActiveIsa();
  const nn::kernel::Precision original_precision_ =
      nn::kernel::ActivePrecision();
};

TEST_F(TieredServingTest, DistillProducesFiniteStatsAndGateGauges) {
  EXPECT_EQ(train_plans_.size(), distill_stats_.num_rows);
  EXPECT_GT(distill_stats_.epochs, 0);
  EXPECT_TRUE(std::isfinite(distill_stats_.final_loss));
  obs::MetricsRegistry* r = obs::MetricsRegistry::Default();
  const double threshold = r->GetGauge("serve.tier.gate.threshold")->Value();
  const double q_bound = r->GetGauge("serve.tier.gate.q_bound")->Value();
  EXPECT_TRUE(std::isfinite(threshold));
  EXPECT_GE(q_bound, 0.0);
  // The threshold is a residual quantile PLUS the quantization bound, so it
  // can never sit below the bound itself.
  EXPECT_GE(threshold, q_bound);
}

// The student tier must not depend on the host ISA or DACE_KERNELS: at i8
// the kernel table is bit-identical scalar vs AVX2, and the f64 student
// forward is plain scalar code. Sweep every (precision, isa) combination and
// require bitwise-stable answers within each precision.
TEST_F(TieredServingTest, StudentTierBitIdenticalAcrossIsaModes) {
  for (nn::kernel::Precision prec :
       {nn::kernel::Precision::kI8, nn::kernel::Precision::kF64}) {
    nn::kernel::SetPrecision(prec);
    SCOPED_TRACE(nn::kernel::PrecisionName(prec));
    nn::kernel::SetIsa(nn::kernel::Isa::kScalar);
    const std::vector<double> scalar_out =
        Predict(eval_plans_, TierMode::kStudentOnly);
    if (!nn::kernel::HasAvx2()) continue;
    nn::kernel::SetIsa(nn::kernel::Isa::kAvx2);
    const std::vector<double> avx2_out =
        Predict(eval_plans_, TierMode::kStudentOnly);
    ASSERT_EQ(scalar_out.size(), avx2_out.size());
    for (size_t i = 0; i < scalar_out.size(); ++i) {
      EXPECT_EQ(scalar_out[i], avx2_out[i]) << "plan " << i;
    }
  }
}

// Under kAuto every answer is either the student's or — when the gate
// escalates — EXACTLY the teacher's. At pinned f64 the teacher path is
// bit-identical between batch and per-plan serving, so escalated answers
// must match the teacher-only reference bit-for-bit, and the escalated
// count from the counters must equal the number of teacher-valued answers.
TEST_F(TieredServingTest, EscalatedAnswersBitIdenticalToTeacherOnly) {
  const std::vector<double> teacher = Predict(eval_plans_, TierMode::kTeacherOnly);
  const std::vector<double> student =
      Predict(eval_plans_, TierMode::kStudentOnly);
  const TierCounters before = TierCounters::Take();
  const std::vector<double> tiered = Predict(eval_plans_, TierMode::kAuto);
  const TierCounters d = TierCounters::Take().Delta(before);
  ASSERT_EQ(teacher.size(), tiered.size());
  size_t escalated = 0;
  for (size_t i = 0; i < tiered.size(); ++i) {
    if (tiered[i] == student[i]) continue;  // student-served
    EXPECT_EQ(teacher[i], tiered[i]) << "plan " << i
                                     << ": neither student nor teacher value";
    ++escalated;
  }
  EXPECT_EQ(escalated, d.escalated);
  EXPECT_EQ(eval_plans_.size() - escalated, d.student);
}

// Exact reconciliation across modes, batch shapes, and cache states:
// student + escalated == requests after every call, and teacher-only
// serving routes everything through predict.tier.teacher instead.
TEST_F(TieredServingTest, TierCountersReconcileExactly) {
  for (TierMode mode : {TierMode::kAuto, TierMode::kStudentOnly}) {
    estimator_.set_tier_mode(mode);
    for (size_t cache_cap : {size_t{0}, size_t{32}}) {
      estimator_.set_prediction_cache_capacity(cache_cap);
      for (size_t batch : {size_t{1}, size_t{7}, size_t{48}}) {
        const TierCounters before = TierCounters::Take();
        std::vector<plan::QueryPlan> b(eval_plans_.begin(),
                                       eval_plans_.begin() + batch);
        (void)estimator_.PredictBatchMs(Ptrs(b));
        const TierCounters d = TierCounters::Take().Delta(before);
        EXPECT_EQ(d.requests, d.student + d.escalated)
            << "mode " << static_cast<int>(mode) << " cache " << cache_cap
            << " batch " << batch;
        EXPECT_EQ(0u, d.teacher);
        if (mode == TierMode::kStudentOnly) {
          EXPECT_EQ(0u, d.escalated);
        }
      }
    }
  }
  // Teacher-only: no gate requests at all, everything on the teacher lane.
  estimator_.set_tier_mode(TierMode::kTeacherOnly);
  estimator_.set_prediction_cache_capacity(0);
  const TierCounters before = TierCounters::Take();
  (void)estimator_.PredictBatchMs(Ptrs(eval_plans_));
  const TierCounters d = TierCounters::Take().Delta(before);
  EXPECT_EQ(0u, d.requests);
  EXPECT_EQ(0u, d.student);
  EXPECT_EQ(0u, d.escalated);
  EXPECT_EQ(eval_plans_.size(), d.teacher);
}

// A serve-stress-shaped soak: many small overlapping batches with the cache
// on, i8 active (so escalations go to the packed teacher) — the
// reconciliation identity must hold over the aggregate, and cache hits must
// never enter the gate.
TEST_F(TieredServingTest, CountersReconcileUnderStress) {
  nn::kernel::SetPrecision(nn::kernel::Precision::kI8);
  estimator_.set_tier_mode(TierMode::kAuto);
  estimator_.set_prediction_cache_capacity(64);
  const TierCounters before = TierCounters::Take();
  uint64_t issued = 0;
  for (int round = 0; round < 25; ++round) {
    const size_t lo = static_cast<size_t>(round * 3) % eval_plans_.size();
    const size_t hi = std::min(lo + 11, eval_plans_.size());
    std::vector<plan::QueryPlan> b(eval_plans_.begin() + lo,
                                   eval_plans_.begin() + hi);
    (void)estimator_.PredictBatchMs(Ptrs(b));
    issued += b.size();
  }
  const TierCounters d = TierCounters::Take().Delta(before);
  EXPECT_EQ(d.requests, d.student + d.escalated);
  // The cache absorbed repeats: fewer gate requests than issued plans.
  EXPECT_LT(d.requests, issued);
  EXPECT_GT(d.student, 0u);
  estimator_.set_prediction_cache_capacity(0);
}

// The student tier runs a miss set on the calling thread below
// kStudentFanOutMinPlans and fans it out over the pool from there on.
// Either way an answer depends only on its plan: at i8, kAuto (student
// answers plus teacher escalations) gives the same bits on a 1-thread and a
// 4-thread pool for batches on both sides of the threshold, and the tier
// counters reconcile on each.
TEST_F(TieredServingTest, PoolSizeBitIdenticalAcrossStudentFanOutThreshold) {
  nn::kernel::SetPrecision(Precision::kI8);
  constexpr size_t kMin = DaceEstimator::kStudentFanOutMinPlans;
  ASSERT_LT(kMin, eval_plans_.size());
  ThreadPool one(1);
  ThreadPool four(4);
  for (const size_t batch : {size_t{1}, kMin - 1, kMin, eval_plans_.size()}) {
    SCOPED_TRACE("batch " + std::to_string(batch));
    const std::vector<plan::QueryPlan> b(eval_plans_.begin(),
                                         eval_plans_.begin() + batch);
    std::vector<std::vector<double>> outs;
    for (ThreadPool* pool : {&one, &four}) {
      estimator_.set_thread_pool(pool);
      const TierCounters before = TierCounters::Take();
      outs.push_back(Predict(b, TierMode::kAuto));
      const TierCounters d = TierCounters::Take().Delta(before);
      EXPECT_EQ(batch, d.requests);
      EXPECT_EQ(d.requests, d.student + d.escalated);
    }
    estimator_.set_thread_pool(nullptr);
    ASSERT_EQ(outs[0].size(), batch);
    ASSERT_EQ(outs[1].size(), batch);
    for (size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(outs[0][i], outs[1][i]) << "plan " << i;
    }
  }
}

// The whole point of the tier: accuracy must not regress past the budget.
// Median q-error of tiered serving on a held-out fig05-style workload stays
// within 1.05× of teacher-only serving (both at i8, the serving precision).
TEST_F(TieredServingTest, TieredQErrorWithinBudgetOfTeacherOnly) {
  nn::kernel::SetPrecision(nn::kernel::Precision::kI8);
  const std::vector<double> teacher =
      Predict(eval_plans_, TierMode::kTeacherOnly);
  const std::vector<double> tiered = Predict(eval_plans_, TierMode::kAuto);
  const double teacher_q = MedianQError(teacher, eval_plans_);
  const double tiered_q = MedianQError(tiered, eval_plans_);
  EXPECT_LE(tiered_q, 1.05 * teacher_q)
      << "teacher median q-error " << teacher_q << ", tiered " << tiered_q;
}

// PredictMs (the single-plan interactive path) stays teacher-only by
// contract, whatever the tier mode says.
TEST_F(TieredServingTest, PredictMsStaysTeacherOnly) {
  estimator_.set_tier_mode(TierMode::kStudentOnly);
  const TierCounters before = TierCounters::Take();
  const double single = estimator_.PredictMs(eval_plans_[0]);
  const TierCounters d = TierCounters::Take().Delta(before);
  EXPECT_EQ(0u, d.requests);
  EXPECT_EQ(0u, d.student);
  estimator_.set_tier_mode(TierMode::kTeacherOnly);
  const std::vector<double> batch =
      Predict({eval_plans_[0]}, TierMode::kTeacherOnly);
  EXPECT_EQ(single, batch[0]);
}

// Retraining or fine-tuning the teacher invalidates the student (it was
// distilled from weights that no longer exist): the tier must fall back to
// teacher-only serving until the next Distill.
TEST_F(TieredServingTest, TeacherMutationDropsStudent) {
  estimator_.FineTune(train_plans_);
  estimator_.set_tier_mode(TierMode::kAuto);
  estimator_.set_prediction_cache_capacity(0);
  const TierCounters before = TierCounters::Take();
  (void)estimator_.PredictBatchMs(Ptrs(eval_plans_));
  const TierCounters d = TierCounters::Take().Delta(before);
  EXPECT_EQ(0u, d.requests);
  EXPECT_EQ(eval_plans_.size(), d.teacher);
  // Distilling again restores the student tier.
  (void)estimator_.Distill(train_plans_);
  estimator_.set_prediction_cache_capacity(0);
  const TierCounters before2 = TierCounters::Take();
  (void)estimator_.PredictBatchMs(Ptrs(eval_plans_));
  const TierCounters d2 = TierCounters::Take().Delta(before2);
  EXPECT_EQ(eval_plans_.size(), d2.requests);
}

// The student rides the checkpoint as the optional trailing section: a
// loaded estimator must serve the student tier with answers bit-identical
// to the estimator that saved it, in both serving precisions.
TEST_F(TieredServingTest, StudentRoundTripsThroughCheckpoint) {
  const std::string path = ::testing::TempDir() + "/tiered_student.ckpt";
  ASSERT_TRUE(estimator_.SaveToFile(path).ok());
  DaceConfig config;
  config.epochs = 1;
  DaceEstimator loaded(config);
  ASSERT_TRUE(loaded.LoadFromFile(path).ok());
  loaded.set_prediction_cache_capacity(0);
  for (nn::kernel::Precision prec :
       {nn::kernel::Precision::kF64, nn::kernel::Precision::kI8}) {
    nn::kernel::SetPrecision(prec);
    SCOPED_TRACE(nn::kernel::PrecisionName(prec));
    estimator_.set_tier_mode(TierMode::kStudentOnly);
    loaded.set_tier_mode(TierMode::kStudentOnly);
    const std::vector<double> original =
        Predict(eval_plans_, TierMode::kStudentOnly);
    const std::vector<double> reloaded =
        loaded.PredictBatchMs(Ptrs(eval_plans_));
    ASSERT_EQ(original.size(), reloaded.size());
    for (size_t i = 0; i < original.size(); ++i) {
      EXPECT_EQ(original[i], reloaded[i]) << "plan " << i;
    }
  }
  std::remove(path.c_str());
}

// A checkpoint written WITHOUT a student (pre-distillation weights) must
// still load into an estimator that currently has one — and drop it, since
// the checkpoint's teacher is not the teacher the student was distilled
// from.
TEST_F(TieredServingTest, StudentFreeCheckpointDropsLiveStudent) {
  const std::string path = ::testing::TempDir() + "/tiered_no_student.ckpt";
  DaceConfig config;
  config.epochs = 1;
  DaceEstimator plain(config);
  plain.Train(train_plans_);
  ASSERT_TRUE(plain.SaveToFile(path).ok());
  ASSERT_TRUE(estimator_.LoadFromFile(path).ok());
  estimator_.set_tier_mode(TierMode::kAuto);
  estimator_.set_prediction_cache_capacity(0);
  const TierCounters before = TierCounters::Take();
  (void)estimator_.PredictBatchMs(Ptrs(eval_plans_));
  const TierCounters d = TierCounters::Take().Delta(before);
  EXPECT_EQ(0u, d.requests);
  EXPECT_EQ(eval_plans_.size(), d.teacher);
  std::remove(path.c_str());
}

TEST_F(TieredServingTest, SubPlansBatchMatchesPerPlanBitwise) {
  // The batched all-rows path is teacher-only whatever the tier mode, and a
  // plan's rows do not depend on the plans batched with it: at f64 they are
  // bit-identical to PredictSubPlansMs row for row; at f32 (packed) to the
  // plan's rows when it is batched alone.
  estimator_.set_tier_mode(TierMode::kAuto);
  for (Precision precision : {Precision::kF64, Precision::kF32}) {
    nn::kernel::SetPrecision(precision);
    SCOPED_TRACE(nn::kernel::PrecisionName(precision));
    const std::vector<std::vector<double>> batched =
        estimator_.PredictSubPlansBatchMs(Ptrs(eval_plans_));
    ASSERT_EQ(eval_plans_.size(), batched.size());
    for (size_t i = 0; i < eval_plans_.size(); ++i) {
      const std::vector<plan::QueryPlan> alone = {eval_plans_[i]};
      const std::vector<double> reference =
          precision == Precision::kF64
              ? estimator_.PredictSubPlansMs(eval_plans_[i])
              : estimator_.PredictSubPlansBatchMs(Ptrs(alone))[0];
      ASSERT_EQ(reference.size(), batched[i].size()) << "plan " << i;
      for (size_t j = 0; j < reference.size(); ++j) {
        EXPECT_EQ(reference[j], batched[i][j])
            << "plan " << i << " row " << j;
      }
    }
  }
}

// The f32 all-rows packed path obeys the same q-error budget as the
// root-only packed path (DESIGN §13) on every sub-plan row, and its root
// row is bit-identical to the root-only answer of the same f32 forward.
TEST_F(TieredServingTest, SubPlansBatchF32WithinBudget) {
  estimator_.set_tier_mode(TierMode::kTeacherOnly);
  const std::vector<std::vector<double>> f64_rows =
      estimator_.PredictSubPlansBatchMs(Ptrs(eval_plans_));
  nn::kernel::SetPrecision(Precision::kF32);
  const std::vector<std::vector<double>> f32_rows =
      estimator_.PredictSubPlansBatchMs(Ptrs(eval_plans_));
  ASSERT_EQ(f64_rows.size(), f32_rows.size());
  for (size_t i = 0; i < f64_rows.size(); ++i) {
    ASSERT_EQ(f64_rows[i].size(), f32_rows[i].size()) << "plan " << i;
    for (size_t j = 0; j < f64_rows[i].size(); ++j) {
      ASSERT_GT(f64_rows[i][j], 0.0);
      ASSERT_GT(f32_rows[i][j], 0.0);
      const double q = std::max(f64_rows[i][j] / f32_rows[i][j],
                                f32_rows[i][j] / f64_rows[i][j]);
      EXPECT_LT(q, 1.001) << "plan " << i << " row " << j;
    }
  }
  for (nn::kernel::Isa isa :
       {nn::kernel::Isa::kScalar, nn::kernel::Isa::kAvx2}) {
    if (isa == nn::kernel::Isa::kAvx2 && !nn::kernel::HasAvx2()) continue;
    nn::kernel::SetIsa(isa);
    SCOPED_TRACE(nn::kernel::IsaName(isa));
    const std::vector<std::vector<double>> rows =
        estimator_.PredictSubPlansBatchMs(Ptrs(eval_plans_));
    const std::vector<double> roots =
        estimator_.PredictBatchMs(Ptrs(eval_plans_));
    ASSERT_EQ(roots.size(), rows.size());
    for (size_t i = 0; i < roots.size(); ++i) {
      EXPECT_EQ(roots[i], rows[i][0]) << "plan " << i;
    }
  }
}

}  // namespace
}  // namespace dace::core
