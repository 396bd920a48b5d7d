// Differential test for the serving layer: for every plan in a generated
// corpus, the coalesced service path returns the BIT-IDENTICAL double a
// direct PredictBatchMs call on the same snapshot produces — under both
// kernel ISAs (scalar always; AVX2 when the machine has it), at f64 (where
// PredictMs must agree too) and on the packed f32 path, with the prediction
// cache disabled and enabled, sequentially and under concurrent submission
// (where requests from different threads coalesce into mixed micro-batches
// and packs). Coalescing may only change who computes, never what is
// computed.

#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "gtest/gtest.h"
#include "nn/kernels.h"
#include "nn/kernels_f32.h"
#include "serve/model_registry.h"
#include "serve/service.h"

namespace dace::serve {
namespace {

class ServeDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const engine::Database db = engine::BuildTpchLike(42);
    plans_ = engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                          engine::WorkloadKind::kComplex, 32, 7);
    core::DaceConfig config;
    config.epochs = 1;
    estimator_ = std::make_shared<core::DaceEstimator>(config);
    estimator_->Train(plans_);
    ASSERT_TRUE(registry_.Register("tenant", estimator_).ok());
  }

  void TearDown() override {
    nn::kernel::SetIsa(original_isa_);
    nn::kernel::SetPrecision(original_precision_);
  }

  // All plans through the service, `threads` concurrent submitters each
  // owning a disjoint slice (threads == 1 degrades to sequential).
  std::vector<double> ServeAll(EstimatorService* service, int threads) {
    std::vector<double> out(plans_.size(), 0.0);
    std::vector<Status> errors(static_cast<size_t>(threads));
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        for (size_t i = static_cast<size_t>(t); i < plans_.size();
             i += static_cast<size_t>(threads)) {
          auto result = service->Estimate("tenant", plans_[i]);
          if (!result.ok()) {
            errors[static_cast<size_t>(t)] = result.status();
            return;
          }
          out[i] = *result;
        }
      });
    }
    for (std::thread& w : workers) w.join();
    for (const Status& s : errors) EXPECT_TRUE(s.ok()) << s.ToString();
    return out;
  }

  // The precision is pinned so the suite never inherits DACE_PRECISION. The
  // reference is one cache-off PredictBatchMs over the whole corpus; at f64
  // it must also equal per-plan PredictMs. PredictMs is always f64, so at
  // f32 there is no per-plan twin: the packed f32 answers are only
  // q-error-bounded against f64 (asserted by PackedInferenceTest), but they
  // must not depend on how the service coalesces requests into packs.
  void RunDifferential(nn::kernel::Isa isa, nn::kernel::Precision precision) {
    nn::kernel::SetIsa(isa);
    nn::kernel::SetPrecision(precision);
    SCOPED_TRACE(std::string("isa=") + nn::kernel::IsaName(isa) +
                 " precision=" + nn::kernel::PrecisionName(precision));

    estimator_->set_prediction_cache_capacity(0);
    const std::vector<double> direct = estimator_->PredictBatchMs(plans_);
    ASSERT_EQ(plans_.size(), direct.size());
    if (precision == nn::kernel::Precision::kF64) {
      for (size_t i = 0; i < direct.size(); ++i) {
        EXPECT_EQ(estimator_->PredictMs(plans_[i]), direct[i]) << "plan " << i;
      }
    }

    // The service (and its drainers) is created inside the ISA phase so the
    // coalesced batches run on the ISA under test.
    ServiceConfig config;
    config.max_batch = 8;
    config.max_wait_us = 2000;

    // Cache disabled: sequential, then coalesced-concurrent submission.
    {
      EstimatorService service(&registry_, config);
      const std::vector<double> sequential = ServeAll(&service, 1);
      const std::vector<double> concurrent = ServeAll(&service, 8);
      for (size_t i = 0; i < plans_.size(); ++i) {
        EXPECT_EQ(direct[i], sequential[i]) << "sequential plan " << i;
        EXPECT_EQ(direct[i], concurrent[i]) << "concurrent plan " << i;
      }
    }

    // Cache enabled: the fill pass and the all-hits pass both match the
    // cold reference bit-for-bit (resetting capacity also drops any entries
    // computed under the other ISA — dot/masked_exp reductions differ
    // between ISAs, so cross-ISA reuse would be a real mismatch).
    estimator_->set_prediction_cache_capacity(256);
    {
      EstimatorService service(&registry_, config);
      const std::vector<double> fill = ServeAll(&service, 8);
      const std::vector<double> hits = ServeAll(&service, 8);
      for (size_t i = 0; i < plans_.size(); ++i) {
        EXPECT_EQ(direct[i], fill[i]) << "cache-fill plan " << i;
        EXPECT_EQ(direct[i], hits[i]) << "cache-hit plan " << i;
      }
      const auto stats = estimator_->prediction_cache_stats();
      EXPECT_GE(stats.hits, plans_.size());  // second pass served from cache
    }
  }

  std::vector<plan::QueryPlan> plans_;
  std::shared_ptr<core::DaceEstimator> estimator_;
  ModelRegistry registry_;
  const nn::kernel::Isa original_isa_ = nn::kernel::ActiveIsa();
  const nn::kernel::Precision original_precision_ =
      nn::kernel::ActivePrecision();
};

TEST_F(ServeDifferentialTest, ScalarKernels) {
  RunDifferential(nn::kernel::Isa::kScalar, nn::kernel::Precision::kF64);
}

TEST_F(ServeDifferentialTest, Avx2Kernels) {
  if (!nn::kernel::HasAvx2()) {
    GTEST_SKIP() << "AVX2 not available on this machine/build";
  }
  RunDifferential(nn::kernel::Isa::kAvx2, nn::kernel::Precision::kF64);
}

// Same differential on the packed f32 path, which prices every cache miss —
// a lone miss of a 1-request micro-batch included — so packs of every size
// fan out across the pool.
TEST_F(ServeDifferentialTest, PackedF32ScalarKernels) {
  RunDifferential(nn::kernel::Isa::kScalar, nn::kernel::Precision::kF32);
}

TEST_F(ServeDifferentialTest, PackedF32Avx2Kernels) {
  if (!nn::kernel::HasAvx2()) {
    GTEST_SKIP() << "AVX2 not available on this machine/build";
  }
  RunDifferential(nn::kernel::Isa::kAvx2, nn::kernel::Precision::kF32);
}

// Unknown tenants are refused with a typed error before any queueing.
TEST_F(ServeDifferentialTest, UnknownTenantIsNotFound) {
  EstimatorService service(&registry_);
  const auto result = service.Estimate("no-such-tenant", plans_[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

// After Shutdown every new request gets kUnavailable, typed, not a hang.
TEST_F(ServeDifferentialTest, ShutdownRefusesNewRequests) {
  EstimatorService service(&registry_);
  ASSERT_TRUE(service.Estimate("tenant", plans_[0]).ok());
  service.Shutdown();
  const auto result = service.Estimate("tenant", plans_[0]);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kUnavailable);
}

}  // namespace
}  // namespace dace::serve
