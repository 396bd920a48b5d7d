// Prediction cache correctness: LRU eviction at capacity, accurate
// hit/miss/eviction counters, version-bump invalidation, and the end-to-end
// contract on DaceEstimator — a cache hit returns the bit-identical double a
// cold prediction produces, and weight mutations (fine-tune, deserialize)
// invalidate stale entries.

#include "core/prediction_cache.h"

#include <memory>
#include <string>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "featurize/featurize.h"
#include "gtest/gtest.h"
#include "serve/model_registry.h"

namespace dace::core {
namespace {

TEST(PredictionCacheTest, MissThenHit) {
  PredictionCache cache(4);
  double ms = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 42, &ms));
  cache.Insert(1, 42, 3.5);
  ASSERT_TRUE(cache.Lookup(1, 42, &ms));
  EXPECT_EQ(ms, 3.5);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.evictions, 0u);
  EXPECT_EQ(stats.size, 1u);
  EXPECT_EQ(stats.capacity, 4u);
}

TEST(PredictionCacheTest, EvictsLeastRecentlyUsedAtCapacity) {
  PredictionCache cache(3);
  cache.Insert(1, 1, 1.0);
  cache.Insert(1, 2, 2.0);
  cache.Insert(1, 3, 3.0);
  // Touch 1 so 2 becomes the LRU entry.
  double ms = 0.0;
  ASSERT_TRUE(cache.Lookup(1, 1, &ms));
  cache.Insert(1, 4, 4.0);  // evicts 2
  EXPECT_EQ(cache.GetStats().evictions, 1u);
  EXPECT_EQ(cache.GetStats().size, 3u);
  EXPECT_FALSE(cache.Lookup(1, 2, &ms));
  EXPECT_TRUE(cache.Lookup(1, 1, &ms));
  EXPECT_TRUE(cache.Lookup(1, 3, &ms));
  EXPECT_TRUE(cache.Lookup(1, 4, &ms));
}

TEST(PredictionCacheTest, ReinsertRefreshesInsteadOfEvicting) {
  PredictionCache cache(2);
  cache.Insert(1, 1, 1.0);
  cache.Insert(1, 2, 2.0);
  cache.Insert(1, 1, 1.0);  // refresh, not a new entry
  EXPECT_EQ(cache.GetStats().size, 2u);
  EXPECT_EQ(cache.GetStats().evictions, 0u);
  // 2 is now LRU; inserting 3 evicts it.
  cache.Insert(1, 3, 3.0);
  double ms = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 2, &ms));
  EXPECT_TRUE(cache.Lookup(1, 1, &ms));
}

TEST(PredictionCacheTest, VersionBumpFlushesEntries) {
  PredictionCache cache(8);
  cache.Insert(1, 42, 3.5);
  double ms = 0.0;
  // Same fingerprint under a new weights version: stale entry must not hit.
  EXPECT_FALSE(cache.Lookup(2, 42, &ms));
  EXPECT_EQ(cache.GetStats().size, 0u);
  cache.Insert(2, 42, 4.5);
  ASSERT_TRUE(cache.Lookup(2, 42, &ms));
  EXPECT_EQ(ms, 4.5);
}

TEST(PredictionCacheTest, ZeroCapacityDisables) {
  PredictionCache cache(0);
  cache.Insert(1, 42, 3.5);
  double ms = 0.0;
  EXPECT_FALSE(cache.Lookup(1, 42, &ms));
  EXPECT_EQ(cache.GetStats().size, 0u);
  EXPECT_EQ(cache.GetStats().capacity, 0u);
}

TEST(PredictionCacheTest, ResetChangesCapacityAndClearsCounters) {
  PredictionCache cache(2);
  cache.Insert(1, 1, 1.0);
  double ms = 0.0;
  cache.Lookup(1, 1, &ms);
  cache.Reset(16);
  const auto stats = cache.GetStats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.size, 0u);
  EXPECT_EQ(stats.capacity, 16u);
}

// ---- end-to-end through DaceEstimator ------------------------------------

class EstimatorCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    engine::Database db = engine::BuildImdbLike(21);
    plans_ = engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                          engine::WorkloadKind::kSynthetic, 24, 5);
    DaceConfig config;
    config.epochs = 1;
    estimator_ = std::make_unique<DaceEstimator>(config);
    estimator_->Train(plans_);
  }

  std::vector<plan::QueryPlan> plans_;
  std::unique_ptr<DaceEstimator> estimator_;
};

TEST_F(EstimatorCacheTest, HitIsBitIdenticalToColdPrediction) {
  estimator_->set_prediction_cache_capacity(0);  // cold reference
  std::vector<double> cold;
  for (const auto& plan : plans_) cold.push_back(estimator_->PredictMs(plan));

  estimator_->set_prediction_cache_capacity(256);
  std::vector<double> first, second;
  for (const auto& plan : plans_) first.push_back(estimator_->PredictMs(plan));
  for (const auto& plan : plans_) second.push_back(estimator_->PredictMs(plan));

  const auto stats = estimator_->prediction_cache_stats();
  EXPECT_EQ(stats.misses, plans_.size());
  EXPECT_EQ(stats.hits, plans_.size());
  for (size_t i = 0; i < plans_.size(); ++i) {
    EXPECT_EQ(cold[i], first[i]) << i;   // exact: same weights, same math
    EXPECT_EQ(first[i], second[i]) << i;  // hit returns the stored double
  }
}

TEST_F(EstimatorCacheTest, BatchPathSharesTheCache) {
  estimator_->set_prediction_cache_capacity(256);
  const std::vector<double> batch1 = estimator_->PredictBatchMs(plans_);
  const std::vector<double> batch2 = estimator_->PredictBatchMs(plans_);
  const auto stats = estimator_->prediction_cache_stats();
  EXPECT_EQ(stats.misses, plans_.size());
  EXPECT_EQ(stats.hits, plans_.size());
  ASSERT_EQ(batch1.size(), batch2.size());
  for (size_t i = 0; i < batch1.size(); ++i) {
    EXPECT_EQ(batch1[i], batch2[i]) << i;
  }
  // Per-plan path hits entries the batch path filled.
  EXPECT_EQ(estimator_->PredictMs(plans_[0]), batch1[0]);
  EXPECT_EQ(estimator_->prediction_cache_stats().hits, plans_.size() + 1);
}

TEST_F(EstimatorCacheTest, FineTuneInvalidatesCachedPredictions) {
  estimator_->set_prediction_cache_capacity(256);
  const double before = estimator_->PredictMs(plans_[0]);
  estimator_->FineTune(plans_);
  // The weights changed: the next prediction must be recomputed (a miss),
  // not served from the stale entry.
  const auto misses_before = estimator_->prediction_cache_stats().misses;
  const double after = estimator_->PredictMs(plans_[0]);
  EXPECT_EQ(estimator_->prediction_cache_stats().misses, misses_before + 1);
  // And it reflects the new weights (fine-tuning on the training set moves
  // predictions; equality would mean the cache leaked a stale value).
  EXPECT_NE(before, after);
}

TEST_F(EstimatorCacheTest, DeserializeInvalidatesCachedPredictions) {
  estimator_->set_prediction_cache_capacity(256);
  (void)estimator_->PredictMs(plans_[0]);

  // Round-trip through the checkpoint image: same weights, but the load
  // must still bump the version (the bytes could have held anything).
  const std::string image = estimator_->SerializeToString();
  const uint64_t version_before = estimator_->model().weights_version();
  ASSERT_TRUE(estimator_->LoadFromString(image).ok());
  EXPECT_GT(estimator_->model().weights_version(), version_before);

  const auto misses_before = estimator_->prediction_cache_stats().misses;
  (void)estimator_->PredictMs(plans_[0]);
  EXPECT_EQ(estimator_->prediction_cache_stats().misses, misses_before + 1);
}

// Hot swap through the serving registry: the swapped-in snapshot is a fresh
// object whose LoadFromFile bumped its weights_version past a fresh model's,
// so no cache entry can survive the swap; the retired snapshot's cache keeps
// serving bit-identical hits to readers that still hold it.
TEST_F(EstimatorCacheTest, RegistrySwapCannotServeStaleCacheEntries) {
  estimator_->set_prediction_cache_capacity(256);
  estimator_->set_name("cache-swap");

  // A fine-tuned checkpoint whose predictions genuinely differ.
  const std::string path = ::testing::TempDir() + "/cache_swap.dace";
  {
    DaceConfig config;
    config.epochs = 1;
    DaceEstimator tuned(config);
    tuned.set_name("cache-swap");
    tuned.Train(plans_);
    tuned.FineTune(plans_);
    ASSERT_TRUE(tuned.SaveToFile(path).ok());
  }

  serve::ModelRegistry registry;
  std::shared_ptr<DaceEstimator> original = std::move(estimator_);
  ASSERT_TRUE(registry.Register("tenant", original).ok());

  // Warm the original snapshot's cache.
  auto old_snapshot_or = registry.Get("tenant");
  ASSERT_TRUE(old_snapshot_or.ok());
  const serve::ModelRegistry::Snapshot old_snapshot = *old_snapshot_or;
  std::vector<double> warm;
  for (const auto& plan : plans_) warm.push_back(old_snapshot->PredictMs(plan));
  const auto old_stats = old_snapshot->prediction_cache_stats();
  EXPECT_EQ(old_stats.misses, plans_.size());

  ASSERT_TRUE(registry.SwapFromFile("tenant", path).ok());
  auto new_snapshot_or = registry.Get("tenant");
  ASSERT_TRUE(new_snapshot_or.ok());
  const serve::ModelRegistry::Snapshot new_snapshot = *new_snapshot_or;

  // The swap published a distinct object with a bumped weights version: the
  // commit of LoadFromFile advanced it past a freshly constructed model's,
  // so entries keyed to any pre-load version cannot hit.
  EXPECT_NE(new_snapshot.get(), old_snapshot.get());
  const uint64_t fresh_version =
      DaceEstimator(original->model().config()).model().weights_version();
  EXPECT_GT(new_snapshot->model().weights_version(), fresh_version);

  // New snapshot: first pass is all misses (its cache starts empty — no
  // cross-version reuse), and the fine-tuned weights move predictions.
  std::vector<double> swapped;
  for (const auto& plan : plans_) {
    swapped.push_back(new_snapshot->PredictMs(plan));
  }
  const auto new_stats = new_snapshot->prediction_cache_stats();
  EXPECT_EQ(new_stats.misses, plans_.size());
  EXPECT_EQ(new_stats.hits, 0u);
  bool any_changed = false;
  for (size_t i = 0; i < plans_.size(); ++i) {
    if (swapped[i] != warm[i]) any_changed = true;
  }
  EXPECT_TRUE(any_changed) << "swap to fine-tuned weights changed nothing";

  // Old snapshot, still held by this "in-flight reader": every repeat is a
  // cache hit and bit-identical to the pre-swap value.
  for (size_t i = 0; i < plans_.size(); ++i) {
    EXPECT_EQ(old_snapshot->PredictMs(plans_[i]), warm[i]) << i;
  }
  EXPECT_EQ(old_snapshot->prediction_cache_stats().hits,
            old_stats.hits + plans_.size());
}

TEST_F(EstimatorCacheTest, DistinctPlansGetDistinctFingerprints) {
  featurize::FeaturizerConfig fc;
  const featurize::Featurizer& featurizer = estimator_->featurizer();
  std::vector<uint64_t> fps;
  for (const auto& plan : plans_) {
    fps.push_back(featurizer.Fingerprint(plan, fc));
  }
  // Fingerprints are deterministic...
  for (size_t i = 0; i < plans_.size(); ++i) {
    EXPECT_EQ(fps[i], featurizer.Fingerprint(plans_[i], fc));
  }
  // ...and a changed feature input changes the fingerprint.
  plan::QueryPlan mutated = plans_[0];
  mutated.mutable_node(mutated.root()).est_cost += 1.0;
  EXPECT_NE(fps[0], featurizer.Fingerprint(mutated, fc));
  // Config switches that change features are part of the key; alpha is not
  // (it only weights training losses).
  featurize::FeaturizerConfig actual_card = fc;
  actual_card.use_actual_cardinality = true;
  EXPECT_NE(fps[0], featurizer.Fingerprint(plans_[0], actual_card));
  featurize::FeaturizerConfig other_alpha = fc;
  other_alpha.alpha = 0.9;
  EXPECT_EQ(fps[0], featurizer.Fingerprint(plans_[0], other_alpha));
}

}  // namespace
}  // namespace dace::core
