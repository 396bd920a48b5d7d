// Corruption fuzz for the transactional checkpoint subsystem: no input to
// LoadFromFile — truncated at any byte, bit-flipped anywhere, carrying
// trailing garbage, or saved under a different DaceConfig — may abort the
// process or leave the target estimator observably changed behind a non-OK
// Status. "Observably changed" is checked bit-for-bit: cache-bypassing
// predictions (PredictSubPlansMs) and cache-served predictions (PredictMs,
// including hit accounting) must match the pre-load baseline exactly.

#include "core/checkpoint.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/dace_model.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/machine.h"
#include "util/serialize.h"

namespace dace::core {
namespace {

DaceConfig TinyConfig() {
  DaceConfig config;  // d_model stays kFeatureDim — fixed by featurization
  config.d_k = 16;
  config.d_v = 16;
  config.hidden1 = 16;
  config.hidden2 = 8;
  config.lora_r1 = 4;
  config.lora_r2 = 3;
  config.lora_r3 = 2;
  config.epochs = 1;
  config.finetune_epochs = 1;
  return config;
}

std::vector<plan::QueryPlan> SamplePlans(int count, uint64_t seed) {
  const engine::Database db = engine::BuildImdbLike(42);
  return engine::GenerateLabeledPlans(db, engine::MachineM1(),
                                      engine::WorkloadKind::kComplex, count,
                                      seed);
}

// Per-process: gtest_discover_tests runs every case of a suite as its own
// process, each with its own SetUpTestSuite/TearDownTestSuite over the same
// TempDir(), so a shared file name would let one process's teardown delete
// the checkpoint a sibling is about to load.
std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + std::to_string(getpid()) + "." + name;
}

class CheckpointFuzzTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    plans_ = new std::vector<plan::QueryPlan>(SamplePlans(24, 7));
    probes_ = new std::vector<plan::QueryPlan>(SamplePlans(5, 1234));

    donor_ = new DaceEstimator(TinyConfig());
    donor_->Train(*plans_);
    donor_->FineTune(*plans_);   // checkpoints carry LoRA adapters
    donor_->Distill(*plans_);    // ... and the optional student section
    path_ = new std::string(TempPath("ckpt_fuzz.dace"));
    ASSERT_TRUE(donor_->SaveToFile(*path_).ok());
    blob_ = new std::string();
    ASSERT_TRUE(ReadFileToString(*path_, blob_).ok());

    // The victim is trained on a different seed, so any load that wrongly
    // "succeeds" moves its predictions detectably.
    victim_ = new DaceEstimator(TinyConfig());
    victim_->Train(SamplePlans(24, 99));
    baseline_sub_ = new std::vector<std::vector<double>>();
    baseline_ms_ = new std::vector<double>();
    for (const auto& probe : *probes_) {
      baseline_sub_->push_back(victim_->PredictSubPlansMs(probe));
      baseline_ms_->push_back(victim_->PredictMs(probe));  // primes the cache
    }
  }

  static void TearDownTestSuite() {
    if (path_ != nullptr) std::remove(path_->c_str());
    delete plans_;
    delete probes_;
    delete donor_;
    delete victim_;
    delete path_;
    delete blob_;
    delete baseline_sub_;
    delete baseline_ms_;
  }

  // A failed ASSERT in SetUpTestSuite does not fail any test by itself; fail
  // every case instead of letting it run against a half-built fixture.
  void SetUp() override {
    ASSERT_TRUE(blob_ != nullptr && !blob_->empty() && victim_ != nullptr)
        << "CheckpointFuzzTest suite fixture did not build";
  }

  // Loads `bytes` into the shared victim and asserts: non-OK status, no
  // version bump, bit-identical uncached predictions, and prediction-cache
  // hits that keep serving the exact pre-load values.
  static void ExpectRejectedAndUntouched(const std::string& bytes,
                                         const std::string& what) {
    const std::string path = TempPath("ckpt_mutated.dace");
    ASSERT_TRUE(WriteFileAtomic(path, bytes).ok());
    const uint64_t version_before = victim_->model().weights_version();
    const Status status = victim_->LoadFromFile(path);
    std::remove(path.c_str());
    ASSERT_FALSE(status.ok()) << what;
    EXPECT_EQ(victim_->model().weights_version(), version_before) << what;

    // Ground truth through the cache-bypassing path: the weights and the
    // featurizer are byte-for-byte what they were.
    for (size_t i = 0; i < probes_->size(); ++i) {
      const std::vector<double> sub =
          victim_->PredictSubPlansMs((*probes_)[i]);
      ASSERT_EQ(sub.size(), (*baseline_sub_)[i].size()) << what;
      for (size_t j = 0; j < sub.size(); ++j) {
        ASSERT_EQ(sub[j], (*baseline_sub_)[i][j])
            << what << " probe " << i << " row " << j;
      }
    }
    // Cache path: the entries filled before the failed load are still valid
    // (same weights version) and still serve the identical values as hits.
    const auto stats_before = victim_->prediction_cache_stats();
    for (size_t i = 0; i < probes_->size(); ++i) {
      ASSERT_EQ(victim_->PredictMs((*probes_)[i]), (*baseline_ms_)[i]) << what;
    }
    const auto stats_after = victim_->prediction_cache_stats();
    EXPECT_EQ(stats_after.hits, stats_before.hits + probes_->size()) << what;
    EXPECT_EQ(stats_after.misses, stats_before.misses) << what;
  }

  // The featurizer and model streams back to back, with no checkpoint
  // header or framing.
  static std::string HeaderlessImage(const DaceEstimator& est) {
    ByteWriter w;
    est.featurizer().Serialize(&w);
    est.model().Serialize(&w);
    return std::move(w).TakeBuffer();
  }

  static std::vector<plan::QueryPlan>* plans_;
  static std::vector<plan::QueryPlan>* probes_;
  static DaceEstimator* donor_;
  static DaceEstimator* victim_;
  static std::string* path_;
  static std::string* blob_;
  static std::vector<std::vector<double>>* baseline_sub_;
  static std::vector<double>* baseline_ms_;
};

std::vector<plan::QueryPlan>* CheckpointFuzzTest::plans_ = nullptr;
std::vector<plan::QueryPlan>* CheckpointFuzzTest::probes_ = nullptr;
DaceEstimator* CheckpointFuzzTest::donor_ = nullptr;
DaceEstimator* CheckpointFuzzTest::victim_ = nullptr;
std::string* CheckpointFuzzTest::path_ = nullptr;
std::string* CheckpointFuzzTest::blob_ = nullptr;
std::vector<std::vector<double>>* CheckpointFuzzTest::baseline_sub_ = nullptr;
std::vector<double>* CheckpointFuzzTest::baseline_ms_ = nullptr;

// ------------------------------------------------------------ happy path --

TEST_F(CheckpointFuzzTest, RoundTripIsBitIdentical) {
  DaceEstimator restored(TinyConfig());
  ASSERT_TRUE(restored.LoadFromFile(*path_).ok());
  EXPECT_TRUE(restored.model().lora_attached());
  EXPECT_TRUE(restored.model().has_student());
  for (const auto& probe : *probes_) {
    const auto want = donor_->PredictSubPlansMs(probe);
    const auto got = restored.PredictSubPlansMs(probe);
    ASSERT_EQ(got.size(), want.size());
    for (size_t j = 0; j < got.size(); ++j) EXPECT_EQ(got[j], want[j]);
  }
}

TEST_F(CheckpointFuzzTest, HeaderAndSectionsInspectable) {
  CheckpointHeader header;
  std::vector<CheckpointSection> sections;
  ASSERT_TRUE(InspectCheckpoint(*blob_, &header, &sections).ok());
  EXPECT_EQ(header.format_version, kCheckpointFormatVersion);
  EXPECT_EQ(header.d_k, 16u);
  EXPECT_EQ(header.lora_r3, 2u);
  ASSERT_EQ(sections.size(), 6u);
  const uint32_t want_tags[] = {kSectionFeaturizer, kSectionAttention,
                                kSectionFc1,        kSectionFc2,
                                kSectionFc3,        kSectionStudent};
  for (size_t i = 0; i < sections.size(); ++i) {
    EXPECT_EQ(sections[i].tag, want_tags[i]);
  }
}

TEST_F(CheckpointFuzzTest, SaveLeavesNoTempFilesAndOverwritesAtomically) {
  const std::string path = TempPath("ckpt_overwrite.dace");
  ASSERT_TRUE(donor_->SaveToFile(path).ok());
  ASSERT_TRUE(victim_->SaveToFile(path).ok());  // replace donor's bytes
  DaceEstimator restored(TinyConfig());
  ASSERT_TRUE(restored.LoadFromFile(path).ok());
  for (size_t i = 0; i < probes_->size(); ++i) {
    EXPECT_EQ(restored.PredictSubPlansMs((*probes_)[i])[0],
              (*baseline_sub_)[i][0]);
  }
  std::remove(path.c_str());
  std::string leftover;
  EXPECT_FALSE(
      ReadFileToString(path + ".tmp." + std::to_string(getpid()), &leftover)
          .ok())
      << "temp file leaked";
}

TEST_F(CheckpointFuzzTest, SaveToUnwritablePathFails) {
  DaceConfig config = TinyConfig();
  DaceEstimator est(config);
  EXPECT_FALSE(est.SaveToFile("/nonexistent-dir/sub/ckpt.dace").ok());
}

// ------------------------------------------------------------ corruption --

TEST_F(CheckpointFuzzTest, TruncationAtSectionBoundariesRejected) {
  CheckpointHeader header;
  std::vector<CheckpointSection> sections;
  ASSERT_TRUE(InspectCheckpoint(*blob_, &header, &sections).ok());
  std::vector<size_t> cuts = {0, 1, 7, 8, kCheckpointHeaderSize / 2,
                              kCheckpointHeaderSize};
  for (const CheckpointSection& s : sections) {
    cuts.push_back(s.payload_offset - 12);  // frame start
    cuts.push_back(s.payload_offset - 8);   // mid tag/length
    cuts.push_back(s.payload_offset);       // payload start
    cuts.push_back(s.payload_offset + static_cast<size_t>(s.payload_length));
  }
  cuts.push_back(blob_->size() - kCheckpointTrailerSize);
  cuts.push_back(blob_->size() - 4);
  cuts.push_back(blob_->size() - 1);
  for (size_t cut : cuts) {
    ASSERT_LT(cut, blob_->size());
    ExpectRejectedAndUntouched(blob_->substr(0, cut),
                               "truncated at boundary " + std::to_string(cut));
  }
}

TEST_F(CheckpointFuzzTest, TruncationSweepRejected) {
  const size_t step = std::max<size_t>(1, blob_->size() / 61);
  for (size_t cut = 0; cut < blob_->size(); cut += step) {
    ExpectRejectedAndUntouched(blob_->substr(0, cut),
                               "truncated at offset " + std::to_string(cut));
  }
}

TEST_F(CheckpointFuzzTest, HeaderBitFlipsRejected) {
  for (size_t off = 0; off < kCheckpointHeaderSize; ++off) {
    for (uint8_t bit : {uint8_t{0x01}, uint8_t{0x80}}) {
      std::string mutated = *blob_;
      mutated[off] = static_cast<char>(mutated[off] ^ bit);
      ExpectRejectedAndUntouched(
          mutated, "header bit flip at byte " + std::to_string(off));
    }
  }
}

TEST_F(CheckpointFuzzTest, PayloadAndTrailerBitFlipsRejected) {
  for (size_t off = kCheckpointHeaderSize; off < blob_->size(); off += 97) {
    std::string mutated = *blob_;
    mutated[off] = static_cast<char>(mutated[off] ^ (1u << (off % 8)));
    ExpectRejectedAndUntouched(mutated,
                               "payload bit flip at byte " +
                                   std::to_string(off));
  }
  // Every trailer byte individually: tag and stored checksum.
  for (size_t i = 1; i <= kCheckpointTrailerSize; ++i) {
    const size_t off = blob_->size() - i;
    std::string mutated = *blob_;
    mutated[off] = static_cast<char>(mutated[off] ^ 0x10);
    ExpectRejectedAndUntouched(
        mutated, "trailer bit flip at byte " + std::to_string(off));
  }
}

TEST_F(CheckpointFuzzTest, TrailingGarbageRejected) {
  ExpectRejectedAndUntouched(*blob_ + std::string(1, '\0'),
                             "one trailing zero byte");
  ExpectRejectedAndUntouched(*blob_ + "GARBAGEGARBAGE", "trailing ascii");
  ExpectRejectedAndUntouched(*blob_ + *blob_, "checkpoint doubled");
}

TEST_F(CheckpointFuzzTest, CrossConfigCheckpointRejected) {
  // An untrained estimator saves cleanly — rejection must come from the
  // header fingerprint, long before any weight bytes are interpreted.
  DaceConfig other = TinyConfig();
  other.d_k = 8;
  other.hidden1 = 32;
  DaceEstimator foreign(other);
  const std::string path = TempPath("ckpt_crossconfig.dace");
  ASSERT_TRUE(foreign.SaveToFile(path).ok());
  std::string foreign_blob;
  ASSERT_TRUE(ReadFileToString(path, &foreign_blob).ok());
  std::remove(path.c_str());
  ExpectRejectedAndUntouched(foreign_blob, "cross-config checkpoint");

  // The status itself names the mismatch for the operator.
  DaceEstimator fresh(TinyConfig());
  ASSERT_TRUE(WriteFileAtomic(path, foreign_blob).ok());
  const Status status = fresh.LoadFromFile(path);
  std::remove(path.c_str());
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("d_k"), std::string::npos);
  EXPECT_NE(status.message().find("hidden1"), std::string::npos);
}

TEST_F(CheckpointFuzzTest, LoraRankMismatchRejected) {
  DaceConfig other = TinyConfig();
  other.lora_r1 = 8;
  DaceEstimator foreign(other);
  const std::string path = TempPath("ckpt_rank.dace");
  ASSERT_TRUE(foreign.SaveToFile(path).ok());
  std::string foreign_blob;
  ASSERT_TRUE(ReadFileToString(path, &foreign_blob).ok());
  std::remove(path.c_str());
  ExpectRejectedAndUntouched(foreign_blob, "lora rank mismatch");
}

// ----------------------------------------------------- headerless images --

// The bare featurizer + model byte stream, with no checkpoint header, is not
// a checkpoint: the whole stream is rejected with DataLoss and the victim's
// weights, predictions and cache entries stay exactly as they were.
TEST_F(CheckpointFuzzTest, HeaderlessImageRejected) {
  const std::string headerless = HeaderlessImage(*donor_);
  const uint64_t version_before = victim_->model().weights_version();
  EXPECT_EQ(victim_->LoadFromString(headerless).code(), StatusCode::kDataLoss);
  EXPECT_EQ(victim_->model().weights_version(), version_before);
  ExpectRejectedAndUntouched(headerless, "headerless image");
}

// Every prefix of the headerless stream, and the stream with trailing bytes,
// comes back DataLoss without touching the victim's weights version; a
// sampled set of prefixes also gets the full bit-identity and cache-hit check.
TEST_F(CheckpointFuzzTest, HeaderlessImagePrefixesRejected) {
  const std::string headerless = HeaderlessImage(*donor_);
  const std::string_view image = headerless;
  const uint64_t version_before = victim_->model().weights_version();
  for (size_t cut = 0; cut < image.size(); ++cut) {
    ASSERT_EQ(victim_->LoadFromString(image.substr(0, cut)).code(),
              StatusCode::kDataLoss)
        << "headerless prefix of " << cut << " bytes";
  }
  ASSERT_EQ(victim_->LoadFromString(headerless + "x").code(),
            StatusCode::kDataLoss);
  EXPECT_EQ(victim_->model().weights_version(), version_before);
  const size_t step = std::max<size_t>(1, headerless.size() / 31);
  for (size_t cut = 0; cut < headerless.size(); cut += step) {
    ExpectRejectedAndUntouched(
        headerless.substr(0, cut),
        "headerless truncated at offset " + std::to_string(cut));
  }
  ExpectRejectedAndUntouched(headerless + "x", "headerless trailing garbage");
}

// ------------------------------------------------- API-misuse diagnostics --

using CheckpointDeathTest = CheckpointFuzzTest;

TEST_F(CheckpointDeathTest, PredictBeforeTrainNamesTheMisuse) {
  DaceEstimator est(TinyConfig());
  EXPECT_DEATH((void)est.PredictMs((*probes_)[0]),
               "Train\\(\\) or LoadFromFile\\(\\)");
  EXPECT_DEATH((void)est.PredictBatchMs(std::span(probes_->data(), 1)),
               "Train\\(\\) or LoadFromFile\\(\\)");
}

}  // namespace
}  // namespace dace::core
