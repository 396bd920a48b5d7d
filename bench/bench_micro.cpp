// Microbenchmarks (google-benchmark): the kernels behind Table II's
// efficiency numbers — featurization, tree-masked attention, end-to-end
// prediction, the plan-tree derivations, and the parallel-engine hot paths
// (blocked matmul, data-parallel training epochs, batched inference with a
// thread-count sweep and a heap-allocation counter).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <map>
#include <new>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "core/dace_model.h"
#include "core/plan_choice.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "engine/corpus.h"
#include "engine/dataset.h"
#include "engine/executor.h"
#include "engine/machine.h"
#include "engine/optimizer.h"
#include "featurize/featurize.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "serve/feedback.h"
#include "util/rng.h"
#include "util/thread_pool.h"

// Process-wide allocation counter: lets the inference benchmarks report
// allocs/iteration and prove the warm batched-forward path is allocation-free.
// GCC flags free() inside the replacement operator delete as a mismatched
// pair — a false positive, since the replacement operator new mallocs.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
static std::atomic<size_t> g_heap_allocs{0};

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

// Alignment-aware overloads: Matrix storage allocates through
// ::operator new(size, std::align_val_t{64}), which must hit the same
// counter or the allocs/plan numbers silently under-count matrix churn.
void* operator new(std::size_t size, std::align_val_t al) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, static_cast<std::size_t>(al), size) == 0) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t al) {
  return ::operator new(size, al);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace dace;

// Shared fixtures built once.
struct Fixture {
  engine::Database db = engine::BuildImdbLike(42);
  std::vector<plan::QueryPlan> plans = engine::GenerateLabeledPlans(
      db, engine::MachineM1(), engine::WorkloadKind::kComplex, 64, 7);
  featurize::Featurizer featurizer;
  core::DaceEstimator estimator;

  Fixture() {
    featurizer.Fit(plans);
    core::DaceConfig config;
    config.epochs = 2;
    estimator = core::DaceEstimator(config);
    estimator.Train(plans);
    estimator.Distill(plans);
    // The fixture is distilled so the student-tier benches have a student to
    // serve, but every TEACHER bench below must pin kTeacherOnly — under the
    // default kAuto the gate would silently route most plans to the student
    // and the teacher timings would measure the wrong path.
    estimator.set_tier_mode(core::DaceEstimator::TierMode::kTeacherOnly);
    // The shared estimator cycles a 64-plan corpus, so the default-on
    // prediction cache would turn every bench below into a hit benchmark.
    // Keep it off here; the cache benchmarks opt in (and restore this).
    estimator.set_prediction_cache_capacity(0);
  }
};

Fixture& GetFixture() {
  static Fixture* fixture = new Fixture();
  return *fixture;
}

void BM_PlanDfsOrder(benchmark::State& state) {
  const auto& plan = GetFixture().plans[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.DfsOrder());
  }
}
BENCHMARK(BM_PlanDfsOrder);

void BM_PlanAncestorClosure(benchmark::State& state) {
  const auto& plan = GetFixture().plans[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan.AncestorClosure());
  }
}
BENCHMARK(BM_PlanAncestorClosure);

void BM_PlanTextRoundTrip(benchmark::State& state) {
  const auto& plan = GetFixture().plans[0];
  for (auto _ : state) {
    benchmark::DoNotOptimize(plan::ParsePlanText(plan.ToText()));
  }
}
BENCHMARK(BM_PlanTextRoundTrip);

void BM_Featurize(benchmark::State& state) {
  Fixture& f = GetFixture();
  featurize::FeaturizerConfig config;
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.featurizer.Featurize(f.plans[i++ % f.plans.size()], config));
  }
}
BENCHMARK(BM_Featurize);

void BM_TreeAttentionForward(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  nn::TreeAttention attention;
  attention.Init(18, 128, 128, &rng);
  nn::Matrix s(n, 18);
  s.FillGaussian(&rng, 1.0);
  nn::Matrix mask(n, n);  // full attention mask
  nn::TreeAttention::Cache cache;  // reused: allocation-free once warm
  nn::Matrix out;
  for (auto _ : state) {
    attention.ForwardCached(s, mask, &cache, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_TreeAttentionForward)->Arg(4)->Arg(16)->Arg(64);

void BM_DacePredict(benchmark::State& state) {
  Fixture& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.estimator.PredictMs(f.plans[i++ % f.plans.size()]));
  }
}
BENCHMARK(BM_DacePredict);

void BM_DaceEncode(benchmark::State& state) {
  Fixture& f = GetFixture();
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        f.estimator.Encode(f.plans[i++ % f.plans.size()]));
  }
}
BENCHMARK(BM_DaceEncode);

void BM_OptimizerBuildPlan(benchmark::State& state) {
  Fixture& f = GetFixture();
  const engine::Optimizer optimizer(&f.db);
  const auto specs =
      engine::GenerateQueries(f.db, engine::WorkloadKind::kComplex, 32, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(optimizer.BuildPlan(specs[i++ % specs.size()]));
  }
}
BENCHMARK(BM_OptimizerBuildPlan);

// The whole candidate set per spec, same specs as above: what a ChoosePlan
// call spends before the scorer runs.
void BM_OptimizerEnumerateCandidates(benchmark::State& state) {
  Fixture& f = GetFixture();
  const engine::Optimizer optimizer(&f.db);
  const auto specs =
      engine::GenerateQueries(f.db, engine::WorkloadKind::kComplex, 32, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimizer.EnumerateCandidates(specs[i++ % specs.size()]));
  }
}
BENCHMARK(BM_OptimizerEnumerateCandidates);

void BM_SimulateExecution(benchmark::State& state) {
  Fixture& f = GetFixture();
  const engine::MachineProfile m1 = engine::MachineM1();
  size_t i = 0;
  for (auto _ : state) {
    plan::QueryPlan plan = f.plans[i++ % f.plans.size()];
    engine::SimulateExecution(f.db, m1, 9, &plan);
    benchmark::DoNotOptimize(plan.node(plan.root()).actual_time_ms);
  }
}
BENCHMARK(BM_SimulateExecution);

// --- Parallel-engine benchmarks -------------------------------------------

// Pre-blocking reference: the straight i/j/k triple loop MatMul used before
// cache tiling, kept here so the speedup of the blocked kernel is measurable
// in one binary.
void NaiveMatMulInto(const nn::Matrix& a, const nn::Matrix& b,
                     nn::Matrix* out) {
  *out = nn::Matrix(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    for (size_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += a(i, k) * b(k, j);
      (*out)(i, j) = acc;
    }
  }
}

void BM_MatMulNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  nn::Matrix a(n, n), b(n, n), out;
  a.FillGaussian(&rng, 1.0);
  b.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    NaiveMatMulInto(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_MatMulNaive)->Arg(64)->Arg(128)->Arg(256);

void BM_MatMulBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  nn::Matrix a(n, n), b(n, n), out;
  a.FillGaussian(&rng, 1.0);
  b.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    nn::MatMul(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_MatMulBlocked)->Arg(64)->Arg(128)->Arg(256);

// ISA-pinned variants of the blocked matmul, so one run measures the SIMD
// speedup directly (the derived record matmul_simd_speedup_n128 in
// BENCH_micro.json is their ratio at n = 128).
struct ScopedIsa {
  explicit ScopedIsa(nn::kernel::Isa isa) : prev(nn::kernel::ActiveIsa()) {
    nn::kernel::SetIsa(isa);
  }
  ~ScopedIsa() { nn::kernel::SetIsa(prev); }
  nn::kernel::Isa prev;
};

void MatMulWithIsa(benchmark::State& state, nn::kernel::Isa isa) {
  const size_t n = static_cast<size_t>(state.range(0));
  ScopedIsa pin(isa);
  Rng rng(2);
  nn::Matrix a(n, n), b(n, n), out;
  a.FillGaussian(&rng, 1.0);
  b.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    nn::MatMul(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}

void BM_MatMulScalar(benchmark::State& state) {
  MatMulWithIsa(state, nn::kernel::Isa::kScalar);
}
BENCHMARK(BM_MatMulScalar)->Arg(128);

void BM_MatMulSimd(benchmark::State& state) {
  if (!nn::kernel::HasAvx2()) {
    state.SkipWithError("AVX2+FMA unavailable on this machine/build");
    return;
  }
  MatMulWithIsa(state, nn::kernel::Isa::kAvx2);
}
BENCHMARK(BM_MatMulSimd)->Arg(128);

void BM_MatMulTransposedB(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  nn::Matrix a(n, n), b(n, n), out;
  a.FillGaussian(&rng, 1.0);
  b.FillGaussian(&rng, 1.0);
  for (auto _ : state) {
    nn::MatMulTransposedB(a, b, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * n));
}
BENCHMARK(BM_MatMulTransposedB)->Arg(64)->Arg(128)->Arg(256);

// One data-parallel training epoch over the fixture corpus; Arg = pool size.
// Results are bit-identical across the sweep (see parallel_determinism_test),
// so the sweep isolates pure wall-clock scaling.
void BM_TrainEpoch(benchmark::State& state) {
  Fixture& f = GetFixture();
  static const std::vector<featurize::PlanFeatures>* features = [] {
    auto* data = new std::vector<featurize::PlanFeatures>();
    featurize::FeaturizerConfig fc;
    for (const auto& plan : GetFixture().plans) {
      data->push_back(GetFixture().featurizer.Featurize(plan, fc));
    }
    return data;
  }();
  ThreadPool pool(static_cast<int>(state.range(0)));
  core::DaceConfig config;
  config.epochs = 1;
  core::DaceModel model(config);
  model.set_thread_pool(&pool);
  (void)f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.Train(*features).final_loss);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(features->size()));
}
BENCHMARK(BM_TrainEpoch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// Batched inference over the fixture corpus; Arg = pool size. Runs through
// the caller-owned-output PredictBatchMsInto so the warm path is measured
// under its strict zero-allocation contract: per-plan scratch (featurization
// matrices, workspaces, student buffers) lives in per-worker BatchScratch,
// per-call index buffers in the estimator's CallScratch, and the output
// vector is reused. At the default f64 each worker prices whole plans, so
// its scratch stops allocating once it has seen the largest plan: pool 1
// must report exactly 0, larger pools a small warm-up transient because the
// dynamic schedule hands each worker different plans.
void BM_PredictBatch(benchmark::State& state) {
  Fixture& f = GetFixture();
  ThreadPool pool(static_cast<int>(state.range(0)));
  f.estimator.set_thread_pool(&pool);
  std::vector<const plan::QueryPlan*> ptrs;
  for (const auto& p : f.plans) ptrs.push_back(&p);
  std::vector<double> out;
  f.estimator.PredictBatchMsInto(ptrs, &out);  // warm-up
  const size_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    f.estimator.PredictBatchMsInto(ptrs, &out);
    benchmark::DoNotOptimize(out.data());
  }
  const size_t allocs = g_heap_allocs.load(std::memory_order_relaxed) -
                        allocs_before;
  f.estimator.set_thread_pool(nullptr);  // pool dies with this benchmark
  state.counters["allocs/plan"] = benchmark::Counter(
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(f.plans.size())));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.plans.size()));
}
BENCHMARK(BM_PredictBatch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

// RAII pin for the inference precision, mirroring ScopedIsa above.
struct ScopedPrecision {
  explicit ScopedPrecision(nn::kernel::Precision p)
      : prev(nn::kernel::ActivePrecision()) {
    nn::kernel::SetPrecision(p);
  }
  ~ScopedPrecision() { nn::kernel::SetPrecision(prev); }
  nn::kernel::Precision prev;
};

// Serving path with the prediction cache disabled: every call pays
// fingerprint + featurization + forward. Pinned to f64, where teacher misses
// run the per-plan reference forward — this is the seed reference the
// packed record is measured against, and also the baseline for
// predict_cache_hit_speedup.
void BM_PredictBatchCold(benchmark::State& state) {
  Fixture& f = GetFixture();
  ScopedPrecision pin(nn::kernel::Precision::kF64);
  ThreadPool pool(1);
  f.estimator.set_thread_pool(&pool);
  f.estimator.set_prediction_cache_capacity(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.estimator.PredictBatchMs(f.plans));
  }
  f.estimator.set_thread_pool(nullptr);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.plans.size()));
}
BENCHMARK(BM_PredictBatchCold)->Unit(benchmark::kMillisecond);

// The packed f32 teacher path: same workload, pool and cache setup as
// BM_PredictBatchCold, pinned to f32 (every teacher miss is packed), so
// packed_f32_vs_perplan_speedup is a pure path ratio.
void BM_PredictBatchPackedF32(benchmark::State& state) {
  Fixture& f = GetFixture();
  ScopedPrecision pin(nn::kernel::Precision::kF32);
  ThreadPool pool(1);
  f.estimator.set_thread_pool(&pool);
  f.estimator.set_prediction_cache_capacity(0);
  benchmark::DoNotOptimize(f.estimator.PredictBatchMs(f.plans));  // warm-up
  const size_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.estimator.PredictBatchMs(f.plans));
  }
  const size_t allocs = g_heap_allocs.load(std::memory_order_relaxed) -
                        allocs_before;
  f.estimator.set_thread_pool(nullptr);
  state.counters["allocs/plan"] = benchmark::Counter(
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(f.plans.size())));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.plans.size()));
}
BENCHMARK(BM_PredictBatchPackedF32)->Unit(benchmark::kMillisecond);

// RAII pin for the serving tier, mirroring ScopedPrecision.
struct ScopedTier {
  explicit ScopedTier(core::DaceEstimator* est,
                      core::DaceEstimator::TierMode mode)
      : estimator(est), prev(est->tier_mode()) {
    est->set_tier_mode(mode);
  }
  ~ScopedTier() { estimator->set_tier_mode(prev); }
  core::DaceEstimator* estimator;
  core::DaceEstimator::TierMode prev;
};

// The microsecond serving tier: every plan answered by the distilled student
// through the int8 kernel path, no gate, no teacher. Same workload, pool and
// cache setup as the packed teacher benches, so student_vs_teacher_speedup
// is a pure path ratio against BM_PredictBatchPackedF32. Warm path must also
// be allocation-free.
void BM_PredictBatchStudentI8(benchmark::State& state) {
  Fixture& f = GetFixture();
  ScopedPrecision pin(nn::kernel::Precision::kI8);
  ScopedTier tier(&f.estimator, core::DaceEstimator::TierMode::kStudentOnly);
  ThreadPool pool(1);
  f.estimator.set_thread_pool(&pool);
  f.estimator.set_prediction_cache_capacity(0);
  std::vector<const plan::QueryPlan*> ptrs;
  for (const auto& p : f.plans) ptrs.push_back(&p);
  std::vector<double> out;
  f.estimator.PredictBatchMsInto(ptrs, &out);  // warm-up
  const size_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    f.estimator.PredictBatchMsInto(ptrs, &out);
    benchmark::DoNotOptimize(out.data());
  }
  const size_t allocs = g_heap_allocs.load(std::memory_order_relaxed) -
                        allocs_before;
  f.estimator.set_thread_pool(nullptr);
  state.counters["allocs/plan"] = benchmark::Counter(
      static_cast<double>(allocs) /
      (static_cast<double>(state.iterations()) *
       static_cast<double>(f.plans.size())));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.plans.size()));
}
BENCHMARK(BM_PredictBatchStudentI8)->Unit(benchmark::kMillisecond);

// The gated tier as deployed (kAuto at i8): student answers, teacher catches
// the escalations. Reports the escalated fraction alongside the timing.
void BM_PredictBatchTieredAuto(benchmark::State& state) {
  Fixture& f = GetFixture();
  ScopedPrecision pin(nn::kernel::Precision::kI8);
  ScopedTier tier(&f.estimator, core::DaceEstimator::TierMode::kAuto);
  ThreadPool pool(1);
  f.estimator.set_thread_pool(&pool);
  f.estimator.set_prediction_cache_capacity(0);
  std::vector<const plan::QueryPlan*> ptrs;
  for (const auto& p : f.plans) ptrs.push_back(&p);
  std::vector<double> out;
  obs::MetricsRegistry* reg = obs::MetricsRegistry::Default();
  f.estimator.PredictBatchMsInto(ptrs, &out);  // warm-up
  const uint64_t req0 = reg->GetCounter("predict.tier.requests")->Value();
  const uint64_t esc0 = reg->GetCounter("predict.tier.escalated")->Value();
  for (auto _ : state) {
    f.estimator.PredictBatchMsInto(ptrs, &out);
    benchmark::DoNotOptimize(out.data());
  }
  const uint64_t requests =
      reg->GetCounter("predict.tier.requests")->Value() - req0;
  const uint64_t escalated =
      reg->GetCounter("predict.tier.escalated")->Value() - esc0;
  f.estimator.set_thread_pool(nullptr);
  state.counters["escalated_fraction"] = benchmark::Counter(
      requests > 0 ? static_cast<double>(escalated) /
                         static_cast<double>(requests)
                   : 0.0);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.plans.size()));
}
BENCHMARK(BM_PredictBatchTieredAuto)->Unit(benchmark::kMillisecond);

// One whole plan choice as perfbench's train_select times it: enumerate the
// candidates of a spec (same specs as BM_OptimizerEnumerateCandidates) and
// score them with DACE through core::EstimatorPlanChoice, kAuto at i8 on the
// default pool, cache off so every candidate is scored cold.
void BM_OptimizerChoosePlan(benchmark::State& state) {
  Fixture& f = GetFixture();
  ScopedPrecision pin(nn::kernel::Precision::kI8);
  ScopedTier tier(&f.estimator, core::DaceEstimator::TierMode::kAuto);
  f.estimator.set_prediction_cache_capacity(0);
  const core::EstimatorPlanChoice scorer(&f.estimator);
  const engine::Optimizer optimizer(&f.db);
  const auto specs =
      engine::GenerateQueries(f.db, engine::WorkloadKind::kComplex, 32, 3);
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        optimizer.ChoosePlan(specs[i++ % specs.size()], scorer));
  }
}
BENCHMARK(BM_OptimizerChoosePlan);

// The tiered path plus the per-prediction cost of accuracy tracking: one
// wait-free FeedbackLedger::RecordPrediction per plan, exactly what
// EstimateTracked adds over Estimate on the serving hot path (the join and
// the drift detectors run on the ReportActual side, off this path). Gated
// in check.sh at <= 2% over BM_PredictBatchTieredAuto.
void BM_PredictBatchTieredAutoFeedback(benchmark::State& state) {
  Fixture& f = GetFixture();
  ScopedPrecision pin(nn::kernel::Precision::kI8);
  ScopedTier tier(&f.estimator, core::DaceEstimator::TierMode::kAuto);
  ThreadPool pool(1);
  f.estimator.set_thread_pool(&pool);
  f.estimator.set_prediction_cache_capacity(0);
  std::vector<const plan::QueryPlan*> ptrs;
  for (const auto& p : f.plans) ptrs.push_back(&p);
  std::vector<double> out;
  serve::FeedbackLedger ledger(1 << 16);
  f.estimator.PredictBatchMsInto(ptrs, &out);  // warm-up
  for (auto _ : state) {
    f.estimator.PredictBatchMsInto(ptrs, &out);
    uint64_t last_id = 0;
    for (double ms : out) last_id = ledger.RecordPrediction(ms);
    benchmark::DoNotOptimize(last_id);
    benchmark::DoNotOptimize(out.data());
  }
  f.estimator.set_thread_pool(nullptr);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.plans.size()));
}
BENCHMARK(BM_PredictBatchTieredAutoFeedback)->Unit(benchmark::kMillisecond);

// The tracking cost in isolation: one batch worth of RecordPrediction calls
// per iteration, so its per-iteration time is directly comparable to the
// tiered batch benchmarks above. feedback_overhead_pct is derived as this
// time over BM_PredictBatchTieredAuto's — measuring the added work directly
// resolves far below the 2% budget, where subtracting two near-equal
// end-to-end timings (see BM_PredictBatchTieredAutoFeedback) only measures
// run-to-run noise.
void BM_FeedbackRecordPrediction(benchmark::State& state) {
  Fixture& f = GetFixture();
  serve::FeedbackLedger ledger(1 << 16);
  const size_t batch = f.plans.size();
  for (auto _ : state) {
    uint64_t last_id = 0;
    for (size_t i = 0; i < batch; ++i) {
      last_id = ledger.RecordPrediction(static_cast<double>(i) + 0.5);
    }
    benchmark::DoNotOptimize(last_id);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(batch));
}
BENCHMARK(BM_FeedbackRecordPrediction);

// Serving path with every plan already cached: fingerprint + LRU lookup
// only. The warm-up batch fills the cache; the hit_fraction counter proves
// the measured iterations were all hits.
void BM_PredictBatchCacheHit(benchmark::State& state) {
  Fixture& f = GetFixture();
  ThreadPool pool(1);
  f.estimator.set_thread_pool(&pool);
  f.estimator.set_prediction_cache_capacity(4096);
  benchmark::DoNotOptimize(f.estimator.PredictBatchMs(f.plans));  // fill
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.estimator.PredictBatchMs(f.plans));
  }
  const auto stats = f.estimator.prediction_cache_stats();
  f.estimator.set_thread_pool(nullptr);
  f.estimator.set_prediction_cache_capacity(0);  // fixture default
  state.counters["hit_fraction"] = benchmark::Counter(
      static_cast<double>(stats.hits) /
      static_cast<double>(stats.hits + stats.misses));
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(f.plans.size()));
}
BENCHMARK(BM_PredictBatchCacheHit)->Unit(benchmark::kMillisecond);

// The model forward in isolation through a warm workspace: must be exactly
// zero allocations per call (the strict zero-alloc contract of
// DaceModel::PredictAllInto).
void BM_PredictAllIntoWarm(benchmark::State& state) {
  Fixture& f = GetFixture();
  featurize::FeaturizerConfig fc;
  const auto feats = f.featurizer.Featurize(f.plans[0], fc);
  core::DaceModel::Workspace ws;
  std::vector<double> preds;
  f.estimator.model().PredictAllInto(feats, &ws, &preds);  // warm-up
  const size_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    f.estimator.model().PredictAllInto(feats, &ws, &preds);
    benchmark::DoNotOptimize(preds.data());
  }
  const size_t allocs = g_heap_allocs.load(std::memory_order_relaxed) -
                        allocs_before;
  state.counters["allocs/call"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PredictAllIntoWarm);

// The same warm forward wrapped in the full observability kit — an enabled
// trace span plus a registry counter — with tracing ON. The derived record
// obs_overhead_pct (vs BM_PredictAllIntoWarm) is the enabled-but-idle cost
// of instrumenting a hot path; the obs budget is <2%. Must also stay at
// allocs/call = 0: span recording reuses the thread's ring buffer.
void BM_PredictAllIntoWarmObs(benchmark::State& state) {
  Fixture& f = GetFixture();
  featurize::FeaturizerConfig fc;
  const auto feats = f.featurizer.Featurize(f.plans[0], fc);
  core::DaceModel::Workspace ws;
  std::vector<double> preds;
  obs::Counter* probe =
      obs::MetricsRegistry::Default()->GetCounter("bench.obs_probe");
  const bool was_enabled = obs::TraceCollector::enabled();
  obs::TraceCollector::SetEnabled(true);
  {
    // Warm-up: shapes the workspace and creates this thread's trace ring.
    DACE_TRACE_SPAN("bench.predict_all_into");
    probe->Add(1);
    f.estimator.model().PredictAllInto(feats, &ws, &preds);
  }
  const size_t allocs_before = g_heap_allocs.load(std::memory_order_relaxed);
  for (auto _ : state) {
    DACE_TRACE_SPAN("bench.predict_all_into");
    probe->Add(1);
    f.estimator.model().PredictAllInto(feats, &ws, &preds);
    benchmark::DoNotOptimize(preds.data());
  }
  const size_t allocs = g_heap_allocs.load(std::memory_order_relaxed) -
                        allocs_before;
  obs::TraceCollector::SetEnabled(was_enabled);
  state.counters["allocs/call"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_PredictAllIntoWarmObs);

// Per-iteration real seconds by benchmark name, for the derived ratios.
std::map<std::string, double>& CapturedSeconds() {
  static auto* m = new std::map<std::string, double>();
  return *m;
}

// Console output as usual, plus one JSON record per run into the shared
// emitter (bench_util.h) so BENCH_micro.json carries the raw numbers the
// derived speedups are computed from.
class JsonCaptureReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.run_type != Run::RT_Iteration || run.error_occurred) continue;
      const double secs =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      const double cpu_secs =
          run.iterations > 0
              ? run.cpu_accumulated_time / static_cast<double>(run.iterations)
              : run.cpu_accumulated_time;
      auto& rec = dace::bench::Json().Add(run.benchmark_name());
      rec.Num("real_s_per_iter", secs)
          .Num("cpu_s_per_iter", cpu_secs)
          .Num("iterations", static_cast<double>(run.iterations));
      for (const auto& [cname, counter] : run.counters) {
        rec.Num(cname, counter.value);
      }
      CapturedSeconds()[run.benchmark_name()] = secs;
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

// speedup = t(baseline) / t(contender), recorded only when both ran (e.g.
// a --benchmark_filter may have excluded one side).
void AddSpeedupRecord(const char* record_name, const char* baseline,
                      const char* contender) {
  const auto& secs = CapturedSeconds();
  const auto b = secs.find(baseline);
  const auto c = secs.find(contender);
  if (b == secs.end() || c == secs.end() || c->second <= 0.0) return;
  const double speedup = b->second / c->second;
  dace::bench::Json()
      .Add(record_name)
      .Str("baseline", baseline)
      .Str("contender", contender)
      .Num("speedup", speedup);
  std::printf("%-32s %.2fx (%s / %s)\n", record_name, speedup, baseline,
              contender);
}

// Accuracy side of the tiered-serving acceptance: median q-error of gated
// tiered serving (kAuto at i8) against actual runtimes, as a ratio over
// teacher-only serving on the same fig05-style workload. The budget is 1.05
// — the gate must escalate enough that distillation error stays invisible at
// the median. Gated separately from the timing records because it is a
// correctness property, not a speed one.
void AddTieredQErrorRecord() {
  Fixture& f = GetFixture();
  using TierMode = core::DaceEstimator::TierMode;
  ScopedPrecision pin(nn::kernel::Precision::kI8);
  f.estimator.set_prediction_cache_capacity(0);
  const auto median_q = [&f](TierMode mode) {
    ScopedTier tier(&f.estimator, mode);
    f.estimator.set_prediction_cache_capacity(0);
    const std::vector<double> preds = f.estimator.PredictBatchMs(f.plans);
    std::vector<double> q;
    for (size_t i = 0; i < f.plans.size(); ++i) {
      const double actual =
          f.plans[i].node(f.plans[i].root()).actual_time_ms;
      if (actual <= 0.0 || preds[i] <= 0.0) continue;
      q.push_back(std::max(preds[i] / actual, actual / preds[i]));
    }
    std::sort(q.begin(), q.end());
    return q[q.size() / 2];
  };
  const double teacher_q = median_q(TierMode::kTeacherOnly);
  const double tiered_q = median_q(TierMode::kAuto);
  const double ratio = tiered_q / teacher_q;
  dace::bench::Json()
      .Add("tiered_qerror_budget")
      .Num("teacher_median_qerror", teacher_q)
      .Num("tiered_median_qerror", tiered_q)
      .Num("ratio", ratio)
      .Num("budget", 1.05);
  std::printf("%-32s %.4f (tiered %.3f / teacher %.3f, budget 1.05)\n",
              "tiered_qerror_budget", ratio, tiered_q, teacher_q);
}

// overhead% = (t(instrumented) / t(baseline) - 1) * 100, recorded only when
// both ran. The obs acceptance budget for span+counter on the warm forward
// is < 2%.
void AddOverheadRecord(const char* record_name, const char* baseline,
                       const char* instrumented) {
  const auto& secs = CapturedSeconds();
  const auto b = secs.find(baseline);
  const auto c = secs.find(instrumented);
  if (b == secs.end() || c == secs.end() || b->second <= 0.0) return;
  const double overhead_pct = (c->second / b->second - 1.0) * 100.0;
  dace::bench::Json()
      .Add(record_name)
      .Str("baseline", baseline)
      .Str("instrumented", instrumented)
      .Num("overhead_pct", overhead_pct);
  std::printf("%-32s %+.2f%% (%s vs %s)\n", record_name, overhead_pct,
              instrumented, baseline);
}

// overhead% = t(addition) / t(baseline) * 100, for an addition benchmarked
// in ISOLATION over the same per-iteration batch as the baseline. The
// subtraction variant above needs the instrumented path to be measurably
// slower; this one stays accurate when the addition is orders of magnitude
// below the baseline's run-to-run noise.
void AddAddedCostRecord(const char* record_name, const char* baseline,
                        const char* addition) {
  const auto& secs = CapturedSeconds();
  const auto b = secs.find(baseline);
  const auto a = secs.find(addition);
  if (b == secs.end() || a == secs.end() || b->second <= 0.0) return;
  const double overhead_pct = a->second / b->second * 100.0;
  dace::bench::Json()
      .Add(record_name)
      .Str("baseline", baseline)
      .Str("addition", addition)
      .Num("overhead_pct", overhead_pct);
  std::printf("%-32s %+.2f%% (%s added onto %s)\n", record_name, overhead_pct,
              addition, baseline);
}

}  // namespace

// Custom main instead of BENCHMARK_MAIN: peels --json=PATH,
// --metrics-json=PATH and --trace-json=PATH (everything else goes to
// google-benchmark), runs with the capturing reporter, then writes
// BENCH_micro.json (default) with raw runs + derived speedup/overhead
// records, plus the obs sidecars if requested.
int main(int argc, char** argv) {
  dace::bench::Json().SetPath("BENCH_micro.json");
  std::string metrics_json, trace_json;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--json=", 7) == 0) {
      dace::bench::Json().SetPath(argv[i] + 7);
      continue;
    }
    if (std::strncmp(argv[i], "--metrics-json=", 15) == 0) {
      metrics_json = argv[i] + 15;
      continue;
    }
    if (std::strncmp(argv[i], "--trace-json=", 13) == 0) {
      trace_json = argv[i] + 13;
      continue;
    }
    args.push_back(argv[i]);
  }
  dace::bench::ArmObsSidecars(metrics_json, trace_json);
  int bench_argc = static_cast<int>(args.size());
  benchmark::Initialize(&bench_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc, args.data())) {
    return 1;
  }
  JsonCaptureReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  AddSpeedupRecord("matmul_simd_speedup_n128", "BM_MatMulScalar/128",
                   "BM_MatMulSimd/128");
  AddSpeedupRecord("predict_cache_hit_speedup", "BM_PredictBatchCold",
                   "BM_PredictBatchCacheHit");
  AddSpeedupRecord("packed_f32_vs_perplan_speedup", "BM_PredictBatchCold",
                   "BM_PredictBatchPackedF32");
  AddSpeedupRecord("student_vs_teacher_speedup", "BM_PredictBatchPackedF32",
                   "BM_PredictBatchStudentI8");
  AddSpeedupRecord("student_vs_perplan_speedup", "BM_PredictBatchCold",
                   "BM_PredictBatchStudentI8");
  AddTieredQErrorRecord();
  AddOverheadRecord("obs_overhead_pct", "BM_PredictAllIntoWarm",
                    "BM_PredictAllIntoWarmObs");
  AddAddedCostRecord("feedback_overhead_pct", "BM_PredictBatchTieredAuto",
                     "BM_FeedbackRecordPrediction");
  const bool ok = dace::bench::Json().WriteIfRequested();
  benchmark::Shutdown();
  return ok ? 0 : 1;
}
