#ifndef DACE_SERVE_FEEDBACK_H_
#define DACE_SERVE_FEEDBACK_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "obs/drift.h"
#include "obs/metrics.h"
#include "plan/plan.h"
#include "util/status.h"

namespace dace::serve {

// --------------------------------------------------------------- ledger ----

// Lock-free bounded ledger of outstanding predictions awaiting their
// ground-truth latency. The serving hot path pays exactly one
// RecordPrediction per priced plan (~a fetch_add and two stores); the join
// side (ReportActual, driven by the executor's completion callback) does the
// expensive accuracy work off the prediction path.
//
// Layout: a power-of-two ring indexed by request_id & mask. Record claims
// the next id, invalidates the slot's old id, writes the predicted value,
// then publishes the new id with a release store; Join acquires the id,
// claims it by CASing in a joined bit, reads the value, and seqlock-style
// re-validates the id afterwards (a writer lapping the ring mid-join
// invalidates the id before overwriting the value — the join then reports
// the record evicted instead of returning the newer record's value).
//
// Eviction is age-based on the id stream itself: a record is evicted once
// `capacity` newer predictions have been issued — the ring IS the TTL, in
// prediction ticks rather than wall time, so tests and replays are
// deterministic. A late join (evicted, lapped, or duplicate) returns
// NotFound and is counted by the caller; it never crashes and never blocks.
class FeedbackLedger {
 public:
  // Capacity is rounded up to a power of two; it bounds both memory and the
  // record lifetime (TTL in predictions issued).
  explicit FeedbackLedger(size_t capacity);
  FeedbackLedger(const FeedbackLedger&) = delete;
  FeedbackLedger& operator=(const FeedbackLedger&) = delete;

  // Retains `predicted_ms` and returns the id ground truth must quote back.
  // Wait-free (one fetch_add, three stores). Thread-safe.
  uint64_t RecordPrediction(double predicted_ms);

  // Claims the record and returns its prediction in *predicted_ms. Each id
  // joins at most once; NotFound if the record was evicted (too late), never
  // existed, or was already joined. Lock-free. Thread-safe.
  Status Join(uint64_t request_id, double* predicted_ms);

  size_t capacity() const { return mask_ + 1; }
  // Total predictions recorded (== the next id to be issued).
  uint64_t issued() const { return next_id_.load(std::memory_order_relaxed); }

 private:
  // Slot ids carry the joined flag in the top bit; real ids stay below it
  // (2^63 predictions is ~292 years at 1G predictions/s).
  static constexpr uint64_t kJoinedBit = uint64_t{1} << 63;
  static constexpr uint64_t kEmpty = ~uint64_t{0};

  struct alignas(64) Slot {
    std::atomic<uint64_t> id{kEmpty};
    std::atomic<uint64_t> predicted_bits{0};
  };

  const uint64_t mask_;
  std::atomic<uint64_t> next_id_{0};
  std::unique_ptr<Slot[]> slots_;
};

// ------------------------------------------------------- TenantFeedback ----

struct FeedbackConfig {
  // Ledger ring size == prediction-TTL: an actual reported more than this
  // many predictions after its estimate counts as late.
  size_t ledger_capacity = 1 << 16;
  // Labelled-plan retention: ReportExecuted keeps the most recent
  // `retain_capacity` executed plans (with their measured node times) as the
  // adaptation loop's fine-tune corpus and shadow-scoring slice. 0 disables
  // retention (ReportExecuted still joins and feeds the monitor).
  size_t retain_capacity = 512;
  obs::AccuracyMonitorConfig monitor;
};

// Per-tenant feedback path: the ledger that holds predictions awaiting
// ground truth, plus the accuracy monitor the joined pairs feed. Counts
//   serve.feedback.predictions — RecordPrediction calls (tracked estimates)
//   serve.feedback.joined      — actuals joined to their prediction
//   serve.feedback.late        — actuals that missed the TTL window (or
//                                duplicated / never existed)
// The monitor registers its own accuracy.<tenant>.* / drift.<tenant>.*
// metrics and raises drift alarms (obs/drift.h).
class TenantFeedback {
 public:
  TenantFeedback(const std::string& tenant, const FeedbackConfig& config,
                 obs::MetricsRegistry* registry);
  TenantFeedback(const TenantFeedback&) = delete;
  TenantFeedback& operator=(const TenantFeedback&) = delete;

  // Hot path: retain a prediction, get the id for the eventual actual.
  uint64_t RecordPrediction(double predicted_ms) {
    predictions_->Add(1);
    return ledger_.RecordPrediction(predicted_ms);
  }

  // Ground-truth join: on success feeds (predicted, actual) into the
  // accuracy monitor. NotFound for late/duplicate/unknown ids ("counted,
  // not crashed" — the late counter keeps the books).
  Status ReportActual(uint64_t request_id, double actual_ms);

  // Ground-truth join from a fully-executed plan (the EXPLAIN ANALYZE shape:
  // every node carries its measured actual_time_ms). Joins exactly like
  // ReportActual using the root's actual time, and on a successful join
  // additionally retains a copy of the plan in the bounded ring — the
  // labelled corpus the adaptation loop fine-tunes and shadow-scores on.
  // Counts serve.feedback.retained per retained plan.
  Status ReportExecuted(uint64_t request_id,
                        const plan::QueryPlan& executed_plan);

  // Copy of the retained labelled plans, oldest first. The copy decouples
  // the (possibly long) fine-tune from the serving-path retention writes.
  std::vector<plan::QueryPlan> RetainedPlans() const;
  size_t retained_count() const;

  // Model swapped: rebaseline the drift detectors on the new model.
  void NotifySwap() { monitor_.CaptureReference(); }

  obs::AccuracyMonitor* monitor() { return &monitor_; }
  const FeedbackLedger& ledger() const { return ledger_; }

 private:
  FeedbackLedger ledger_;
  obs::AccuracyMonitor monitor_;
  obs::Counter* predictions_;
  obs::Counter* joined_;
  obs::Counter* late_;
  obs::Counter* retained_total_;

  const size_t retain_capacity_;
  mutable std::mutex retain_mu_;
  std::deque<plan::QueryPlan> retained_;  // bounded by retain_capacity_
};

}  // namespace dace::serve

#endif  // DACE_SERVE_FEEDBACK_H_
