#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace shedmon::obs {

// Span tracing for the per-bin pipeline, built on the same stripe discipline
// as MetricsRegistry: writers append to per-stripe lock-free bounded rings
// chosen by thread identity, readers fold the stripes at export time. Like
// the metrics, tracing is strictly one-way — spans are written, never read
// back by the pipeline — so an attached tracer (or a scraper exporting the
// trace mid-run) cannot perturb any shedding decision: BinLogs stay
// bit-identical with tracing on or off.
//
// Capacity is bounded and overflow is explicit: once a stripe's ring is
// full, further spans on that stripe are counted (dropped() and, when
// metrics are attached, shedmon_obs_trace_dropped_total) and discarded —
// never silently lost, never blocking the hot path.

// Every instrumented pipeline stage. StageName() is the single naming
// source for trace events and the shedmon_stage_wall_us{stage=...} series.
enum class Stage : uint8_t {
  kBinClose = 0,     // whole bin-close critical path (api::Pipeline)
  kExtraction,       // shared feature extraction (prediction phase 1)
  kPrediction,       // per-query cycle prediction
  kShedDecision,     // resource allocation + sampling-rate selection
  kQuery,            // one per-query execution task
  kReference,        // reference (unsampled) instance execution
  kSink,             // one sink write (CSV/JSONL row)
  kCheckpoint,       // crash-safe checkpoint write
  kDegrade,          // rt ladder transition (instant event)
  kCapture,          // capture front-end drain burst (src/capture)
};
inline constexpr size_t kStageCount = 10;

const char* StageName(Stage stage);

// One completed span. `arg` is a stage-specific index (query slot, ladder
// rung); negative means "no argument".
struct SpanRecord {
  uint64_t ts_us = 0;   // start, relative to the tracer's epoch
  uint64_t dur_us = 0;  // 0 for instant events
  int64_t arg = -1;
  uint32_t bin = 0;
  uint32_t lane = 0;  // recording thread's stripe; the Chrome-trace tid
  Stage stage = Stage::kBinClose;
};

class Tracer {
 public:
  // Sized so a stripe's first-touch allocation stays cheap (~200 KB) while
  // holding several hundred bins of coordinator spans; longer windows
  // overflow into the explicit drop counter, by design.
  static constexpr size_t kDefaultSpansPerStripe = 1 << 12;

  explicit Tracer(size_t spans_per_stripe = kDefaultSpansPerStripe);
  ~Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // Optionally mirror span durations into shedmon_stage_wall_us{stage=...}
  // histograms and expose the drop counter. Instrument pointers are cached
  // here once; the registry must outlive the tracer.
  void AttachMetrics(MetricsRegistry* metrics);

  // Microseconds since this tracer was constructed (util::MonotonicNowUs,
  // the sanctioned observability-only wall clock).
  uint64_t NowUs() const;

  // Record a completed span [start_us, start_us + dur_us). Lock-free; safe
  // from any thread concurrently with Snapshot()/export.
  void Record(Stage stage, uint64_t start_us, uint64_t dur_us, uint32_t bin, int64_t arg = -1);

  // Zero-duration marker (rt ladder transitions).
  void Instant(Stage stage, uint32_t bin, int64_t arg = -1) { Record(stage, NowUs(), 0, bin, arg); }

  // Spans recorded so far, folded across stripes and sorted by start time.
  // Safe concurrently with writers: slots still being filled are skipped.
  std::vector<SpanRecord> Snapshot() const;

  // Spans that did not fit a ring. Explicit, never silent.
  uint64_t dropped() const { return dropped_.load(std::memory_order_relaxed); }

  // Chrome trace-event JSON ({"traceEvents":[...]}): complete "X" events
  // (instant "i" for zero-duration markers), ts/dur in microseconds, one
  // tid per stripe. Loadable in Perfetto / chrome://tracing.
  void ExportChromeTrace(std::ostream& out) const;
  std::string ExportChromeTrace() const;
  bool WriteChromeTrace(const std::string& path) const;

 private:
  // A slot is published by setting `ready` with release order after the
  // record is fully written; readers acquire-load it and skip stragglers.
  struct Slot {
    SpanRecord record;
    std::atomic<bool> ready{false};
  };
  // Slot storage is allocated lazily on a stripe's first Record: threads
  // that never trace (and a tracer that is constructed but idle) cost no
  // memory, and construction stays off any hot path.
  struct alignas(64) Ring {
    std::atomic<uint64_t> head{0};  // total claims, may exceed capacity
    std::atomic<Slot*> slots{nullptr};
  };

  Slot* EnsureSlots(Ring& ring);

  const size_t capacity_;
  const uint64_t epoch_us_;
  std::array<Ring, kMetricStripes> rings_;
  std::atomic<uint64_t> dropped_{0};

  std::array<Histogram*, kStageCount> stage_wall_us_{};
  Counter* dropped_total_ = nullptr;
};

// RAII span: captures the start at construction, records at destruction.
// A null tracer disables it entirely, so call sites read the same whether
// tracing is on or off (the cached-pointer idiom of the metrics layer).
class Span {
 public:
  Span(Tracer* tracer, Stage stage, uint32_t bin, int64_t arg = -1)
      : tracer_(tracer), stage_(stage), bin_(bin), arg_(arg),
        start_us_(tracer ? tracer->NowUs() : 0) {}
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tracer_ != nullptr) {
      tracer_->Record(stage_, start_us_, tracer_->NowUs() - start_us_, bin_, arg_);
    }
  }

 private:
  Tracer* tracer_;
  Stage stage_;
  uint32_t bin_;
  int64_t arg_;
  uint64_t start_us_;
};

}  // namespace shedmon::obs
