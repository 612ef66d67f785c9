// Shared types of the perfbench runner: workload definitions, one
// repetition's end-to-end outcome, and the in-memory span recorder the traced
// run uses. Every timer here is the benchmark's own; nothing under src/ is
// instrumented.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/capture/capture.h"
#include "src/core/cost.h"
#include "src/core/system.h"
#include "src/net/packet.h"
#include "src/trace/generator.h"

namespace perfbench {

using namespace shedmon;

// Seconds on the steady clock since an arbitrary epoch.
inline double NowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One named workload: a set of generated trace segments, the query roster,
// and how the pipeline is driven. Each segment is an independent trace with
// its own pipeline; a pass runs every segment once, so a run's figures
// average over several traffic realizations of the same preset.
struct WorkloadSpec {
  trace::TraceSpec trace;  // seed is per segment, see SegmentSeed
  size_t segments = 1;
  std::vector<std::string> queries;
  core::OracleKind oracle = core::OracleKind::kModel;
  int calibration_passes = 1;  // MeasureMeanDemand passes; median is used
  bool live = false;           // replay over loopback TCP into CaptureFrom
  bool live_probe = false;     // traced run also runs LiveProbe(seed)
  uint64_t seed = 0;

  // Generator seed of segment `index`.
  uint64_t SegmentSeed(size_t index) const;
};

// Throws std::invalid_argument on an unknown name.
WorkloadSpec MakeWorkload(std::string_view name, uint64_t seed);
// The live capture probe: CESCA-I at 2.5x flows, 8 s, counter/flows/
// application, replayed over loopback TCP into CaptureFrom at the default
// CaptureConfig. Not a workload of its own: its figures are set by races
// between sender, capture slots and wall clock, so they cannot be bounded.
WorkloadSpec LiveProbe(uint64_t seed);

// Set-up products of one repetition.
struct Prepared {
  trace::Trace trace;
  double capacity = 0.0;
  double generate_s = 0.0;
  double calibrate_s = 0.0;
  std::vector<double> calibrate_passes;  // mean demand per pass
  double build_s = 0.0;                  // Build(), listener start included
};

// Per-call wall times the traced e2e pass records around the pipeline's
// public entry points.
struct CallTimes {
  double push_s = 0.0;
  double advance_s = 0.0;
  double finish_s = 0.0;
  uint64_t pushed = 0;
};

// End-to-end outcome of one repetition.
struct Outcome {
  double setup_s = 0.0;
  double wall_s = 0.0;         // first Push (or send) until Finish returns
  uint64_t offered = 0;        // packets offered to the system
  uint64_t lost = 0;           // bin drops + capture drops + unaccounted frames
  std::vector<double> close_ms;  // offline: AdvanceTime that closes each bin
  std::vector<double> lag_ms;    // live: a bin's last record sent -> its OnBin
  double error_mean = 0.0;
  double error_max = 0.0;
  double heap_mb = 0.0;          // heap in use when the run ended
  double overhead_cycles = 0.0;  // sum of ps + ls charges over bins
  double budget_cycles = 0.0;    // bins x capacity
  std::vector<core::BinLog> log;
  uint64_t digest = 0;
  std::vector<std::string> violations;  // broken invariants
  // live only
  capture::CaptureStats capture;
  uint64_t unaccounted = 0;
  CallTimes calls;
};

// One complete repetition of one segment: set up, drive the pipeline, check
// invariants. `timed_calls` adds the per-call timers of the traced e2e pass.
Outcome RunOnce(const WorkloadSpec& spec, size_t segment, Prepared& prepared, bool timed_calls);

// Metric name -> (value, unit).
using Metrics = std::map<std::string, std::pair<double, std::string>>;

// In-memory span recorder: spans are kept until the run ends; a span's self
// time is its duration minus the time its direct children cover.
class SpanLog {
 public:
  struct Span {
    std::string_view name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  // index of the enclosing span, -1 at the top
  };

  int Begin(std::string_view name, int parent) {
    spans_.push_back(Span{name, NowS(), 0.0, parent});
    return static_cast<int>(spans_.size()) - 1;
  }
  void End(int id) { spans_[static_cast<size_t>(id)].end = NowS(); }

  struct Total {
    size_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };
  // Count, total and self seconds per span name.
  std::map<std::string, Total> Totals() const;

 private:
  std::vector<Span> spans_;
};

// The traced run's layer replay: feeds each segment's bins (trace::Batcher)
// through standalone layer objects (features::FeatureExtractor,
// predict::PredictionEngine, shed samplers and strategy, query::Query
// instances) and times every call from outside. The e2e repetition's
// BinLogs supply the per-bin sampling rates and charged cycles, so the
// sampled work matches the pipeline's decisions. Totals accumulate across
// segments.
class LayerReplay {
 public:
  explicit LayerReplay(const WorkloadSpec& spec);

  void Replay(const Prepared& prepared, const Outcome& e2e);
  // Times net::DecodeEthernetFrame over the trace rendered as wire frames,
  // the capture consumer's per-frame step.
  void DecodeFrames(const trace::Trace& trace);
  Metrics Result() const;
  // One JSON object per span name: count, total_s, self_s.
  std::string SpanSummary() const;

 private:
  const WorkloadSpec& spec_;
  std::vector<std::string> sampled_names_;
  std::vector<std::string> full_names_;
  SpanLog spans_;
  double bins_ = 0;
  double packets_ = 0;
  double repeats_ = 0;
  double sampled_in_ = 0;
  double reextracted_ = 0;
  double frames_ = 0;
};

}  // namespace perfbench
