#include "src/obs/trace.h"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "src/util/cycle_clock.h"

namespace shedmon::obs {

namespace {

// Upper bucket edges (microseconds) for shedmon_stage_wall_us: stage work
// ranges from single-digit-us merges to whole bins of hundreds of ms.
const std::vector<double>& StageWallBounds() {
  static const std::vector<double> bounds = {10,     25,     50,      100,     250,    500,
                                             1000,   2500,   5000,    10000,   25000,  50000,
                                             100000, 250000, 500000,  1000000};
  return bounds;
}

}  // namespace

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kBinClose:
      return "bin_close";
    case Stage::kExtraction:
      return "extraction";
    case Stage::kPrediction:
      return "prediction";
    case Stage::kShedDecision:
      return "shed_decision";
    case Stage::kQuery:
      return "query";
    case Stage::kReference:
      return "reference";
    case Stage::kSink:
      return "sink";
    case Stage::kCheckpoint:
      return "checkpoint";
    case Stage::kDegrade:
      return "degrade";
    case Stage::kCapture:
      return "capture";
  }
  return "unknown";
}

Tracer::Tracer(size_t spans_per_stripe)
    : capacity_(spans_per_stripe == 0 ? 1 : spans_per_stripe),
      epoch_us_(util::MonotonicNowUs()) {}

Tracer::~Tracer() {
  for (Ring& ring : rings_) {
    delete[] ring.slots.load(std::memory_order_acquire);
  }
}

Tracer::Slot* Tracer::EnsureSlots(Ring& ring) {
  Slot* slots = ring.slots.load(std::memory_order_acquire);
  if (slots == nullptr) {
    Slot* fresh = new Slot[capacity_];
    if (ring.slots.compare_exchange_strong(slots, fresh, std::memory_order_acq_rel,
                                           std::memory_order_acquire)) {
      slots = fresh;
    } else {
      delete[] fresh;  // a stripe-sharing thread won the allocation race
    }
  }
  return slots;
}

void Tracer::AttachMetrics(MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    return;
  }
  for (size_t s = 0; s < kStageCount; ++s) {
    stage_wall_us_[s] =
        &metrics->GetHistogram("shedmon_stage_wall_us", StageWallBounds(),
                               {{"stage", StageName(static_cast<Stage>(s))}},
                               "Wall-clock microseconds spent per pipeline stage");
  }
  dropped_total_ = &metrics->GetCounter("shedmon_obs_trace_dropped_total", {},
                                        "Spans discarded because a trace ring was full");
}

uint64_t Tracer::NowUs() const { return util::MonotonicNowUs() - epoch_us_; }

void Tracer::Record(Stage stage, uint64_t start_us, uint64_t dur_us, uint32_t bin, int64_t arg) {
  Histogram* histogram = stage_wall_us_[static_cast<size_t>(stage)];
  if (histogram != nullptr && dur_us > 0) {
    histogram->Observe(static_cast<double>(dur_us));
  }
  const size_t lane = internal::StripeIndex();
  Ring& ring = rings_[lane];
  const uint64_t slot = ring.head.fetch_add(1, std::memory_order_relaxed);
  if (slot >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_total_ != nullptr) {
      dropped_total_->Increment();
    }
    return;
  }
  Slot* slots = EnsureSlots(ring);
  SpanRecord& record = slots[slot].record;
  record.ts_us = start_us;
  record.dur_us = dur_us;
  record.arg = arg;
  record.bin = bin;
  record.lane = static_cast<uint32_t>(lane);
  record.stage = stage;
  slots[slot].ready.store(true, std::memory_order_release);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::vector<SpanRecord> spans;
  for (const Ring& ring : rings_) {
    const Slot* slots = ring.slots.load(std::memory_order_acquire);
    if (slots == nullptr) {
      continue;  // stripe never recorded
    }
    const uint64_t used = std::min<uint64_t>(ring.head.load(std::memory_order_relaxed), capacity_);
    for (uint64_t i = 0; i < used; ++i) {
      if (slots[i].ready.load(std::memory_order_acquire)) {
        spans.push_back(slots[i].record);
      }
    }
  }
  std::sort(spans.begin(), spans.end(), [](const SpanRecord& a, const SpanRecord& b) {
    if (a.ts_us != b.ts_us) {
      return a.ts_us < b.ts_us;
    }
    return a.lane < b.lane;
  });
  return spans;
}

void Tracer::ExportChromeTrace(std::ostream& out) const {
  const std::vector<SpanRecord> spans = Snapshot();
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanRecord& span : spans) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\n{\"name\":\"" << StageName(span.stage) << "\",\"cat\":\"shedmon\",\"ph\":\""
        << (span.dur_us == 0 ? "i" : "X") << "\",\"ts\":" << span.ts_us;
    if (span.dur_us != 0) {
      out << ",\"dur\":" << span.dur_us;
    } else {
      out << ",\"s\":\"t\"";
    }
    out << ",\"pid\":1,\"tid\":" << span.lane << ",\"args\":{\"bin\":" << span.bin;
    if (span.arg >= 0) {
      out << ",\"arg\":" << span.arg;
    }
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":" << dropped() << "}}\n";
}

std::string Tracer::ExportChromeTrace() const {
  std::ostringstream out;
  ExportChromeTrace(out);
  return out.str();
}

bool Tracer::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    return false;
  }
  ExportChromeTrace(out);
  return static_cast<bool>(out);
}

}  // namespace shedmon::obs
