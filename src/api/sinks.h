#pragma once

#include <cstdint>
#include <fstream>
#include <memory>
#include <ostream>
#include <string>

#include "src/api/pipeline.h"
#include "src/rt/clock.h"
#include "src/rt/fault.h"
#include "src/rt/resilient.h"

namespace shedmon::api {

// Ready-made BinObservers that stream every closed bin to a file or ostream.
// Both write on the coordinator thread (Pipeline guarantees OnBin runs
// there, in bin order) and flush from OnRunEnd; the file-path constructors
// own the stream and throw std::runtime_error when the file cannot be
// opened.
//
// Sinks are fault-tolerant on demand: EnableResilience routes every row
// through a rt::ResilientWriter, which retries transient write failures
// with exponential backoff + jitter and — when one row exhausts its retries
// — quarantines the sink (rows are counted and discarded) instead of
// failing the monitoring run. Pipeline arms this from
// PipelineBuilder::SinkRetry / InjectFaults.

// Shared machinery: row formatting stays in the derived sinks; this base
// owns the stream and the optional resilient writer in front of it.
class ResilientSinkBase : public BinObserver {
 public:
  // `clock` drives the retry backoff. The fault injector, metrics registry
  // and logger are borrowed; null leaves the writer without that hook.
  void EnableResilience(const rt::RetryPolicy& policy, std::shared_ptr<rt::Clock> clock,
                        rt::FaultInjector* injector, obs::MetricsRegistry* metrics,
                        obs::JsonlLogger* logger);

  bool quarantined() const { return writer_ != nullptr && writer_->quarantined(); }
  uint64_t write_retries() const { return writer_ != nullptr ? writer_->retries() : 0; }
  uint64_t dropped_rows() const { return writer_ != nullptr ? writer_->dropped_writes() : 0; }

  void OnRunEnd() override;

 protected:
  explicit ResilientSinkBase(std::ostream& out, std::string name);
  ResilientSinkBase(const std::string& path, std::string name);

  // One formatted row; goes through the resilient writer when enabled.
  void WriteRow(const std::string& row);

 private:
  std::ofstream file_;
  std::ostream* out_;
  std::string name_;
  std::unique_ptr<rt::ResilientWriter> writer_;
};

// One CSV row per bin with the BinLog's scalar fields plus derived stats.
// Per-query columns would change arity on mid-run add/remove, so per-query
// detail is the JSONL sink's job; CSV stays fixed-width for spreadsheets.
class CsvBinSink : public ResilientSinkBase {
 public:
  explicit CsvBinSink(std::ostream& out);
  explicit CsvBinSink(const std::string& path);

  void OnBin(const core::BinLog& log, const BinStats& stats) override;

 private:
  bool header_written_ = false;
};

// One JSON object per line per bin, including the per-query arrays (names,
// rates, cycles, disabled flags) so mid-run arrivals and removals are
// visible as changing array lengths.
class JsonlBinSink : public ResilientSinkBase {
 public:
  explicit JsonlBinSink(std::ostream& out);
  explicit JsonlBinSink(const std::string& path);

  void OnBin(const core::BinLog& log, const BinStats& stats) override;
};

}  // namespace shedmon::api

namespace shedmon {
using api::CsvBinSink;
using api::JsonlBinSink;
}  // namespace shedmon
