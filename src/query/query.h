#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/trace/batch.h"

namespace shedmon::query {

// Which shedding mechanism suits the query best (§4.2); each query picks the
// option that yields the best results at configuration time.
enum class SamplingMethod { kPacket, kFlow };

// What a query sees for one time bin: the (possibly sampled) packets plus the
// sampling rate that was applied so it can scale its estimates by 1/rate, the
// modification the thesis applied to the standard CoMo queries (§2.2).
struct BatchInput {
  const trace::PacketVec& packets;
  uint64_t start_us = 0;
  uint64_t duration_us = 100'000;
  double sampling_rate = 1.0;
};

// A monitoring application ("plug-in module" in CoMo terms). The load
// shedding system treats instances as black boxes: it only ever calls
// ProcessBatch / EndBin / FlushInterval and observes the cycles they consume.
//
// Accuracy evaluation follows §2.2.1: a second instance of the same query is
// run over the unsampled stream and IntervalError compares per-interval
// results. The base-class default implements the processed-packet-fraction
// error used for trace and pattern-search.
class Query {
 public:
  Query(std::string name, size_t interval_bins);
  virtual ~Query() = default;

  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  const std::string& name() const { return name_; }
  // Measurement interval expressed in 100 ms time bins (§2.4).
  size_t interval_bins() const { return interval_bins_; }

  virtual SamplingMethod preferred_sampling() const { return SamplingMethod::kPacket; }

  // Processes one (possibly sampled) batch.
  void ProcessBatch(const BatchInput& in);

  // The measurement-interval clock (§2.4). EndBin counts one closed time
  // bin and, at interval_bins() of them, closes the interval; it returns
  // whether it did. FlushInterval closes a partially filled interval at end
  // of input and is a no-op right after a boundary. EndInterval closes the
  // interval immediately and restarts the count. Results become available
  // for interval index completed_intervals() - 1 once it is closed.
  bool EndBin();
  void FlushInterval();
  void EndInterval();
  size_t completed_intervals() const { return intervals_done_; }
  // Bins counted into the open interval; 0 on an interval boundary.
  size_t bins_in_interval() const { return bins_in_interval_; }

  // Relative error of this instance's results for `interval` against a
  // reference instance that processed the full stream (§2.2.1).
  virtual double IntervalError(const Query& reference, size_t interval) const;

  // ---- Custom load shedding (Ch. 6) ----
  // True if the query ships its own shedding method; the system may then
  // hand it the full batch and a target cost fraction instead of sampling.
  virtual bool supports_custom_shedding() const { return false; }
  // Processes `in` using at most ~`fraction` of the full processing cost.
  // Default falls through to full processing (a non-implementing query; the
  // enforcement policy of §6.1.1 is what keeps this safe).
  void ProcessCustom(const BatchInput& in, double fraction);

  // Raw packets examined in a completed interval (reference instances see
  // everything, so this doubles as the ground-truth packet count).
  double IntervalPacketsProcessed(size_t interval) const;

  // Monotonic counter of abstract work units the query has performed (packet
  // touches, bytes scanned, state insertions...). The deterministic cost
  // oracle charges the *delta* of this counter per batch, so a query that
  // sheds its own load (Ch. 6) is charged for what it actually did — and a
  // selfish one that ignores its budget is exposed by the same number.
  double work_units() const { return work_units_; }

 protected:
  virtual void OnBatch(const BatchInput& in) = 0;
  virtual void OnCustomBatch(const BatchInput& in, double fraction);
  virtual void OnEndInterval(size_t interval_index) = 0;

  // Concrete custom-shedding implementations report how many packets they
  // actually examined (base accounting assumes all of them otherwise).
  void AdjustProcessedCount(double delta) { cur_packets_ += delta; }

  void ChargeWork(double units) { work_units_ += units; }

 private:
  std::string name_;
  size_t interval_bins_;
  size_t bins_in_interval_ = 0;
  size_t intervals_done_ = 0;
  double cur_packets_ = 0.0;
  double work_units_ = 0.0;
  std::vector<double> interval_packets_;
};

}  // namespace shedmon::query
