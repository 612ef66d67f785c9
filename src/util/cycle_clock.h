#pragma once

#include <cstdint>

namespace shedmon::util {

// Reads the CPU time-stamp counter, the paper's cycle source (§3.2.4). On
// x86-64 this is `rdtsc`; elsewhere it falls back to the monotonic clock in
// nanoseconds, which preserves ordering and proportionality.
uint64_t ReadCycles();

// Approximate cycles per second of the cycle source. Calibrated once on first
// use against the steady clock; used to convert a real-time bin length into a
// per-bin cycle budget when running against live measurements.
double CyclesPerSecond();

// Monotonic wall-clock microseconds since an arbitrary per-process epoch.
// This is the one sanctioned wall-time source for observability-only
// measurement (task-duration histograms, trace span timestamps): values are
// written to metrics and traces but never read back by a decision path, so
// they cannot perturb a run. Anything that *decides* based on time (the
// deadline governor, retry backoff, bin pacing) must use the injectable
// rt::Clock instead — that is what keeps those decisions replayable under a
// ManualClock. Enforced by tools/lint/shedmon_lint.py's wall-clock rule.
uint64_t MonotonicNowUs();

// Scoped elapsed-cycle measurement around a region of code.
class CycleTimer {
 public:
  CycleTimer() : start_(ReadCycles()) {}

  uint64_t Elapsed() const {
    const uint64_t now = ReadCycles();
    return now >= start_ ? now - start_ : 0;
  }

 private:
  uint64_t start_;
};

}  // namespace shedmon::util
