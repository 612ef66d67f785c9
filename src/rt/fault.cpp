#include "src/rt/fault.h"

#include <stdexcept>
#include <utility>

namespace shedmon::rt {
namespace {

uint64_t ParseU64(std::string_view text, std::string_view what) {
  if (text.empty()) {
    throw std::invalid_argument("fault plan: empty value for " + std::string(what));
  }
  uint64_t value = 0;
  for (char c : text) {
    if (c < '0' || c > '9') {
      throw std::invalid_argument("fault plan: non-numeric value for " + std::string(what) + ": " +
                                  std::string(text));
    }
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  return value;
}

// Splits "N:US" pairs used by the per-bin schedules.
std::pair<uint64_t, uint64_t> ParsePair(std::string_view text, std::string_view what) {
  const size_t colon = text.find(':');
  if (colon == std::string_view::npos) {
    throw std::invalid_argument("fault plan: " + std::string(what) + " wants BIN:US, got " +
                                std::string(text));
  }
  return {ParseU64(text.substr(0, colon), what), ParseU64(text.substr(colon + 1), what)};
}

}  // namespace

FaultPlan FaultPlan::Parse(std::string_view spec) {
  FaultPlan plan;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t end = spec.find_first_of(",;", pos);
    if (end == std::string_view::npos) {
      end = spec.size();
    }
    const std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      continue;
    }
    const size_t eq = entry.find('=');
    if (eq == std::string_view::npos) {
      throw std::invalid_argument("fault plan: entry without '=': " + std::string(entry));
    }
    const std::string_view key = entry.substr(0, eq);
    const std::string_view value = entry.substr(eq + 1);
    if (key == "seed") {
      plan.seed = ParseU64(value, key);
    } else if (key == "stall_bin") {
      const auto [bin, us] = ParsePair(value, key);
      plan.stall_bins[bin] = us;
    } else if (key == "stall_every") {
      const auto [every, us] = ParsePair(value, key);
      plan.stall_every = every;
      plan.stall_every_us = us;
    } else if (key == "clock_jump") {
      const auto [bin, us] = ParsePair(value, key);
      plan.clock_jumps[bin] = us;
    } else if (key == "worker_stall") {
      const auto [bin, us] = ParsePair(value, key);
      plan.worker_stalls[bin] = us;
    } else if (key == "sink_fail_n") {
      plan.sink_fail_n = ParseU64(value, key);
    } else if (key == "sink_fail_every") {
      plan.sink_fail_every = ParseU64(value, key);
    } else if (key == "short_write_every") {
      plan.short_write_every = ParseU64(value, key);
    } else if (key == "corrupt_snapshot") {
      plan.corrupt_snapshots = ParseU64(value, key);
    } else {
      throw std::invalid_argument("fault plan: unknown key: " + std::string(key));
    }
  }
  return plan;
}

FaultInjector::FaultInjector(FaultPlan plan, std::shared_ptr<Clock> clock)
    : plan_(std::move(plan)),
      clock_(std::move(clock)),
      snapshot_credits_(plan_.corrupt_snapshots) {}

void FaultInjector::OnBinStart(uint64_t bin_index) {
  if (auto it = plan_.clock_jumps.find(bin_index); it != plan_.clock_jumps.end()) {
    // A jump is pure clock movement (NTP step, VM freeze): observed time
    // advances without the coordinator doing work or yielding the CPU.
    clock_->SleepUs(it->second);
    clock_jumps_applied_.fetch_add(1, std::memory_order_relaxed);
  }
  uint64_t stall_us = 0;
  if (auto it = plan_.stall_bins.find(bin_index); it != plan_.stall_bins.end()) {
    stall_us += it->second;
  }
  if (plan_.stall_every > 0 && bin_index % plan_.stall_every == plan_.stall_every - 1) {
    stall_us += plan_.stall_every_us;
  }
  if (stall_us > 0) {
    clock_->SleepUs(stall_us);
    bin_stalls_applied_.fetch_add(1, std::memory_order_relaxed);
  }
}

void FaultInjector::OnWorkerTask(uint64_t bin_index) {
  if (auto it = plan_.worker_stalls.find(bin_index); it != plan_.worker_stalls.end()) {
    clock_->SleepUs(it->second);
    worker_stalls_applied_.fetch_add(1, std::memory_order_relaxed);
  }
}

SinkFault FaultInjector::NextSinkWriteFault() {
  const uint64_t attempt = sink_write_attempts_.fetch_add(1, std::memory_order_relaxed);
  SinkFault fault = SinkFault::kNone;
  if (attempt < plan_.sink_fail_n) {
    fault = SinkFault::kEio;
  } else if (plan_.sink_fail_every > 0 && (attempt + 1) % plan_.sink_fail_every == 0) {
    fault = SinkFault::kEio;
  } else if (plan_.short_write_every > 0 && (attempt + 1) % plan_.short_write_every == 0) {
    fault = SinkFault::kShortWrite;
  }
  if (fault != SinkFault::kNone) {
    sink_faults_issued_.fetch_add(1, std::memory_order_relaxed);
  }
  return fault;
}

bool FaultInjector::TakeSnapshotCorruption() {
  uint64_t credits = snapshot_credits_.load(std::memory_order_relaxed);
  while (credits > 0) {
    if (snapshot_credits_.compare_exchange_weak(credits, credits - 1,
                                                std::memory_order_relaxed)) {
      snapshots_corrupted_.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
  }
  return false;
}

}  // namespace shedmon::rt
