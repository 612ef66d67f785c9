// perfbench: the repo benchmark's runner.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--spans-out <file>]
//
// --trace 0 repeats passes over the workload's segments (set-up included)
// until --seconds would be exceeded and prints the end-to-end metrics;
// --trace 1 runs each segment once plainly and once with per-call timers
// around the pipeline's entry points, replays its bins through standalone
// layer objects, and prints per-layer metrics (with --spans-out it also
// writes each span name's count, total and self time). Either way the last
// stdout line is one JSON object with the correctness verdict, counts,
// metrics, checks and the machine context.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "perfbench/common.h"

namespace perfbench {
namespace {

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

// Effective parallelism of this machine right now: spin-loop work done by
// nproc threads in a fixed window, over the work one thread does alone.
double BurnProbe(unsigned threads) {
  auto spin = [](double seconds) {
    const double end = NowS() + seconds;
    uint64_t work = 0;
    volatile uint64_t sink = 0;
    while (NowS() < end) {
      for (int i = 0; i < 4096; ++i) {
        sink = sink * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      ++work;
    }
    return work;
  };
  const double window = 0.1;
  const double single = static_cast<double>(spin(window));
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&] { total += spin(window); });
  }
  for (std::thread& t : pool) {
    t.join();
  }
  return single > 0 ? static_cast<double>(total.load()) / single : 0.0;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

long MinorFaults() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

struct Result {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  Metrics metrics;
  std::vector<std::string> checks;
};

// Records one repetition's broken invariants, and checks that repetitions
// of a deterministic (model-oracle, offline) segment agree on the digest.
class Checker {
 public:
  Checker(const WorkloadSpec& spec, Result& result)
      : deterministic_(spec.oracle == core::OracleKind::kModel && !spec.live),
        first_digest_(spec.segments),
        r_(result) {}

  void Add(size_t segment, const Outcome& o, std::string_view what) {
    ++r_.attempted;
    bool ok = o.violations.empty();
    for (const std::string& v : o.violations) {
      r_.checks.push_back(std::string(what) + " segment " + std::to_string(segment) + ": " + v);
    }
    if (deterministic_) {
      std::optional<uint64_t>& first = first_digest_[segment];
      if (first.has_value() && *first != o.digest) {
        r_.checks.push_back(std::string(what) + " segment " + std::to_string(segment) +
                            ": BinLog/result digest differs from the first repetition");
        ok = false;
      }
      first = first.value_or(o.digest);
    }
    r_.failed += ok ? 0 : 1;
    r_.correct = r_.failed == 0;
  }

 private:
  bool deterministic_;
  std::vector<std::optional<uint64_t>> first_digest_;
  Result& r_;
};

constexpr size_t kMinPasses = 3;
constexpr size_t kMaxPasses = 50;

// What one pass over every segment yields for the metrics that are not
// timings.
struct Pass {
  double offered = 0, lost = 0, overhead = 0, budget = 0, heap_mb = 0;
  double error_mean = 0, error_max = 0;
};

// Timings of one segment across passes.
struct SegmentTimes {
  std::vector<double> setup_s;
  std::vector<double> wall_s;
  std::vector<double> best_close_ms;  // per bin, the fastest repetition
  double packets = 0;
};

Result EndToEnd(const WorkloadSpec& spec, double seconds) {
  Result r;
  Checker checker(spec, r);
  std::vector<Pass> passes;
  std::vector<SegmentTimes> segs(spec.segments);
  const double begin = NowS();
  for (;;) {
    const double elapsed = NowS() - begin;
    const double per_pass = passes.empty() ? 0.0 : elapsed / static_cast<double>(passes.size());
    if (passes.size() >= kMaxPasses ||
        (passes.size() >= kMinPasses && elapsed + per_pass > seconds)) {
      break;
    }
    Pass pass;
    for (size_t seg = 0; seg < spec.segments; ++seg) {
      Prepared prep;
      const Outcome o = RunOnce(spec, seg, prep, /*timed_calls=*/false);
      checker.Add(seg, o, "pass " + std::to_string(passes.size()));
      pass.offered += static_cast<double>(o.offered);
      pass.lost += static_cast<double>(o.lost);
      pass.overhead += o.overhead_cycles;
      pass.budget += o.budget_cycles;
      pass.error_mean += o.error_mean / static_cast<double>(spec.segments);
      pass.error_max += o.error_max / static_cast<double>(spec.segments);
      pass.heap_mb += o.heap_mb / static_cast<double>(spec.segments);

      SegmentTimes& t = segs[seg];
      t.setup_s.push_back(o.setup_s);
      t.wall_s.push_back(o.wall_s);
      t.packets = static_cast<double>(o.offered);
      if (t.best_close_ms.empty()) {
        t.best_close_ms = o.close_ms;
      }
      for (size_t b = 0; b < t.best_close_ms.size() && b < o.close_ms.size(); ++b) {
        t.best_close_ms[b] = std::min(t.best_close_ms[b], o.close_ms[b]);
      }
    }
    passes.push_back(pass);
  }

  // Timings: on a host shared with other tenants, speed drops by up to half
  // for seconds at a time, so each segment counts with its fastest
  // repetition (each bin with its fastest close) and set-up with its median
  // repetition.
  double setup = 0, packets = 0, wall = 0;
  std::vector<double> close;
  for (const SegmentTimes& t : segs) {
    setup += Median(t.setup_s);
    packets += t.packets;
    wall += *std::min_element(t.wall_s.begin(), t.wall_s.end());
    close.insert(close.end(), t.best_close_ms.begin(), t.best_close_ms.end());
  }
  // The rest: the median over passes of each pass's figure.
  auto median = [&](auto figure) {
    std::vector<double> v;
    for (const Pass& p : passes) {
      v.push_back(figure(p));
    }
    return Median(std::move(v));
  };
  Metrics& m = r.metrics;
  m["setup_s"] = {setup, "s"};
  m["pkts_per_s"] = {packets / wall, "1/s"};
  m["bin_ms_p50"] = {Percentile(close, 0.50), "ms"};
  m["bin_ms_p99"] = {Percentile(close, 0.99), "ms"};
  m["error_mean"] = {median([](const Pass& p) { return p.error_mean; }), "ratio"};
  m["error_max"] = {median([](const Pass& p) { return p.error_max; }), "ratio"};
  m["delivered_share"] = {median([](const Pass& p) { return 1.0 - p.lost / p.offered; }),
                          "ratio"};
  m["shed_overhead_share"] = {median([](const Pass& p) { return p.overhead / p.budget; }),
                              "ratio"};
  m["heap_mb"] = {median([](const Pass& p) { return p.heap_mb; }), "MB"};
  r.checks.push_back("passes=" + std::to_string(passes.size()) +
                     " segments=" + std::to_string(spec.segments) +
                     " bins=" + std::to_string(close.size()) +
                     " seconds=" + JsonNumber(NowS() - begin) +
                     " peak_rss_mb=" + JsonNumber(PeakRssMb()) +
                     " minflt=" + std::to_string(MinorFaults()));
  return r;
}

Result Traced(const WorkloadSpec& spec, const std::string& spans_out) {
  Result r;
  Checker checker(spec, r);
  LayerReplay replay(spec);
  double generate = 0, calibrate = 0, build = 0, spread = 0;
  double plain_wall = 0, timed_wall = 0, push = 0, advance = 0, finish = 0, pushed = 0;
  double ps = 0, ls = 0, qc = 0, como = 0, capacity = 0, rate_sum = 0, rate_n = 0;
  double overload = 0, bins = 0;
  for (size_t seg = 0; seg < spec.segments; ++seg) {
    Prepared prep;
    const Outcome plain = RunOnce(spec, seg, prep, /*timed_calls=*/false);
    checker.Add(seg, plain, "plain");
    {
      Prepared timed_prep;
      const Outcome timed = RunOnce(spec, seg, timed_prep, /*timed_calls=*/true);
      checker.Add(seg, timed, "timed");
      timed_wall += timed.wall_s;
      push += timed.calls.push_s;
      advance += timed.calls.advance_s;
      finish += timed.calls.finish_s;
      pushed += static_cast<double>(timed.calls.pushed);
    }
    replay.Replay(prep, plain);

    std::vector<double> passes = prep.calibrate_passes;
    std::sort(passes.begin(), passes.end());
    spread = std::max(spread, (passes.back() - passes.front()) / Median(passes));
    generate += prep.generate_s;
    calibrate += prep.calibrate_s;
    build += prep.build_s;
    plain_wall += plain.wall_s;
    capacity += prep.capacity * static_cast<double>(plain.log.size());
    for (const core::BinLog& b : plain.log) {
      ps += b.ps_cycles;
      ls += b.ls_cycles;
      qc += b.query_cycles;
      como += b.como_cycles;
      overload += b.overload ? 1 : 0;
      bins += 1;
      for (double x : b.rate) {
        rate_sum += x;
        rate_n += 1;
      }
    }
  }
  Outcome live;
  if (spec.live_probe) {
    const WorkloadSpec probe = LiveProbe(spec.seed);
    Prepared prep;
    live = RunOnce(probe, 0, prep, /*timed_calls=*/false);
    Checker(probe, r).Add(0, live, "live");
    replay.DecodeFrames(prep.trace);
  }

  Metrics& m = r.metrics;
  m = replay.Result();

  // Set-up, summed over segments.
  m["trace.generate_ms"] = {generate * 1e3, "ms"};
  m["core.calibrate_ms"] = {calibrate * 1e3, "ms"};
  m["core.calibrate_spread"] = {spread, "ratio"};
  m["api.build_ms"] = {build * 1e3, "ms"};

  // Calls into api::Pipeline, timed from outside.
  m["api.push_ns_per_pkt"] = {push * 1e9 / pushed, "ns"};
  m["api.finish_ms"] = {finish * 1e3 / static_cast<double>(spec.segments), "ms"};
  m["api.unattributed_share"] = {1.0 - (push + advance + finish) / timed_wall, "ratio"};
  m["bench.trace_overhead_share"] = {timed_wall / plain_wall - 1.0, "ratio"};

  // Charged cycles and shedding decisions, from the plain run's BinLogs.
  m["core.ps_cycles_per_bin"] = {ps / bins, "cycles"};
  m["core.ls_cycles_per_bin"] = {ls / bins, "cycles"};
  m["core.query_cycles_per_bin"] = {qc / bins, "cycles"};
  m["core.como_cycles_per_bin"] = {como / bins, "cycles"};
  m["core.capacity_cycles_per_bin"] = {capacity / bins, "cycles"};
  m["shed.srate_mean"] = {rate_sum / rate_n, "ratio"};
  m["shed.overload_bin_share"] = {overload / bins, "ratio"};

  const capture::CaptureStats& cap = live.capture;
  const double offered = static_cast<double>(std::max<uint64_t>(1, live.offered));
  m["capture.frames"] = {static_cast<double>(cap.frames), "count"};
  m["capture.dropped_late"] = {static_cast<double>(cap.dropped_late), "count"};
  m["capture.dropped_queue"] = {static_cast<double>(cap.dropped_queue), "count"};
  m["capture.dropped_no_slot"] = {static_cast<double>(cap.dropped_no_slot), "count"};
  m["capture.unaccounted"] = {static_cast<double>(live.unaccounted), "count"};
  m["capture.loss_share"] = {static_cast<double>(live.lost) / offered, "ratio"};
  m["capture.pkts_per_s"] = {live.wall_s > 0 ? static_cast<double>(live.offered) / live.wall_s : 0.0,
                             "1/s"};
  m["capture.bin_lag_ms_p50"] = {Percentile(live.lag_ms, 0.50), "ms"};
  m["capture.bin_lag_ms_p95"] = {Percentile(live.lag_ms, 0.95), "ms"};
  if (!spans_out.empty()) {
    std::ofstream(spans_out) << replay.SpanSummary();
  }
  return r;
}

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string Context(unsigned nproc, double parallelism, const std::string& commit) {
  std::ostringstream os;
  os << "{\"nproc\": " << nproc << ", \"effective_parallelism\": " << JsonNumber(parallelism)
     << ", \"compiler\": " << JsonString(kCompiler)
     << ", \"build_type\": " << JsonString(PERFBENCH_BUILD_TYPE)
     << ", \"commit\": " << JsonString(commit) << "}";
  return os.str();
}

int Usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>"
               " [--commit <id>] [--spans-out <file>]\n";
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int traced = -1;
  std::string commit = "unknown";
  std::string spans_out;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      seed = std::strtoull(value.c_str(), nullptr, 10);
      have_seed = true;
    } else if (key == "--seconds") {
      seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      traced = std::atoi(value.c_str());
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--spans-out") {
      spans_out = value;
    } else {
      return Usage(("unknown flag " + key).c_str());
    }
  }
  if (workload.empty() || !have_seed || seconds <= 0 || (traced != 0 && traced != 1)) {
    return Usage("missing or bad arguments");
  }

  try {
    const WorkloadSpec spec = MakeWorkload(workload, seed);
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const std::string context = Context(nproc, BurnProbe(nproc), commit);
    const Result r = traced == 1 ? Traced(spec, spans_out) : EndToEnd(spec, seconds);

    std::ostringstream os;
    os << "{\"correct\": " << (r.correct ? "true" : "false") << ", \"attempted\": " << r.attempted
       << ", \"failed\": " << r.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : r.metrics) {
      os << (first ? "" : ", ") << JsonString(name) << ": {\"value\": " << JsonNumber(value.first)
         << ", \"unit\": " << JsonString(value.second) << "}";
      first = false;
    }
    os << "}, \"context\": " << context << ", \"checks\": [";
    for (size_t i = 0; i < r.checks.size(); ++i) {
      os << (i ? ", " : "") << JsonString(r.checks[i]);
    }
    os << "]}";
    std::cout << os.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
