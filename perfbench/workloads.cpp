// Workload definitions and the end-to-end repetition: set up (generate,
// calibrate, build), drive api::Pipeline exactly as a user would (offline
// Push, or a loopback TCP replay into CaptureFrom), then check invariants.
#include <arpa/inet.h>
#include <malloc.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <span>
#include <stdexcept>

#include "perfbench/common.h"
#include "src/api/pipeline.h"
#include "src/core/runner.h"
#include "src/query/queries.h"
#include "src/trace/pcap.h"
#include "src/trace/spec.h"

namespace perfbench {

namespace {

constexpr uint64_t kBinUs = 100'000;
// Capacity is (1 - K) x the mean full demand: K = 0.5 makes demand twice the
// capacity, the thesis's standard overload.
constexpr double kOverloadK = 0.5;

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

uint64_t WorkloadSpec::SegmentSeed(size_t index) const {
  return SplitMix64(seed * 1'000'003ULL + index);
}

WorkloadSpec MakeWorkload(std::string_view name, uint64_t seed) {
  if (name != "payload10" && name != "payload10_measured") {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  WorkloadSpec w;
  w.seed = seed;
  w.trace = trace::CescaII();
  w.trace.duration_s = 60.0;
  w.queries = query::AllQueryNames();
  if (name == "payload10") {
    w.segments = 8;
    w.live_probe = true;
  } else {
    w.segments = 5;
    w.oracle = core::OracleKind::kMeasured;
    w.calibration_passes = 3;
  }
  return w;
}

WorkloadSpec LiveProbe(uint64_t seed) {
  WorkloadSpec w;
  w.seed = seed;
  w.trace = trace::CescaI();
  w.trace.duration_s = 8.0;
  w.trace.flows_per_s *= 2.5;
  w.queries = {"counter", "flows", "application"};
  w.live = true;
  return w;
}

namespace {

// Records the wall time at which each bin's results reach observers. Live,
// OnBin runs on the capture thread; read `at` only after Finish() has joined
// it.
struct BinTimes : api::BinObserver {
  void OnBin(const core::BinLog& log, const api::BinStats& /*stats*/) override {
    at.emplace_back(log.start_us / kBinUs, NowS());
  }
  std::vector<std::pair<uint64_t, double>> at;
};

// FNV-1a over the bit patterns of everything a BinLog and the accuracy rows
// hold, so two runs agree on the digest iff they agree field for field.
class Digest {
 public:
  template <typename T>
  void Add(const T& value) {
    unsigned char bytes[sizeof(T)];
    std::memcpy(bytes, &value, sizeof(T));
    for (unsigned char b : bytes) {
      h_ = (h_ ^ b) * 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

uint64_t DigestRun(const std::vector<core::BinLog>& log, const std::vector<double>& errors) {
  Digest d;
  for (const core::BinLog& b : log) {
    d.Add(b.start_us);
    d.Add(b.packets_in);
    d.Add(b.packets_dropped);
    d.Add(b.packets_unsampled);
    d.Add(b.batch_dropped);
    d.Add(b.overload);
    d.Add(b.predicted_cycles);
    d.Add(b.avail_cycles);
    d.Add(b.query_cycles);
    d.Add(b.ps_cycles);
    d.Add(b.ls_cycles);
    d.Add(b.backlog_cycles);
    for (double r : b.rate) d.Add(r);
    for (double c : b.per_query_cycles) d.Add(c);
    for (bool x : b.disabled) d.Add(x);
  }
  for (double e : errors) d.Add(e);
  return d.value();
}

api::PipelineBuilder Builder(const WorkloadSpec& spec, double capacity) {
  api::PipelineBuilder b;
  b.Shedder(core::ShedderKind::kPredictive)
      .Strategy(shed::StrategyKind::kMmfsPkt)
      .Oracle(spec.oracle)
      .CyclesPerBin(capacity)
      .Threads(0)
      .TimeBin(kBinUs);
  for (const std::string& q : spec.queries) {
    b.AddQuery(q);
  }
  return b;
}

void Prepare(const WorkloadSpec& spec, size_t segment, Prepared& p) {
  double t = NowS();
  trace::TraceSpec ts = spec.trace;
  ts.seed = spec.SegmentSeed(segment);
  p.trace = trace::TraceGenerator(ts).Generate();
  p.generate_s = NowS() - t;

  t = NowS();
  p.calibrate_passes.clear();
  for (int i = 0; i < spec.calibration_passes; ++i) {
    p.calibrate_passes.push_back(
        core::MeasureMeanDemand(spec.queries, p.trace, spec.oracle, kBinUs));
  }
  std::vector<double> sorted = p.calibrate_passes;
  std::sort(sorted.begin(), sorted.end());
  p.capacity = (1.0 - kOverloadK) * sorted[sorted.size() / 2];
  p.calibrate_s = NowS() - t;
}

// Per-bin invariants shared by the offline and live runs. `processed_by_queries` is the
// sum over queries of the packets each one examined.
void CheckConservation(const std::vector<core::BinLog>& log, size_t num_queries,
                       uint64_t expected_in, double processed_by_queries,
                       std::vector<std::string>& violations) {
  uint64_t in = 0;
  double processed = 0.0;
  for (const core::BinLog& b : log) {
    in += b.packets_in;
    const double p = static_cast<double>(b.packets_in) - static_cast<double>(b.packets_dropped) -
                     b.packets_unsampled;
    if (p < -1e-6 || p > static_cast<double>(b.packets_in) + 1e-6) {
      violations.push_back("bin " + std::to_string(b.start_us / kBinUs) +
                           ": in != processed + sampled-out + dropped");
    }
    processed += p;
  }
  if (in != expected_in) {
    violations.push_back("binned " + std::to_string(in) + " packets, expected " +
                         std::to_string(expected_in));
  }
  const double per_query = processed_by_queries / static_cast<double>(num_queries);
  if (std::fabs(per_query - processed) > 1e-6 * std::max(1.0, processed)) {
    violations.push_back("queries examined " + std::to_string(per_query) +
                         " packets per query, BinLogs account for " + std::to_string(processed));
  }
}

// What the finished pipeline reports about accuracy and charges.
void Summarize(const api::Pipeline& p, const WorkloadSpec& spec, double capacity, Outcome& out) {
  // Everything the run holds is still alive here: trace, pipeline, BinLogs,
  // query state and reference instances.
  const struct mallinfo2 heap = mallinfo2();
  out.heap_mb = static_cast<double>(heap.uordblks + heap.hblkhd) / (1024.0 * 1024.0);
  out.log = p.log();
  std::vector<double> errors;
  double processed_by_queries = 0.0;
  for (size_t q = 0; q < p.num_queries(); ++q) {
    errors.push_back(p.AccuracyAt(q).mean_error);
    const query::Query& query = p.system().query(q);
    for (size_t i = 0; i < query.completed_intervals(); ++i) {
      processed_by_queries += query.IntervalPacketsProcessed(i);
    }
  }
  double sum = 0.0;
  for (double e : errors) {
    sum += e;
    out.error_max = std::max(out.error_max, e);
  }
  out.error_mean = sum / static_cast<double>(errors.size());

  for (const core::BinLog& b : out.log) {
    out.overhead_cycles += b.ps_cycles + b.ls_cycles;
    out.lost += b.packets_dropped;
  }
  out.budget_cycles = static_cast<double>(out.log.size()) * capacity;
  out.digest = DigestRun(out.log, errors);
  CheckConservation(out.log, spec.queries.size(), spec.live ? out.capture.packets : out.offered,
                    processed_by_queries, out.violations);
}

void RunOffline(const WorkloadSpec& spec, Prepared& prep, bool timed_calls, Outcome& out) {
  const trace::Trace& tr = prep.trace;
  double t = NowS();
  api::Pipeline p = Builder(spec, prep.capacity).Build();
  prep.build_s = NowS() - t;

  // The caller's packet currency: payload-less views, materialized by the
  // pipeline at ingestion exactly as for any record-holding caller.
  std::vector<net::Packet> views;
  views.reserve(tr.packets.size());
  for (const net::PacketRecord& r : tr.packets) {
    views.push_back(net::Packet::View(r));
  }
  const uint64_t num_bins = tr.duration_us() / kBinUs + 1;
  out.close_ms.reserve(num_bins);

  size_t next = 0;
  const double start = NowS();
  for (uint64_t bin = 0; bin < num_bins; ++bin) {
    const uint64_t end_us = (bin + 1) * kBinUs;
    size_t last = next;
    while (last < views.size() && tr.packets[last].ts_us < end_us) {
      ++last;
    }
    if (timed_calls) {
      const double t0 = NowS();
      p.Push(std::span<const net::Packet>(views.data() + next, last - next));
      out.calls.push_s += NowS() - t0;
      out.calls.pushed += last - next;
    } else {
      p.Push(std::span<const net::Packet>(views.data() + next, last - next));
    }
    next = last;
    const double t0 = NowS();
    p.AdvanceTime(end_us);
    const double t1 = NowS();
    out.close_ms.push_back((t1 - t0) * 1e3);
    if (timed_calls) {
      out.calls.advance_s += t1 - t0;
    }
  }
  const double t0 = NowS();
  p.Finish();
  const double end = NowS();
  out.calls.finish_s = end - t0;
  out.wall_s = end - start;
  out.offered = views.size();
  Summarize(p, spec, prep.capacity, out);
}

// Sends the trace over one loopback TCP connection with the SHMS stream
// framing of src/capture/capture.h, one send per record exactly like
// capture::ReplayTraceTcp, and additionally notes when each bin's last
// record left the sender.
size_t SendTrace(const trace::Trace& tr, uint16_t port, std::vector<double>& bin_sent_at) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    throw std::runtime_error("perfbench: socket() failed");
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("perfbench: cannot connect to the capture listener");
  }
  auto put32 = [](uint8_t* p, uint32_t v) {
    const uint32_t be = htonl(v);
    std::memcpy(p, &be, 4);
  };
  size_t sent = 0;
  std::vector<uint8_t> record;
  for (size_t i = 0; i < tr.packets.size(); ++i) {
    const net::PacketRecord& rec = tr.packets[i];
    const std::vector<uint8_t> frame = trace::SynthesizeFrame(rec);
    record.resize(capture::kStreamHeaderLen + frame.size());
    put32(record.data(), capture::kStreamMagic);
    put32(record.data() + 4, static_cast<uint32_t>(frame.size()));
    put32(record.data() + 8, static_cast<uint32_t>(rec.ts_us >> 32));
    put32(record.data() + 12, static_cast<uint32_t>(rec.ts_us));
    std::memcpy(record.data() + capture::kStreamHeaderLen, frame.data(), frame.size());
    size_t off = 0;
    bool ok = true;
    while (off < record.size()) {
      const ssize_t n = ::send(fd, record.data() + off, record.size() - off, MSG_NOSIGNAL);
      if (n <= 0) {
        ok = false;
        break;
      }
      off += static_cast<size_t>(n);
    }
    if (!ok) {
      break;
    }
    ++sent;
    const bool last_of_bin =
        i + 1 == tr.packets.size() || tr.packets[i + 1].ts_us / kBinUs != rec.ts_us / kBinUs;
    if (last_of_bin) {
      bin_sent_at[rec.ts_us / kBinUs] = NowS();
    }
  }
  ::close(fd);
  return sent;
}

void RunLive(const WorkloadSpec& spec, Prepared& prep, Outcome& out) {
  const trace::Trace& tr = prep.trace;
  double t = NowS();
  capture::CaptureConfig cc;
  cc.sources = {capture::SourceSpec::Tcp(0)};
  api::Pipeline p = Builder(spec, prep.capacity).CaptureFrom(cc).Build();
  BinTimes times;
  p.AddObserver(&times);
  prep.build_s = NowS() - t;
  const uint16_t port = p.capture()->port(0);

  const uint64_t num_bins = tr.duration_us() / kBinUs + 1;
  std::vector<double> sent_at(num_bins, 0.0);
  const double start = NowS();
  const size_t sent = SendTrace(tr, port, sent_at);
  // Finish right after the sender returns, as a user script would: frames
  // still in the socket buffer at this point are never captured and show up
  // as unaccounted.
  p.Finish();
  out.wall_s = NowS() - start;
  out.offered = tr.packets.size();
  out.capture = p.capture_stats();
  const uint64_t accounted = out.capture.packets + out.capture.dropped();
  if (accounted > sent) {
    out.violations.push_back("capture accounts for " + std::to_string(accounted) +
                             " frames, only " + std::to_string(sent) + " were sent");
  } else {
    out.unaccounted = sent - accounted;
  }
  if (sent != tr.packets.size()) {
    out.violations.push_back("sender stopped after " + std::to_string(sent) + " records");
  }

  for (const auto& [bin, at] : times.at) {
    if (bin < num_bins && sent_at[bin] > 0.0) {
      out.lag_ms.push_back((at - sent_at[bin]) * 1e3);
    }
  }
  Summarize(p, spec, prep.capacity, out);
  out.lost += out.capture.dropped() + out.unaccounted + (out.offered - sent);
}

}  // namespace

Outcome RunOnce(const WorkloadSpec& spec, size_t segment, Prepared& prepared, bool timed_calls) {
  Outcome out;
  const double t = NowS();
  Prepare(spec, segment, prepared);
  const double prepared_s = NowS() - t;
  if (spec.live) {
    RunLive(spec, prepared, out);
  } else {
    RunOffline(spec, prepared, timed_calls, out);
  }
  out.setup_s = prepared_s + prepared.build_s;
  return out;
}

}  // namespace perfbench
