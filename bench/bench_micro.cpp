// Micro-benchmarks (google-benchmark) for the per-packet primitives whose
// "deterministic worst-case cost" the paper's design relies on (§3.2.1):
// H3 hashing (fused and per-aggregate), bitmap counting, feature extraction
// and per-query re-extraction, FCBF + MLR fitting, samplers, Boyer-Moore,
// the allocation strategies, and a whole-pipeline packets/sec run.
//
// Run with --benchmark_out=<file> --benchmark_out_format=json to produce the
// machine-readable results that BENCH_*.json baselines are built from (see
// tools/make_bench_baseline.py and the "Performance" section of README.md).

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "src/api/pipeline.h"
#include "src/core/cost.h"
#include "src/core/system.h"
#include "src/obs/trace.h"
#include "src/features/extractor.h"
#include "src/predict/fcbf.h"
#include "src/predict/predictors.h"
#include "src/query/boyer_moore.h"
#include "src/query/queries.h"
#include "src/shed/sampler.h"
#include "src/shed/strategy.h"
#include "src/sketch/bitmap.h"
#include "src/sketch/fused_hash.h"
#include "src/sketch/h3.h"
#include "src/trace/batch.h"
#include "src/trace/generator.h"
#include "src/trace/spec.h"
#include "src/util/rng.h"

namespace {

using namespace shedmon;

const trace::Trace& SharedTrace() {
  static const trace::Trace trace = [] {
    trace::TraceSpec spec = trace::CescaII();
    spec.duration_s = 3.0;
    return trace::TraceGenerator(spec).Generate();
  }();
  return trace;
}

const trace::Batch& SharedBatch() {
  static trace::Batch batch = [] {
    trace::Batcher batcher(SharedTrace(), 1'000'000);
    trace::Batch b;
    batcher.Next(b);
    return b;
  }();
  return batch;
}

// SharedBatch with every packet given its own 5-tuple: the shape of a
// spoofed SYN flood, and the tuple index's worst case (no packet repeats a
// tuple, so every packet is hashed and folded in full).
const trace::PacketVec& AllDistinctBatch() {
  static const std::vector<net::PacketRecord> records = [] {
    std::vector<net::PacketRecord> out;
    util::Rng rng(10);
    for (const net::Packet& pkt : SharedBatch().packets) {
      net::PacketRecord rec = *pkt.rec;
      rec.tuple.src_ip = static_cast<uint32_t>(out.size()) * 2654435761u;
      rec.tuple.src_port = static_cast<uint16_t>(rng.NextU64());
      out.push_back(rec);
    }
    return out;
  }();
  static const trace::PacketVec packets = [] {
    trace::PacketVec out;
    for (const net::PacketRecord& rec : records) {
      net::Packet p;
      p.rec = &rec;
      out.push_back(p);
    }
    return out;
  }();
  return packets;
}

void BM_H3Hash(benchmark::State& state) {
  sketch::H3Hash hash(1);
  const auto& packets = SharedBatch().packets;
  size_t i = 0;
  for (auto _ : state) {
    const auto key = packets[i % packets.size()].rec->tuple.Bytes();
    benchmark::DoNotOptimize(hash.Hash(key.data(), key.size()));
    ++i;
  }
}
BENCHMARK(BM_H3Hash);

// A/B pair for the fused hot path: all ten per-aggregate hashes of a packet
// computed in one fused table pass vs. the pre-fusion reference (key
// materialization + one H3 walk per aggregate). Identical outputs; the ratio
// is the point.
void BM_FusedAggregateHash(benchmark::State& state) {
  const sketch::FusedTupleHasher fused = features::MakeAggregateHasher(0x5eed);
  const auto& packets = SharedBatch().packets;
  std::array<uint64_t, features::kNumAggregates> h{};
  size_t i = 0;
  for (auto _ : state) {
    const auto key = packets[i % packets.size()].rec->tuple.Bytes();
    fused.HashAllFixed<13, features::kNumAggregates>(key.data(), h);
    benchmark::DoNotOptimize(h);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FusedAggregateHash);

void BM_UnfusedAggregateHash(benchmark::State& state) {
  std::vector<sketch::H3Hash> hashes;
  for (int a = 0; a < features::kNumAggregates; ++a) {
    hashes.emplace_back(
        features::AggregateHashSeed(0x5eed, static_cast<features::Aggregate>(a)));
  }
  const auto& packets = SharedBatch().packets;
  std::array<uint64_t, features::kNumAggregates> h{};
  uint8_t key[13];
  size_t i = 0;
  for (auto _ : state) {
    const net::FiveTuple& t = packets[i % packets.size()].rec->tuple;
    for (int a = 0; a < features::kNumAggregates; ++a) {
      const size_t len =
          features::AggregateKey(t, static_cast<features::Aggregate>(a), key);
      h[static_cast<size_t>(a)] = hashes[static_cast<size_t>(a)].Hash(key, len);
    }
    benchmark::DoNotOptimize(h);
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_UnfusedAggregateHash);

void BM_MultiResBitmapInsert(benchmark::State& state) {
  sketch::MultiResBitmap bitmap;
  util::Rng rng(2);
  for (auto _ : state) {
    bitmap.Insert(rng.NextU64());
  }
}
BENCHMARK(BM_MultiResBitmapInsert);

void BM_MultiResBitmapEstimate(benchmark::State& state) {
  sketch::MultiResBitmap bitmap;
  util::Rng rng(3);
  for (int i = 0; i < 10000; ++i) {
    bitmap.Insert(rng.NextU64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(bitmap.Estimate());
  }
}
BENCHMARK(BM_MultiResBitmapEstimate);

void BM_FeatureExtraction(benchmark::State& state) {
  features::FeatureExtractor extractor;
  const auto& packets = SharedBatch().packets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(packets));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FeatureExtraction);

void BM_FeatureExtractionAllDistinct(benchmark::State& state) {
  features::FeatureExtractor extractor;
  const auto& packets = AllDistinctBatch();
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(packets));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FeatureExtractionAllDistinct);

// One query's re-extraction in the predictive path: the shared extraction
// has indexed the batch, the query kept 26% of it (packet sampling), and its
// own extractor folds the index's cached hashes over the kept positions.
// Items are kept packets.
void BM_ReExtraction(benchmark::State& state) {
  const auto& packets = SharedBatch().packets;
  features::FeatureExtractor shared;
  (void)shared.Extract(packets);
  shed::PacketSampler sampler(11);
  std::vector<uint32_t> positions;
  sampler.SelectInto(packets.size(), 0.26, positions);
  features::FeatureExtractor extractor;
  for (auto _ : state) {
    benchmark::DoNotOptimize(extractor.Extract(shared.index(), positions));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(positions.size()));
}
BENCHMARK(BM_ReExtraction);

void BM_MlrFitAndPredict(benchmark::State& state) {
  predict::MlrPredictor::Config cfg;
  cfg.history = static_cast<size_t>(state.range(0));
  predict::MlrPredictor predictor(cfg);
  util::Rng rng(4);
  features::FeatureVector f{};
  for (size_t i = 0; i < cfg.history; ++i) {
    f[features::kFeatPackets] = 100.0 + rng.NextDouble() * 400.0;
    f[features::kFeatBytes] = f[features::kFeatPackets] * 700.0;
    f[features::kFeatNewFiveTuple] = 10.0 + rng.NextDouble() * 100.0;
    predictor.Observe(f, 40.0 * f[features::kFeatPackets]);
  }
  for (auto _ : state) {
    f[features::kFeatPackets] = 100.0 + rng.NextDouble() * 400.0;
    f[features::kFeatBytes] = f[features::kFeatPackets] * 700.0;
    predictor.Observe(f, 40.0 * f[features::kFeatPackets]);
    benchmark::DoNotOptimize(predictor.Predict(f));
  }
}
BENCHMARK(BM_MlrFitAndPredict)->Arg(30)->Arg(60)->Arg(120);

// Every one of the 42 columns varies, each a different mix of two traffic
// drivers plus noise, so FCBF ranks most of them and its redundancy phase
// compares many pairs; BM_MlrFitAndPredict varies only three columns.
features::FeatureVector CorrelatedFeatures(util::Rng& rng, double* cycles) {
  const double pkts = 100.0 + rng.NextDouble() * 400.0;
  const double flows = 10.0 + rng.NextDouble() * 100.0;
  features::FeatureVector f{};
  for (size_t c = 0; c < f.size(); ++c) {
    const double w = static_cast<double>(c) / static_cast<double>(f.size() - 1);
    f[c] = (1.0 - w) * pkts * (1.0 + static_cast<double>(c)) + w * flows * 50.0 +
           rng.NextGaussian() * 5.0;
  }
  *cycles = 40.0 * pkts + 300.0 * flows;
  return f;
}

void BM_MlrFitAndPredictAllFeatures(benchmark::State& state) {
  predict::MlrPredictor::Config cfg;
  cfg.history = static_cast<size_t>(state.range(0));
  predict::MlrPredictor predictor(cfg);
  util::Rng rng(4);
  double cycles = 0.0;
  for (size_t i = 0; i < cfg.history; ++i) {
    const features::FeatureVector f = CorrelatedFeatures(rng, &cycles);
    predictor.Observe(f, cycles);
  }
  for (auto _ : state) {
    const features::FeatureVector f = CorrelatedFeatures(rng, &cycles);
    predictor.Observe(f, cycles);
    benchmark::DoNotOptimize(predictor.Predict(f));
  }
}
BENCHMARK(BM_MlrFitAndPredictAllFeatures)->Arg(60);

// FCBF alone, over the centred co-moments of a 60-row random window (the
// moments are what MlrPredictor keeps; building them is outside the loop).
void BM_FcbfSelectionFromMoments(benchmark::State& state) {
  const size_t n = 60;
  constexpr size_t kDims = features::kNumFeatures + 1;  // features, then the response
  std::vector<std::array<double, kDims>> rows(n);
  util::Rng rng(5);
  for (auto& row : rows) {
    for (size_t c = 0; c + 1 < kDims; ++c) {
      row[c] = rng.NextDouble() * 100.0;
    }
    row[kDims - 1] = row[0] * 40.0 + rng.NextGaussian();
  }
  std::array<double, kDims> mean{};
  for (const auto& row : rows) {
    for (size_t c = 0; c < kDims; ++c) {
      mean[c] += row[c] / static_cast<double>(n);
    }
  }
  predict::SymmetricMatrix comoments(kDims);
  for (const auto& row : rows) {
    for (size_t i = 0; i < kDims; ++i) {
      for (size_t j = i; j < kDims; ++j) {
        comoments.At(i, j) += (row[i] - mean[i]) * (row[j] - mean[j]);
      }
    }
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(predict::SelectFeatures(comoments, 0.6));
  }
}
BENCHMARK(BM_FcbfSelectionFromMoments);

void BM_PacketSampler(benchmark::State& state) {
  shed::PacketSampler sampler(6);
  const auto& packets = SharedBatch().packets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(packets, 0.5));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_PacketSampler);

void BM_FlowSampler(benchmark::State& state) {
  shed::FlowSampler sampler(7);
  const auto& packets = SharedBatch().packets;
  for (auto _ : state) {
    benchmark::DoNotOptimize(sampler.Sample(packets, 0.5));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FlowSampler);

// In-place sampling into a reused caller-owned buffer: the per-bin path of
// MonitoringSystem's per-query execute phase, which allocates nothing after
// warm-up.
void BM_PacketSamplerInto(benchmark::State& state) {
  shed::PacketSampler sampler(6);
  const auto& packets = SharedBatch().packets;
  trace::PacketVec out;
  for (auto _ : state) {
    sampler.SampleInto(packets, 0.5, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_PacketSamplerInto);

void BM_FlowSamplerInto(benchmark::State& state) {
  shed::FlowSampler sampler(7);
  const auto& packets = SharedBatch().packets;
  trace::PacketVec out;
  for (auto _ : state) {
    sampler.SampleInto(packets, 0.5, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FlowSamplerInto);

void BM_FlowSamplerIntoAllDistinct(benchmark::State& state) {
  shed::FlowSampler sampler(7);
  const auto& packets = AllDistinctBatch();
  trace::PacketVec out;
  for (auto _ : state) {
    sampler.SampleInto(packets, 0.5, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}
BENCHMARK(BM_FlowSamplerIntoAllDistinct);

// Flow sampling as the predictive path runs it: the shared extraction has
// indexed the batch (outside the timed loop, it is charged to extraction),
// the sampler hashes each distinct tuple once and the kept positions are
// gathered into a reused buffer. Compare with BM_FlowSamplerInto*, which
// hash every packet.
void FlowSamplerSelect(benchmark::State& state, const trace::PacketVec& packets) {
  features::FeatureExtractor shared;
  (void)shared.Extract(packets);
  const features::TupleIndex& index = shared.index();
  shed::FlowSampler sampler(7);
  std::vector<uint32_t> positions;
  trace::PacketVec out;
  for (auto _ : state) {
    sampler.SelectInto(index.tuples, index.tuple_of, 0.5, positions);
    shed::Gather(packets, positions, out);
    benchmark::DoNotOptimize(out.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(packets.size()));
}

void BM_FlowSamplerSelect(benchmark::State& state) {
  FlowSamplerSelect(state, SharedBatch().packets);
}
BENCHMARK(BM_FlowSamplerSelect);

void BM_FlowSamplerSelectAllDistinct(benchmark::State& state) {
  FlowSamplerSelect(state, AllDistinctBatch());
}
BENCHMARK(BM_FlowSamplerSelectAllDistinct);

void BM_BoyerMoore(benchmark::State& state) {
  const query::BoyerMoore matcher("GET / HTTP/1.1");
  std::vector<uint8_t> text(1460);
  util::Rng rng(8);
  for (auto& b : text) {
    b = static_cast<uint8_t>(rng.NextU64());
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(matcher.Find(text.data(), text.size()));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(text.size()));
}
BENCHMARK(BM_BoyerMoore);

void BM_MmfsAllocation(benchmark::State& state) {
  const auto strategy = shed::MakeStrategy(shed::StrategyKind::kMmfsPkt);
  std::vector<shed::QueryDemand> demands(static_cast<size_t>(state.range(0)));
  util::Rng rng(9);
  double total = 0.0;
  for (auto& d : demands) {
    d.predicted_cycles = 100.0 + rng.NextDouble() * 1000.0;
    d.min_sampling_rate = rng.NextDouble() * 0.5;
    total += d.predicted_cycles;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(strategy->Allocate(demands, total * 0.5));
  }
}
BENCHMARK(BM_MmfsAllocation)->Arg(8)->Arg(64);

// Whole-pipeline throughput: batching, prediction-stage extraction, shedding
// and two standard queries over the shared trace, under the deterministic
// model oracle. The items/sec figure is end-to-end packets per second of the
// monitoring system, the number the paper's "negligible shedder overhead"
// claim cashes out to.
void BM_PipelinePackets(benchmark::State& state) {
  const trace::Trace& trace = SharedTrace();
  for (auto _ : state) {
    core::SystemConfig cfg;
    core::MonitoringSystem system(cfg, core::MakeOracle(core::OracleKind::kModel));
    system.AddQuery(query::MakeQuery("counter"));
    system.AddQuery(query::MakeQuery("flows"));
    trace::Batcher batcher(trace, cfg.time_bin_us);
    trace::Batch batch;
    while (batcher.Next(batch)) {
      system.ProcessBatch(batch);
    }
    system.Finish();
    benchmark::DoNotOptimize(system.total_packets());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.packets.size()));
}
BENCHMARK(BM_PipelinePackets)->Unit(benchmark::kMillisecond);

// Same workload with the span tracer armed on every stage: the paired gate
// in tools/compare_bench.py holds this within 5% of BM_PipelinePackets, the
// budget the lock-free per-thread rings are designed to.
void BM_PipelinePacketsTraced(benchmark::State& state) {
  const trace::Trace& trace = SharedTrace();
  for (auto _ : state) {
    core::SystemConfig cfg;
    core::MonitoringSystem system(cfg, core::MakeOracle(core::OracleKind::kModel));
    obs::Tracer tracer;
    tracer.AttachMetrics(&system.metrics());
    system.SetTracer(&tracer);
    system.AddQuery(query::MakeQuery("counter"));
    system.AddQuery(query::MakeQuery("flows"));
    trace::Batcher batcher(trace, cfg.time_bin_us);
    trace::Batch batch;
    while (batcher.Next(batch)) {
      system.ProcessBatch(batch);
    }
    system.Finish();
    benchmark::DoNotOptimize(system.total_packets());
    benchmark::DoNotOptimize(tracer.dropped());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.packets.size()));
}
BENCHMARK(BM_PipelinePacketsTraced)->Unit(benchmark::kMillisecond);

// Fourteen-query workload for BM_PipelinePacketsThreads: the standard mix
// plus duplicate instances, the shape of a CoMo box loaded with many user
// queries. Duplicating the byte-heavy giants (trace, pattern-search) keeps
// any single query under a quarter of the total work, so the LPT schedule
// stays balanced at four workers.
std::vector<std::string> ScalingWorkload() {
  return {"counter", "flows",          "application", "top-k", "autofocus",
          "super-sources", "high-watermark", "trace",       "flows", "pattern-search",
          "top-k",   "application",    "trace",       "pattern-search"};
}

// Deterministic parallel-makespan speedup of a finished run under the model
// oracle: per-bin query work (BinLog::per_query_cycles) is assigned to
// `threads` workers greedily (LPT); the shared prediction-stage extraction
// plus subsystem overheads (ps, ls, como) stay on the coordinator. This is
// the machine-independent companion to the wall-clock numbers: on a
// single-core host (like the box that records BENCH_*.json) the wall clock
// cannot scale, but the model makespan — computed from the same
// bit-reproducible cycle charges — shows what the thread pool buys. Each
// query's batch is one task, so the costliest query bounds the schedule;
// treat the counter as that bound, not a measurement.
double ModelMakespanSpeedup(const std::vector<core::BinLog>& log, size_t threads) {
  if (threads == 0) {
    threads = 1;
  }
  double serial_total = 0.0;
  double parallel_total = 0.0;
  for (const core::BinLog& bin : log) {
    // como_cycles is an emulated accounting charge (capture/storage share of
    // the budget), not work this process executes, so it is not part of
    // either schedule.
    const double coordinator = bin.ps_cycles + bin.ls_cycles;
    std::vector<double> work(bin.per_query_cycles.begin(), bin.per_query_cycles.end());
    std::sort(work.begin(), work.end(), std::greater<double>());
    std::vector<double> workers(threads, 0.0);
    for (const double w : work) {
      *std::min_element(workers.begin(), workers.end()) += w;
    }
    serial_total += coordinator + bin.query_cycles;
    parallel_total += coordinator + *std::max_element(workers.begin(), workers.end());
  }
  return parallel_total > 0.0 ? serial_total / parallel_total : 1.0;
}

// Whole-pipeline thread-scaling benchmark: per-query stages fanned out over
// SystemConfig::num_threads workers (threads:0 = the serial path). Outputs
// are bit-identical at every thread count, so the throughput ratio is pure
// execution speed. items_per_second is wall-clock (needs >= `threads` cores
// to scale); the model_speedup counter is the deterministic makespan ratio
// defined above.
void BM_PipelinePacketsThreads(benchmark::State& state) {
  const trace::Trace& trace = SharedTrace();
  const size_t threads = static_cast<size_t>(state.range(0));
  double model_speedup = 1.0;
  for (auto _ : state) {
    core::SystemConfig cfg;
    // Ample budget: no shedding, so every query processes full batches and
    // the parallel stages carry all the work the serial path would.
    cfg.cycles_per_bin = 1e15;
    cfg.num_threads = threads;
    core::MonitoringSystem system(cfg, core::MakeOracle(core::OracleKind::kModel));
    for (const auto& name : ScalingWorkload()) {
      system.AddQuery(query::MakeQuery(name));
    }
    trace::Batcher batcher(trace, cfg.time_bin_us);
    trace::Batch batch;
    while (batcher.Next(batch)) {
      system.ProcessBatch(batch);
    }
    system.Finish();
    benchmark::DoNotOptimize(system.total_packets());
    model_speedup = ModelMakespanSpeedup(system.log(), threads);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(trace.packets.size()));
  state.counters["model_speedup"] = model_speedup;
}
BENCHMARK(BM_PipelinePacketsThreads)
    ->ArgName("threads")
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    // Wall-clock rates: with workers doing the processing, the main thread's
    // CPU time would overstate throughput.
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// Capture ingest: copied vs pinned payloads
// ---------------------------------------------------------------------------

// Steady-state ingest in the capture front-end's shape: bins close every
// 100 ms of packet time (AdvanceTime, as the capture consumer drives it), so
// the reused open-bin Batch stays at one bin's size. The pipeline has no
// queries and tracks no accuracy, so a bin close costs only the bin
// bookkeeping. The copied_bytes_per_packet counter is the measurable form of
// the capture front-end's zero-copy claim: the pinned path must report 0.0
// while the arena-copy path reports the mean payload size.
std::unique_ptr<api::Pipeline> IngestOnlyPipeline() {
  core::SystemConfig config;
  config.shedder = core::ShedderKind::kNoShed;
  config.cycles_per_bin = 1e15;
  api::PipelineBuilder builder;
  builder.Config(config).TrackAccuracy(false);
  return builder.BuildUnique();
}

void RunCaptureIngest(benchmark::State& state, bool pinned) {
  const trace::Trace& trace = SharedTrace();
  // Materialize every payload once up front; the bench then measures only
  // the ingest boundary, the same shape as capture slots feeding the
  // pipeline.
  std::vector<std::vector<uint8_t>> payloads;
  payloads.reserve(trace.packets.size());
  for (const auto& rec : trace.packets) {
    payloads.emplace_back(rec.payload_len);
    if (rec.payload_len > 0) {
      trace::MaterializePayload(rec, payloads.back().data());
    }
  }

  auto pipeline = IngestOnlyPipeline();
  const uint64_t bin_us = pipeline->time_bin_us();
  // Each pass over the trace is shifted past the previous one, whole bins
  // apart, so timestamps keep rising.
  const uint64_t lap_us = (trace.duration_us() / bin_us + 1) * bin_us;
  uint64_t offset_us = 0;
  uint64_t next_close_us = 0;
  uint64_t payload_bytes = 0;
  int64_t pushes = 0;
  size_t i = 0;
  for (auto _ : state) {
    net::PacketRecord rec = trace.packets[i];
    rec.ts_us += offset_us;
    if (rec.ts_us >= next_close_us) {
      pipeline->AdvanceTime(rec.ts_us);
      next_close_us = (rec.ts_us / bin_us + 1) * bin_us;
    }
    const net::Packet packet{&rec, payloads[i].empty() ? nullptr : payloads[i].data(),
                             rec.payload_len};
    if (pinned) {
      pipeline->PushPinned(packet);
    } else {
      pipeline->Push(packet);
    }
    payload_bytes += rec.payload_len;
    ++pushes;
    if (++i == trace.packets.size()) {
      i = 0;
      offset_us += lap_us;
    }
  }
  pipeline->Finish();  // Stats() snapshots refresh on bin close
  const uint64_t copied = pipeline->Stats().ingest_copied_bytes;
  state.SetItemsProcessed(pushes);
  state.SetBytesProcessed(static_cast<int64_t>(payload_bytes));
  state.counters["copied_bytes_per_packet"] =
      pushes > 0 ? static_cast<double>(copied) / static_cast<double>(pushes) : 0.0;
}

void BM_CaptureIngestCopy(benchmark::State& state) { RunCaptureIngest(state, false); }
BENCHMARK(BM_CaptureIngestCopy);

void BM_CaptureIngestPinned(benchmark::State& state) { RunCaptureIngest(state, true); }
BENCHMARK(BM_CaptureIngestPinned);

}  // namespace

BENCHMARK_MAIN();
