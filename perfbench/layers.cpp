// The traced run's layer replay (see LayerReplay in common.h) and the span
// recorder it times calls with.
#include <algorithm>
#include <memory>
#include <sstream>
#include <unordered_set>

#include "perfbench/common.h"
#include "src/core/runner.h"
#include "src/features/extractor.h"
#include "src/net/frame.h"
#include "src/predict/engine.h"
#include "src/query/queries.h"
#include "src/shed/sampler.h"
#include "src/shed/strategy.h"
#include "src/trace/batch.h"
#include "src/trace/pcap.h"

namespace perfbench {

std::map<std::string, SpanLog::Total> SpanLog::Totals() const {
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, Total> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    Total& t = out[std::string(spans_[i].name)];
    t.count += 1;
    t.total_s += spans_[i].end - spans_[i].start;
    t.self_s += spans_[i].end - spans_[i].start - child[i];
  }
  return out;
}

LayerReplay::LayerReplay(const WorkloadSpec& spec) : spec_(spec) {
  for (const std::string& q : spec.queries) {
    sampled_names_.push_back("query." + q + ".sampled");
    full_names_.push_back("query." + q + ".full");
  }
}

void LayerReplay::Replay(const Prepared& prep, const Outcome& e2e) {
  // Per-query layer objects, as core::MonitoringSystem keeps them.
  struct QueryLayers {
    std::unique_ptr<query::Query> sampled;
    std::unique_ptr<query::Query> reference;
    std::unique_ptr<predict::PredictionEngine> engine;
    std::unique_ptr<shed::PacketSampler> pkt_sampler;
    std::unique_ptr<shed::FlowSampler> flow_sampler;
    trace::PacketVec buf;
    size_t bins_in_interval = 0;
  };
  const core::SystemConfig config;
  const trace::Trace& tr = prep.trace;
  const uint64_t bin_us = config.time_bin_us;
  const size_t n = spec_.queries.size();

  std::vector<QueryLayers> qs(n);
  for (size_t q = 0; q < n; ++q) {
    qs[q].sampled = query::MakeQuery(spec_.queries[q]);
    qs[q].reference = query::MakeQuery(spec_.queries[q]);
    qs[q].engine = std::make_unique<predict::PredictionEngine>(config.predictor, config.extractor);
    qs[q].pkt_sampler = std::make_unique<shed::PacketSampler>(config.seed + q);
    qs[q].flow_sampler = std::make_unique<shed::FlowSampler>(config.seed + q);
  }
  features::FeatureExtractor extractor(config.extractor);
  const auto strategy = shed::MakeStrategy(shed::StrategyKind::kMmfsPkt);
  std::vector<shed::QueryDemand> demands(n);
  for (size_t q = 0; q < n; ++q) {
    demands[q].min_sampling_rate = core::DefaultMinRate(spec_.queries[q]);
  }

  // The e2e run's decisions, by bin index.
  std::vector<const core::BinLog*> by_bin(tr.duration_us() / bin_us + 1, nullptr);
  for (const core::BinLog& b : e2e.log) {
    if (b.start_us / bin_us < by_bin.size()) {
      by_bin[b.start_us / bin_us] = &b;
    }
  }

  trace::Batcher batcher(tr, bin_us);
  trace::Batch batch;
  size_t sys_bins = 0;
  std::unordered_set<net::FiveTuple, net::FiveTupleHash> seen;
  for (;;) {
    const int bin = spans_.Begin("bin", -1);
    int s = spans_.Begin("trace.batch", bin);
    const bool more = batcher.Next(batch);
    spans_.End(s);
    if (!more) {
      spans_.End(bin);
      break;
    }
    const core::BinLog* log = by_bin[batch.start_us / bin_us];

    s = spans_.Begin("features.extract", bin);
    const features::FeatureVector full = extractor.Extract(batch.packets);
    spans_.End(s);

    s = spans_.Begin("predict.predict", bin);
    for (size_t q = 0; q < n; ++q) {
      demands[q].predicted_cycles = std::max(qs[q].engine->PredictCycles(full), 1.0);
    }
    spans_.End(s);

    s = spans_.Begin("shed.allocate", bin);
    const shed::Allocation alloc =
        strategy->Allocate(demands, log != nullptr ? log->avail_cycles : prep.capacity);
    spans_.End(s);
    (void)alloc;

    for (size_t q = 0; q < n; ++q) {
      QueryLayers& ql = qs[q];
      const double rate = log != nullptr ? log->rate[q] : 0.0;
      if (rate > 1e-9) {
        const trace::PacketVec* in = &batch.packets;
        features::FeatureVector processed = full;
        if (rate < 1.0 - 1e-9) {
          s = spans_.Begin("shed.sample", bin);
          if (ql.sampled->preferred_sampling() == query::SamplingMethod::kFlow) {
            ql.flow_sampler->SampleInto(batch.packets, rate, ql.buf);
          } else {
            ql.pkt_sampler->SampleInto(batch.packets, rate, ql.buf);
          }
          spans_.End(s);
          sampled_in_ += static_cast<double>(batch.size());
          in = &ql.buf;
          s = spans_.Begin("features.reextract", bin);
          processed = ql.engine->extractor().Extract(*in);
          spans_.End(s);
          reextracted_ += static_cast<double>(in->size());
        }
        s = spans_.Begin(sampled_names_[q], bin);
        ql.sampled->ProcessBatch({*in, batch.start_us, batch.duration_us, rate});
        spans_.End(s);
        s = spans_.Begin("predict.fit", bin);
        ql.engine->ObserveActual(processed, log->per_query_cycles[q]);
        spans_.End(s);
        ql.buf.clear();
      }
      s = spans_.Begin(full_names_[q], bin);
      ql.reference->ProcessBatch({batch.packets, batch.start_us, batch.duration_us, 1.0});
      spans_.End(s);
      if (++ql.bins_in_interval >= ql.sampled->interval_bins()) {
        ql.sampled->EndInterval();
        ql.reference->EndInterval();
        ql.engine->StartInterval();
        ql.flow_sampler->Reseed(ql.flow_sampler->seed() * 0x9e3779b97f4a7c15ULL + 1);
        ql.bins_in_interval = 0;
      }
    }
    if (++sys_bins >= config.system_interval_bins) {
      extractor.StartInterval();
      sys_bins = 0;
    }
    spans_.End(bin);
    bins_ += 1;
    packets_ += static_cast<double>(batch.size());

    // The input property the extraction dedupe exploits, counted outside
    // every span.
    seen.clear();
    for (const net::Packet& pkt : batch.packets) {
      repeats_ += seen.insert(pkt.tuple()).second ? 0 : 1;
    }
  }
}

void LayerReplay::DecodeFrames(const trace::Trace& trace) {
  std::vector<std::vector<uint8_t>> wire;
  wire.reserve(trace.packets.size());
  for (const net::PacketRecord& r : trace.packets) {
    wire.push_back(trace::SynthesizeFrame(r));
  }
  net::DecodedFrame decoded;
  const int s = spans_.Begin("net.decode", -1);
  for (const std::vector<uint8_t>& f : wire) {
    frames_ += net::DecodeEthernetFrame(f.data(), f.size(), &decoded) ==
                       net::FrameDecodeStatus::kOk
                   ? 1
                   : 0;
  }
  spans_.End(s);
}

Metrics LayerReplay::Result() const {
  const auto totals = spans_.Totals();
  auto total = [&](const std::string& name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : it->second.total_s;
  };
  auto per = [](double seconds, double count, double scale) {
    return count > 0 ? seconds * scale / count : 0.0;
  };

  Metrics m;
  m["trace.batch_ns_per_pkt"] = {per(total("trace.batch"), packets_, 1e9), "ns"};
  m["trace.repeat_tuple_share"] = {per(repeats_, packets_, 1.0), "ratio"};
  m["features.extract_ns_per_pkt"] = {per(total("features.extract"), packets_, 1e9), "ns"};
  m["features.reextract_ns_per_pkt"] = {per(total("features.reextract"), reextracted_, 1e9),
                                        "ns"};
  m["predict.predict_us_per_bin"] = {per(total("predict.predict"), bins_, 1e6), "us"};
  m["predict.fit_us_per_bin"] = {per(total("predict.fit"), bins_, 1e6), "us"};
  m["shed.sample_ns_per_pkt"] = {per(total("shed.sample"), sampled_in_, 1e9), "ns"};
  m["shed.allocate_us_per_bin"] = {per(total("shed.allocate"), bins_, 1e6), "us"};
  double reference = 0.0;
  for (const std::string& name : query::AllQueryNames()) {
    const double full = total("query." + name + ".full");
    reference += full;
    m["query." + name + ".full_ms_per_bin"] = {per(full, bins_, 1e3), "ms"};
    m["query." + name + ".sampled_ms_per_bin"] = {
        per(total("query." + name + ".sampled"), bins_, 1e3), "ms"};
  }
  m["core.reference_ms_per_bin"] = {per(reference, bins_, 1e3), "ms"};
  m["net.decode_ns_per_frame"] = {per(total("net.decode"), frames_, 1e9), "ns"};
  // Share of the replay's bin spans that no layer call covers.
  const auto bin = totals.find("bin");
  m["bench.replay_self_share"] = {
      bin == totals.end() ? 0.0 : per(bin->second.self_s, bin->second.total_s, 1.0), "ratio"};
  return m;
}

std::string LayerReplay::SpanSummary() const {
  std::ostringstream os;
  os.precision(9);
  for (const auto& [name, t] : spans_.Totals()) {
    os << "{\"name\": \"" << name << "\", \"count\": " << t.count << ", \"total_s\": " << t.total_s
       << ", \"self_s\": " << t.self_s << "}\n";
  }
  return os.str();
}

}  // namespace perfbench
