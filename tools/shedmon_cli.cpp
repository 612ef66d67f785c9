// shedmon — command-line front end to the library.
//
//   shedmon generate --preset cesca2 --duration 30 --seed 7 --out t.smt
//   shedmon info t.smt
//   shedmon export-pcap t.smt t.pcap
//   shedmon inject-ddos t.smt --start 10 --duration 5 --pps 3000 --out t2.smt
//   shedmon run t.smt --queries counter,flows --k 0.5 --strategy mmfs_pkt
//   shedmon capture --listen-udp 0 --queries counter,flows --capacity 5e6
//   shedmon replay t.smt --udp 9000 --pps 20000
//
// `run` executes the full predictive load-shedding pipeline over a saved
// trace and reports per-query accuracy against an unsampled reference plus
// the shedding statistics — the same loop every bench uses. `capture` runs
// the same pipeline against live input (loopback UDP/TCP listeners or a
// growing pcap file) and `replay` feeds a saved trace into it.

#include <cstdio>
#include <cstring>
#include <csignal>
#include <algorithm>
#include <fstream>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/config.h"
#include "src/api/pipeline.h"
#include "src/capture/capture.h"
#include "src/capture/replay.h"
#include "src/obs/prometheus.h"
#include "src/core/runner.h"
#include "src/rt/clock.h"
#include "src/rt/fault.h"
#include "src/rt/resilient.h"
#include "src/query/queries.h"
#include "src/trace/anomaly.h"
#include "src/trace/generator.h"
#include "src/trace/pcap.h"
#include "src/trace/spec.h"
#include "src/trace/trace_io.h"
#include "src/util/stats.h"
#include "src/util/table.h"

namespace {

using namespace shedmon;

// ----------------------------------------------------------- flag parsing --

class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg.rfind("--", 0) == 0) {
        const auto eq = arg.find('=');
        if (eq != std::string::npos) {
          values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
        } else if (i + 1 < argc && argv[i + 1][0] != '-') {
          values_[arg.substr(2)] = argv[++i];
        } else {
          values_[arg.substr(2)] = "true";
        }
      } else {
        positional_.push_back(arg);
      }
    }
  }

  std::string Get(const std::string& key, const std::string& fallback = "") const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stod(it->second);
  }
  uint64_t GetU64(const std::string& key, uint64_t fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : std::stoull(it->second);
  }
  bool Has(const std::string& key) const { return values_.count(key) != 0; }
  const std::vector<std::string>& positional() const { return positional_; }

  // A misspelt flag must not silently run with the default it meant to
  // override: anything outside `accepted` is a ConfigError (exit 2).
  void RequireKnown(const std::vector<std::string_view>& accepted) const {
    for (const auto& [name, value] : values_) {
      if (std::find(accepted.begin(), accepted.end(), name) == accepted.end()) {
        throw ConfigError("unknown flag --" + name);
      }
    }
  }

 private:
  std::map<std::string, std::string> values_;
  std::vector<std::string> positional_;
};

trace::TraceSpec PresetByName(const std::string& name) {
  if (name == "cesca1") {
    return trace::CescaI();
  }
  if (name == "cesca2") {
    return trace::CescaII();
  }
  if (name == "abilene") {
    return trace::Abilene();
  }
  if (name == "cenic") {
    return trace::Cenic();
  }
  if (name == "upc1") {
    return trace::UpcI();
  }
  throw std::invalid_argument("unknown preset '" + name +
                              "' (cesca1|cesca2|abilene|cenic|upc1)");
}

std::vector<std::string> SplitCsv(const std::string& csv) {
  std::vector<std::string> out;
  size_t start = 0;
  while (start <= csv.size()) {
    const size_t comma = csv.find(',', start);
    const std::string item = csv.substr(
        start, comma == std::string::npos ? std::string::npos : comma - start);
    if (!item.empty()) {
      out.push_back(item);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
  return out;
}

int Usage() {
  std::printf(
      "usage: shedmon <command> [flags]\n"
      "\n"
      "  generate    --preset P [--duration S] [--seed N] [--flows-per-s F]\n"
      "              [--burstiness B] --out FILE [--pcap FILE]\n"
      "  info        FILE\n"
      "  export-pcap FILE OUT.pcap [--snaplen N]\n"
      "  inject-ddos FILE --out FILE [--start S] [--duration S] [--pps N]\n"
      "              [--on-off S] [--target-ip HEX]\n"
      "  run         FILE --queries a,b,c [--k 0.5] [--strategy eq|cpu|pkt]\n"
      "              [--shedder predictive|reactive|none] [--custom]\n"
      "              [--oracle model|measured] [--bin-us N] [--threads N]\n"
      "              [--csv FILE] [--jsonl FILE]\n"
      "              [--config FILE] [--metrics-out FILE]\n"
      "              [--deadline F] [--fault-plan SPEC] [--sink-retries N]\n"
      "              [--checkpoint FILE] [--checkpoint-every N] [--restore]\n"
      "              [--serve PORT] [--trace-out FILE]\n"
      "  capture     --listen-udp PORT | --listen-tcp PORT | --follow-pcap FILE\n"
      "              --queries a,b,c --capacity CYCLES [--bin-us N]\n"
      "              [--duration S] [--slots N] [--snap BYTES] [--queue N]\n"
      "              [--overflow block|drop-newest|drop-oldest]\n"
      "              [--late-slack-us N] [--config FILE] (plus run's\n"
      "              --threads --shedder --strategy --custom\n"
      "              --deadline --csv --jsonl --serve --trace-out\n"
      "              --metrics-out)\n"
      "  replay      FILE --udp PORT | --tcp PORT [--pps N]\n"
      "  queries     (list available queries and their default min rates)\n"
      "\n"
      "capture flags:\n"
      "  --listen-udp PORT   capture framed (or raw) Ethernet frames from UDP\n"
      "                      datagrams on 127.0.0.1:PORT (0 picks a free port;\n"
      "                      the bound port is printed)\n"
      "  --listen-tcp PORT   capture length-framed records from one TCP stream\n"
      "                      (lossless; what `replay --tcp` sends)\n"
      "  --follow-pcap FILE  follow a growing pcap file, tail -f style\n"
      "  --capacity CYCLES   absolute cycle budget per bin (live capture has\n"
      "                      no trace to measure demand against)\n"
      "  --duration S        stop after S seconds (default: on SIGINT/SIGTERM,\n"
      "                      which also stop early and drain cleanly)\n"
      "  --slots/--snap/--queue/--overflow/--late-slack-us\n"
      "                      capture ring geometry: pre-allocated slots, bytes\n"
      "                      captured per frame, ring depth, overflow policy,\n"
      "                      and how far behind real time a packet may arrive.\n"
      "                      A packet holds its slot until its bin closes, so\n"
      "                      --slots also bounds the open bin\n"
      "  --config FILE       as for run; without it capture tracks no accuracy\n"
      "                      (no unsampled reference instances), with it the\n"
      "                      file's track_accuracy decides\n"
      "\n"
      "Names are strict: --strategy also takes eq_srates|mmfs_cpu|mmfs_pkt and\n"
      "--shedder noshed (the config-file spellings); anything else exits 2, and\n"
      "so does a flag the command does not take.\n"
      "\n"
      "run flags:\n"
      "  --config FILE       load an INI pipeline config (system knobs, query\n"
      "                      roster, sinks); other flags override the file\n"
      "  --metrics-out FILE  dump the metrics registry in Prometheus text\n"
      "                      format at end of run, and whenever the process\n"
      "                      receives SIGUSR1 mid-run\n"
      "  --deadline F        enforce a wall-clock budget of F x the bin\n"
      "                      duration per bin; overruns climb a degradation\n"
      "                      ladder (boost shedding, truncate, drop bin)\n"
      "  --fault-plan SPEC   deterministic fault injection, e.g.\n"
      "                      'seed=7,stall_bin=3:80000,sink_fail_n=2'\n"
      "  --sink-retries N    retry failed CSV/JSONL sink writes up to N times\n"
      "                      (with backoff), then quarantine the sink\n"
      "  --checkpoint FILE   write a crash-safe snapshot (tmp+fsync+rename)\n"
      "                      every --checkpoint-every bins (default: one\n"
      "                      measurement interval); --restore resumes from it\n"
      "  --serve PORT        serve /metrics, /healthz, /stats and /trace over\n"
      "                      HTTP on 127.0.0.1:PORT for the whole run (PORT 0\n"
      "                      picks a free port; the bound port is printed)\n"
      "  --trace-out FILE    record per-stage spans and write them as Chrome\n"
      "                      trace-event JSON (load in Perfetto / about:tracing)\n");
  return 2;
}

// ------------------------------------------------------------- commands --

int CmdGenerate(const Flags& flags) {
  trace::TraceSpec spec = PresetByName(flags.Get("preset", "cesca2"));
  spec.duration_s = flags.GetDouble("duration", spec.duration_s);
  spec.seed = flags.GetU64("seed", spec.seed);
  spec.flows_per_s = flags.GetDouble("flows-per-s", spec.flows_per_s);
  spec.burstiness = flags.GetDouble("burstiness", spec.burstiness);
  const std::string out = flags.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "generate: --out is required\n");
    return 2;
  }
  const trace::Trace t = trace::TraceGenerator(spec).Generate();
  SaveTrace(t, out);
  std::printf("wrote %zu packets (%.1f s of '%s') to %s\n", t.packets.size(),
              spec.duration_s, spec.name.c_str(), out.c_str());
  if (flags.Has("pcap")) {
    const size_t n = trace::ExportPcap(t, flags.Get("pcap"));
    std::printf("exported %zu frames to %s\n", n, flags.Get("pcap").c_str());
  }
  return 0;
}

int CmdInfo(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "info: trace file required\n");
    return 2;
  }
  const trace::Trace t = trace::LoadTrace(flags.positional()[0]);
  uint64_t bytes = 0;
  std::map<net::AppClass, size_t> apps;
  std::map<uint32_t, uint64_t> talkers;
  for (const auto& rec : t.packets) {
    bytes += rec.wire_len;
    ++apps[rec.app];
    talkers[rec.tuple.src_ip] += rec.wire_len;
  }
  const double dur = static_cast<double>(t.duration_us()) * 1e-6;
  std::printf("trace:    %s\n", t.spec.name.c_str());
  std::printf("packets:  %zu (%.0f pkts/s)\n", t.packets.size(),
              static_cast<double>(t.packets.size()) / dur);
  std::printf("bytes:    %llu (%.2f Mb/s)\n", static_cast<unsigned long long>(bytes),
              static_cast<double>(bytes) * 8.0 / dur / 1e6);
  std::printf("duration: %.1f s\n\napplication mix (ground truth):\n", dur);
  for (const auto& [app, count] : apps) {
    std::printf("  %-10s %6.2f%%\n", std::string(net::AppClassName(app)).c_str(),
                100.0 * static_cast<double>(count) / static_cast<double>(t.packets.size()));
  }
  std::vector<std::pair<uint64_t, uint32_t>> top;
  for (const auto& [ip, b] : talkers) {
    top.emplace_back(b, ip);
  }
  std::sort(top.rbegin(), top.rend());
  std::printf("\ntop talkers by bytes:\n");
  for (size_t i = 0; i < top.size() && i < 5; ++i) {
    std::printf("  %-16s %llu\n", net::Ipv4ToString(top[i].second).c_str(),
                static_cast<unsigned long long>(top[i].first));
  }
  return 0;
}

int CmdExportPcap(const Flags& flags) {
  if (flags.positional().size() < 2) {
    std::fprintf(stderr, "export-pcap: input and output files required\n");
    return 2;
  }
  const trace::Trace t = trace::LoadTrace(flags.positional()[0]);
  const size_t n = trace::ExportPcap(t, flags.positional()[1],
                                     static_cast<uint32_t>(flags.GetU64("snaplen", 0)));
  std::printf("exported %zu frames to %s\n", n, flags.positional()[1].c_str());
  return 0;
}

int CmdInjectDdos(const Flags& flags) {
  if (flags.positional().empty() || !flags.Has("out")) {
    std::fprintf(stderr, "inject-ddos: input file and --out required\n");
    return 2;
  }
  trace::Trace t = trace::LoadTrace(flags.positional()[0]);
  trace::DdosSpec ddos;
  ddos.start_s = flags.GetDouble("start", 10.0);
  ddos.duration_s = flags.GetDouble("duration", 5.0);
  ddos.pps = flags.GetDouble("pps", 3000.0);
  ddos.on_off_period_s = flags.GetDouble("on-off", 0.0);
  if (flags.Has("target-ip")) {
    ddos.target_ip = static_cast<uint32_t>(std::stoul(flags.Get("target-ip"), nullptr, 16));
  }
  InjectDdos(t, ddos, flags.GetU64("seed", 99));
  SaveTrace(t, flags.Get("out"));
  std::printf("injected DDoS (t=%.1f..%.1f s, %.0f pps) -> %s (%zu packets)\n",
              ddos.start_s, ddos.start_s + ddos.duration_s, ddos.pps,
              flags.Get("out").c_str(), t.packets.size());
  return 0;
}

// SIGUSR1 asks the run loop for a mid-run metrics dump; the handler only
// flips this flag, the dump itself happens between Push calls.
volatile std::sig_atomic_t g_metrics_dump_requested = 0;

void RequestMetricsDump(int) { g_metrics_dump_requested = 1; }

// SIGINT/SIGTERM ask the capture loop to stop; same flag-only discipline.
volatile std::sig_atomic_t g_stop_requested = 0;

void RequestStop(int) { g_stop_requested = 1; }

void DumpMetrics(const Pipeline& pipeline, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "run: cannot write metrics to %s\n", path.c_str());
    return;
  }
  obs::PrometheusEncoder::Encode(pipeline.Metrics().Snapshot(), out);
}

// End-of-run report shared by `run` and `capture`: per-query accuracy table
// plus the packet tally.
void PrintResults(const Pipeline& pipeline) {
  util::Table table({"query", "min rate", "mean srate", "accuracy error"});
  for (size_t q = 0; q < pipeline.num_queries(); ++q) {
    const std::string& name = pipeline.system().query(q).name();
    util::RunningStats rate;
    for (const auto& bin : pipeline.log()) {
      if (q < bin.rate.size()) {
        rate.Add(bin.rate[q]);
      }
    }
    std::string accuracy = "-";
    try {
      const auto acc = pipeline.AccuracyAt(q);
      accuracy = util::FmtPercent(acc.mean_error, 2) + " ±" +
                 util::Fmt(acc.stdev_error * 100.0, 2);
    } catch (const std::logic_error&) {
      // No reference tracked (capture without --config, or a config file
      // with track_accuracy = false).
    }
    table.AddRow({name, util::Fmt(core::DefaultMinRate(name), 2), util::Fmt(rate.mean(), 2),
                  accuracy});
  }
  table.Print(std::cout);
  std::printf("\npackets: %llu in, %llu uncontrolled drops (%.2f%%)\n",
              static_cast<unsigned long long>(pipeline.total_packets()),
              static_cast<unsigned long long>(pipeline.total_dropped()),
              100.0 * static_cast<double>(pipeline.total_dropped()) /
                  std::max<double>(1.0, static_cast<double>(pipeline.total_packets())));
}

int CmdRun(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "run: trace file required\n");
    return 2;
  }
  const trace::Trace t = trace::LoadTrace(flags.positional()[0]);

  // --config loads the INI file as the baseline; every other flag still
  // overrides it. Without --config the flag defaults apply as before.
  const bool have_config = flags.Has("config");
  api::FileConfig file_config;
  if (have_config) {
    file_config = api::ParseConfigFile(flags.Get("config"));
  }
  // "Set this knob" = the flag was passed, or there is no config file to
  // defer to (then the CLI defaults fill in).
  const auto overrides = [&](const char* key) { return !have_config || flags.Has(key); };

  if (flags.Has("queries") || file_config.queries.empty()) {
    file_config.queries = SplitCsv(flags.Get("queries", "counter,flows,application"));
  }
  const std::vector<std::string>& queries = file_config.queries;
  if (overrides("oracle")) {
    file_config.oracle = api::ParseOracle(flags.Get("oracle", "model"));
  }
  const core::OracleKind oracle = file_config.oracle;

  PipelineBuilder builder = PipelineBuilder::FromConfig(file_config);
  if (overrides("bin-us")) {
    builder.TimeBin(flags.GetU64("bin-us", 100'000));
  }
  if (overrides("shedder")) {
    builder.Shedder(api::ParseShedder(flags.Get("shedder", "predictive")));
  }
  if (overrides("strategy")) {
    builder.Strategy(api::ParseStrategy(flags.Get("strategy", "pkt")));
  }
  if (flags.Has("custom") || !have_config) {
    builder.CustomShedding(flags.Has("custom"));
  }
  if (overrides("threads")) {
    builder.Threads(flags.GetU64("threads", 0));
  }

  // Capacity: --k provisions a fraction of the measured demand. A config
  // file's explicit cycles_per_bin wins unless --k is passed.
  const double k = flags.GetDouble("k", 0.5);
  double capacity = builder.config().cycles_per_bin;
  if (overrides("k") || capacity <= 0.0) {
    const double demand =
        core::MeasureMeanDemand(queries, t, oracle, builder.config().time_bin_us);
    capacity = std::max(1.0, demand * (1.0 - k));
    builder.CyclesPerBin(capacity);
  }

  // Sinks go through the builder so the rt layer (retry/quarantine) can wrap
  // them when --sink-retries is passed.
  if (flags.Has("csv")) {
    builder.CsvTo(flags.Get("csv"));
  }
  if (flags.Has("jsonl")) {
    builder.JsonlTo(flags.Get("jsonl"));
  }

  // Overload-protection knobs (src/rt).
  if (flags.Has("deadline")) {
    builder.Deadline(flags.GetDouble("deadline", 0.9));
  }
  if (flags.Has("fault-plan")) {
    builder.InjectFaults(rt::FaultPlan::Parse(flags.Get("fault-plan")));
  }
  if (flags.Has("sink-retries")) {
    rt::RetryPolicy retry;
    retry.max_retries = static_cast<size_t>(flags.GetU64("sink-retries", retry.max_retries));
    builder.SinkRetry(retry);
  }
  if (flags.Has("checkpoint")) {
    builder.CheckpointTo(flags.Get("checkpoint"));
    if (flags.Has("checkpoint-every")) {
      builder.CheckpointEvery(flags.GetU64("checkpoint-every", 0));
    }
  }

  // Observability surfaces (src/obs): both are one-way — spans and scrapes
  // never feed back into shedding decisions, so results stay bit-identical.
  if (flags.Has("trace-out")) {
    builder.Tracing();
  }
  if (flags.Has("serve")) {
    builder.ServeOn(static_cast<uint16_t>(flags.GetU64("serve", 0)));
  }

  std::unique_ptr<Pipeline> pipeline;
  uint64_t resume_us = 0;
  if (flags.Has("restore") && flags.Has("checkpoint")) {
    pipeline = builder.RestoreOrBuild(flags.Get("checkpoint"));
    if (pipeline->next_bin() > 0) {
      resume_us = pipeline->next_bin() * pipeline->time_bin_us();
      std::fprintf(stderr, "run: restored %s, resuming at bin %llu (t=%.1f s)\n",
                   flags.Get("checkpoint").c_str(),
                   static_cast<unsigned long long>(pipeline->next_bin()),
                   static_cast<double>(resume_us) * 1e-6);
    }
  } else {
    pipeline = builder.BuildUnique();
  }

  const std::string metrics_out = flags.Get("metrics-out");
  if (!metrics_out.empty()) {
    // Async-signal-safety: the handler only stores to a volatile
    // sig_atomic_t — no stdio, allocation or locks run in signal context;
    // the dump itself happens on the main loop between Push calls.
    // SA_RESTART keeps trace-file reads transparent to the interruption.
    struct sigaction action = {};
    sigemptyset(&action.sa_mask);
    action.sa_handler = RequestMetricsDump;
    action.sa_flags = SA_RESTART;
    sigaction(SIGUSR1, &action, nullptr);
  }

  if (flags.Has("serve")) {
    // Wrappers parse this line to find the bound port (--serve 0 binds an
    // ephemeral one), so keep its shape stable.
    std::printf("serving http://127.0.0.1:%u (/metrics /healthz /stats /trace)\n",
                pipeline->serve_port());
  }
  std::printf("running %zu queries at overload K=%.2f (capacity %.3g cycles/bin, %s)\n\n",
              queries.size(), k, capacity,
              oracle == core::OracleKind::kMeasured ? "measured cycles" : "model cycles");
  // Progress marker for wrappers (stdout is block-buffered when piped): the
  // banner doubles as "the SIGUSR1 handler is installed, the run is live".
  std::fflush(stdout);
  for (const net::PacketRecord& packet : t.packets) {
    if (packet.ts_us < resume_us) {
      continue;  // bins the restored checkpoint already covers
    }
    if (g_metrics_dump_requested != 0 && !metrics_out.empty()) {
      g_metrics_dump_requested = 0;
      DumpMetrics(*pipeline, metrics_out);
      std::fprintf(stderr, "run: metrics dumped to %s (SIGUSR1)\n", metrics_out.c_str());
    }
    pipeline->Push(net::Packet::View(packet));
  }
  pipeline->Finish();
  if (!metrics_out.empty()) {
    DumpMetrics(*pipeline, metrics_out);
  }
  if (flags.Has("trace-out")) {
    pipeline->DumpTrace(flags.Get("trace-out"));
  }

  PrintResults(*pipeline);
  if (flags.Has("deadline") || flags.Has("checkpoint")) {
    const api::PipelineStats stats = pipeline->Stats();
    std::printf("rt: %llu deadline misses, degradation level %d, %llu checkpoints\n",
                static_cast<unsigned long long>(stats.deadline_misses), stats.degradation_level,
                static_cast<unsigned long long>(stats.checkpoints));
  }
  if (flags.Has("csv")) {
    std::printf("per-bin log written to %s\n", flags.Get("csv").c_str());
  }
  if (flags.Has("jsonl")) {
    std::printf("per-bin log written to %s\n", flags.Get("jsonl").c_str());
  }
  if (flags.Has("trace-out")) {
    std::printf("trace (Chrome trace-event JSON) written to %s\n",
                flags.Get("trace-out").c_str());
  }
  if (!metrics_out.empty()) {
    std::printf("metrics (Prometheus text format) written to %s\n", metrics_out.c_str());
  }
  return 0;
}

// shedmon capture: the same pipeline as `run`, fed by live sources instead
// of a saved trace. The capture consumer thread drives Push/AdvanceTime; this
// thread only waits for a signal, a --duration expiry, or a SIGUSR1 dump.
int CmdCapture(const Flags& flags) {
  capture::CaptureConfig capture_config;
  if (flags.Has("listen-udp")) {
    capture_config.sources.push_back(
        capture::SourceSpec::Udp(static_cast<uint16_t>(flags.GetU64("listen-udp", 0))));
  }
  if (flags.Has("listen-tcp")) {
    capture_config.sources.push_back(
        capture::SourceSpec::Tcp(static_cast<uint16_t>(flags.GetU64("listen-tcp", 0))));
  }
  if (flags.Has("follow-pcap")) {
    capture_config.sources.push_back(capture::SourceSpec::PcapFile(flags.Get("follow-pcap")));
  }
  if (capture_config.sources.empty()) {
    std::fprintf(stderr,
                 "capture: at least one of --listen-udp / --listen-tcp / "
                 "--follow-pcap required\n");
    return 2;
  }
  capture_config.slots = flags.GetU64("slots", capture_config.slots);
  capture_config.snap_bytes =
      static_cast<uint32_t>(flags.GetU64("snap", capture_config.snap_bytes));
  capture_config.queue_capacity = flags.GetU64("queue", capture_config.queue_capacity);
  capture_config.overflow = api::ParseOverflowPolicy(flags.Get("overflow", "block"));
  capture_config.late_slack_us = flags.GetU64("late-slack-us", capture_config.late_slack_us);

  const bool have_config = flags.Has("config");
  api::FileConfig file_config;
  if (have_config) {
    file_config = api::ParseConfigFile(flags.Get("config"));
  }
  if (flags.Has("queries") || file_config.queries.empty()) {
    file_config.queries = SplitCsv(flags.Get("queries", "counter,flows,application"));
  }

  PipelineBuilder builder = PipelineBuilder::FromConfig(file_config);
  if (!have_config) {
    // A live probe spends no cycles on unsampled reference instances unless
    // a config file asks for them (track_accuracy).
    builder.TrackAccuracy(false);
  }
  if (!have_config || flags.Has("bin-us")) {
    builder.TimeBin(flags.GetU64("bin-us", 100'000));
  }
  // Live capture has no trace to measure demand against, so capacity is an
  // absolute cycle budget: --capacity, or the config file's cycles_per_bin.
  if (flags.Has("capacity")) {
    builder.CyclesPerBin(flags.GetDouble("capacity", 0.0));
  } else if (builder.config().cycles_per_bin <= 0.0) {
    std::fprintf(stderr,
                 "capture: --capacity CYCLES required (or a config file with "
                 "cycles_per_bin)\n");
    return 2;
  }
  if (flags.Has("shedder")) {
    builder.Shedder(api::ParseShedder(flags.Get("shedder", "predictive")));
  }
  if (flags.Has("strategy")) {
    builder.Strategy(api::ParseStrategy(flags.Get("strategy", "pkt")));
  }
  if (flags.Has("custom")) {
    builder.CustomShedding(true);
  }
  if (flags.Has("threads")) {
    builder.Threads(flags.GetU64("threads", 0));
  }
  if (flags.Has("csv")) {
    builder.CsvTo(flags.Get("csv"));
  }
  if (flags.Has("jsonl")) {
    builder.JsonlTo(flags.Get("jsonl"));
  }
  if (flags.Has("deadline")) {
    builder.Deadline(flags.GetDouble("deadline", 0.9));
  }
  if (flags.Has("trace-out")) {
    builder.Tracing();
  }
  if (flags.Has("serve")) {
    builder.ServeOn(static_cast<uint16_t>(flags.GetU64("serve", 0)));
  }
  builder.CaptureFrom(capture_config);

  // Install the stop handler before the listeners open so an early signal is
  // never lost; same flag-only async-signal discipline as SIGUSR1.
  struct sigaction stop_action = {};
  sigemptyset(&stop_action.sa_mask);
  stop_action.sa_handler = RequestStop;
  stop_action.sa_flags = 0;  // no SA_RESTART: break the wait loop's sleep
  sigaction(SIGINT, &stop_action, nullptr);
  sigaction(SIGTERM, &stop_action, nullptr);
  const std::string metrics_out = flags.Get("metrics-out");
  if (!metrics_out.empty()) {
    struct sigaction action = {};
    sigemptyset(&action.sa_mask);
    action.sa_handler = RequestMetricsDump;
    action.sa_flags = SA_RESTART;
    sigaction(SIGUSR1, &action, nullptr);
  }

  std::unique_ptr<Pipeline> pipeline = builder.BuildUnique();

  // Wrappers parse these lines to find bound ports (--listen-udp 0 binds an
  // ephemeral one), so keep their shape stable.
  const capture::CaptureLoop* loop = pipeline->capture();
  for (size_t i = 0; i < loop->num_sources(); ++i) {
    const capture::SourceSpec& spec = loop->config().sources[i];
    switch (spec.kind) {
      case capture::SourceSpec::Kind::kUdp:
        std::printf("capturing udp://127.0.0.1:%u\n", loop->port(i));
        break;
      case capture::SourceSpec::Kind::kTcp:
        std::printf("capturing tcp://127.0.0.1:%u\n", loop->port(i));
        break;
      case capture::SourceSpec::Kind::kPcapFile:
        std::printf("capturing pcap://%s\n", spec.path.c_str());
        break;
    }
  }
  if (flags.Has("serve")) {
    std::printf("serving http://127.0.0.1:%u (/metrics /healthz /stats /trace)\n",
                pipeline->serve_port());
  }
  std::printf("running %zu queries (capacity %.3g cycles/bin); stop with SIGINT/SIGTERM\n\n",
              pipeline->num_queries(), builder.config().cycles_per_bin);
  std::fflush(stdout);

  // The capture threads do all the work; wait here for a stop reason.
  const double duration_s = flags.GetDouble("duration", 0.0);
  const std::shared_ptr<rt::Clock> clock = rt::DefaultClock();
  const uint64_t start_us = clock->NowUs();
  while (g_stop_requested == 0) {
    if (duration_s > 0.0 &&
        static_cast<double>(clock->NowUs() - start_us) >= duration_s * 1e6) {
      break;
    }
    if (g_metrics_dump_requested != 0 && !metrics_out.empty()) {
      g_metrics_dump_requested = 0;
      DumpMetrics(*pipeline, metrics_out);
      std::fprintf(stderr, "capture: metrics dumped to %s (SIGUSR1)\n", metrics_out.c_str());
    }
    clock->SleepUs(50'000);
  }

  pipeline->Finish();  // stops capture, drains the ring, closes the last bin
  if (!metrics_out.empty()) {
    DumpMetrics(*pipeline, metrics_out);
  }
  if (flags.Has("trace-out")) {
    pipeline->DumpTrace(flags.Get("trace-out"));
  }

  const capture::CaptureStats cs = pipeline->capture_stats();
  std::printf("capture: %llu frames (%llu bytes), %llu decoded packets, %llu truncated\n",
              static_cast<unsigned long long>(cs.frames),
              static_cast<unsigned long long>(cs.bytes),
              static_cast<unsigned long long>(cs.packets),
              static_cast<unsigned long long>(cs.truncated));
  std::printf(
      "capture drops: %llu total (%llu queue, %llu no-slot, %llu late, %llu decode)\n",
      static_cast<unsigned long long>(cs.dropped()),
      static_cast<unsigned long long>(cs.dropped_queue),
      static_cast<unsigned long long>(cs.dropped_no_slot),
      static_cast<unsigned long long>(cs.dropped_late),
      static_cast<unsigned long long>(cs.dropped_decode));
  PrintResults(*pipeline);
  if (flags.Has("csv")) {
    std::printf("per-bin log written to %s\n", flags.Get("csv").c_str());
  }
  if (flags.Has("jsonl")) {
    std::printf("per-bin log written to %s\n", flags.Get("jsonl").c_str());
  }
  if (flags.Has("trace-out")) {
    std::printf("trace (Chrome trace-event JSON) written to %s\n",
                flags.Get("trace-out").c_str());
  }
  if (!metrics_out.empty()) {
    std::printf("metrics (Prometheus text format) written to %s\n", metrics_out.c_str());
  }
  return 0;
}

// Accepts "PORT" or "host:PORT"; replay always targets loopback, the host
// part is tolerated so banner lines can be pasted back verbatim.
uint16_t ParsePort(const std::string& value) {
  const size_t colon = value.rfind(':');
  return static_cast<uint16_t>(
      std::stoul(colon == std::string::npos ? value : value.substr(colon + 1)));
}

int CmdReplay(const Flags& flags) {
  if (flags.positional().empty()) {
    std::fprintf(stderr, "replay: trace file required\n");
    return 2;
  }
  if (flags.Has("udp") == flags.Has("tcp")) {
    std::fprintf(stderr, "replay: exactly one of --udp PORT or --tcp PORT required\n");
    return 2;
  }
  const trace::Trace t = trace::LoadTrace(flags.positional()[0]);
  capture::ReplayOptions options;
  options.pps = flags.GetU64("pps", 0);
  if (flags.Has("udp")) {
    const uint16_t port = ParsePort(flags.Get("udp"));
    const size_t sent = capture::ReplayTraceUdp(t, port, options);
    std::printf("replayed %zu/%zu packets to udp://127.0.0.1:%u\n", sent, t.packets.size(),
                port);
  } else {
    const uint16_t port = ParsePort(flags.Get("tcp"));
    const size_t sent = capture::ReplayTraceTcp(t, port, options);
    std::printf("replayed %zu/%zu packets to tcp://127.0.0.1:%u\n", sent, t.packets.size(),
                port);
  }
  return 0;
}

int CmdQueries(const Flags&) {
  util::Table table({"query", "default min rate (Table 5.2)", "preferred shedding"});
  for (const auto& name : query::AllQueryNames()) {
    const auto q = query::MakeQuery(name);
    const bool custom = q->supports_custom_shedding();
    table.AddRow({name, util::Fmt(core::DefaultMinRate(name), 2),
                  std::string(q->preferred_sampling() == query::SamplingMethod::kFlow
                                  ? "flow sampling"
                                  : "packet sampling") +
                      (custom ? " + custom" : "")});
  }
  table.Print(std::cout);
  return 0;
}

// Every command with the flags it takes.
struct Command {
  std::string_view name;
  int (*run)(const Flags&);
  std::vector<std::string_view> flags;
};

const std::vector<Command>& Commands() {
  static const std::vector<Command> commands = {
      {"generate", CmdGenerate,
       {"preset", "duration", "seed", "flows-per-s", "burstiness", "out", "pcap"}},
      {"info", CmdInfo, {}},
      {"export-pcap", CmdExportPcap, {"snaplen"}},
      {"inject-ddos", CmdInjectDdos,
       {"out", "start", "duration", "pps", "on-off", "target-ip", "seed"}},
      {"run", CmdRun,
       {"config", "queries", "k", "strategy", "shedder", "custom", "oracle", "bin-us",
        "threads", "csv", "jsonl", "metrics-out", "deadline", "fault-plan",
        "sink-retries", "checkpoint", "checkpoint-every", "restore", "serve", "trace-out"}},
      {"capture", CmdCapture,
       {"listen-udp", "listen-tcp", "follow-pcap", "queries", "capacity", "bin-us", "duration",
        "slots", "snap", "queue", "overflow", "late-slack-us", "config", "threads",
        "shedder", "strategy", "custom", "deadline", "csv", "jsonl", "serve", "trace-out",
        "metrics-out"}},
      {"replay", CmdReplay, {"udp", "tcp", "pps"}},
      {"queries", CmdQueries, {}},
  };
  return commands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    return Usage();
  }
  const std::string command = argv[1];
  const Flags flags(argc, argv, 2);
  for (const Command& cmd : Commands()) {
    if (cmd.name != command) {
      continue;
    }
    try {
      flags.RequireKnown(cmd.flags);
      return cmd.run(flags);
    } catch (const ConfigError& e) {
      // Bad names, unknown flags and invalid settings exit like a missing
      // flag does.
      std::fprintf(stderr, "shedmon %s: %s\n", command.c_str(), e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "shedmon %s: %s\n", command.c_str(), e.what());
      return 1;
    }
  }
  return Usage();
}
