#pragma once

#include <istream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/cost.h"
#include "src/core/system.h"
#include "src/rt/bounded_queue.h"

namespace shedmon::api {

// Thrown for invalid pipeline configuration: by PipelineBuilder::Build()'s
// eager validation and by the config-file parser. Derives from
// std::invalid_argument so pre-existing callers that caught the old exception
// type keep working.
class ConfigError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Strict name -> enum parsers, shared by the config-file parser and the CLI
// so both accept the same spellings (the historical CLI short form and the
// config-file long form). Anything else throws ConfigError naming the
// setting and the accepted values.
core::ShedderKind ParseShedder(std::string_view name);      // predictive|reactive|noshed|none
shed::StrategyKind ParseStrategy(std::string_view name);    // eq_srates|eq|mmfs_cpu|cpu|...
core::OracleKind ParseOracle(std::string_view name);        // model|measured
rt::OverflowPolicy ParseOverflowPolicy(std::string_view name);  // block|drop-newest|drop-oldest

// A fully parsed pipeline config file: the system configuration plus the
// builder-level knobs (oracle, accuracy tracking, query roster, sinks) that
// live outside core::SystemConfig.
struct FileConfig {
  core::SystemConfig system;
  core::OracleKind oracle = core::OracleKind::kModel;
  bool track_accuracy = true;
  bool default_min_rates = true;
  std::vector<std::string> queries;  // standard query names, in add order
  std::string csv_path;              // per-bin CSV sink ("" = none)
  std::string jsonl_path;            // per-bin JSONL sink ("" = none)
  std::string log_path;              // structured JSONL event log ("" = none)
};

// Parses the INI-style pipeline config format:
//
//   [system]
//   time_bin_us = 100000
//   cycles_per_bin = 2.5e6
//   shedder = predictive        ; predictive | reactive | noshed (none)
//   strategy = mmfs_cpu         ; eq_srates (eq) | mmfs_cpu (cpu) | mmfs_pkt (pkt)
//   threads = 4
//   seed = 42
//   buffer_bins = 5
//   ewma_alpha = 0.9
//   como_overhead = 0.05
//   custom_shedding = false
//   oracle = model              ; model | measured
//   track_accuracy = true
//   default_min_rates = true
//
//   [predictor]
//   kind = mlr                  ; mlr | slr | ewma
//   history = 60
//   fcbf_threshold = 0.6
//   ewma_alpha = 0.3
//
//   [queries]
//   add = counter               ; repeat per query, Table 2.2 names
//   add = flows
//
//   [sinks]
//   csv = bins.csv
//   jsonl = bins.jsonl
//   log = events.jsonl
//
// Lines starting with '#' or ';' (or anything after those characters) are
// comments; whitespace around keys and values is ignored. Unknown sections,
// keys, or enum values throw ConfigError naming the offending line, as does
// an unreadable file. Values are *parsed* strictly here but *validated*
// (ranges, cross-field rules, query names) by PipelineBuilder::Build(), so
// there is exactly one validation path no matter where a config comes from.
FileConfig ParseConfig(std::istream& in, std::string_view origin = "<stream>");
FileConfig ParseConfigFile(const std::string& path);

}  // namespace shedmon::api

namespace shedmon {
using api::ConfigError;
using api::FileConfig;
}  // namespace shedmon
