#include "src/api/config.h"

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <string>
#include <utility>

namespace shedmon::api {

namespace {

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t' || s.front() == '\r')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

[[noreturn]] void Fail(std::string_view origin, size_t line_no, const std::string& what) {
  throw ConfigError(std::string(origin) + ":" + std::to_string(line_no) + ": " + what);
}

uint64_t ParseU64(std::string_view origin, size_t line_no, std::string_view key,
                  const std::string& value) {
  try {
    size_t consumed = 0;
    const uint64_t parsed = std::stoull(value, &consumed);
    if (consumed != value.size()) {
      throw std::invalid_argument(value);
    }
    return parsed;
  } catch (const std::exception&) {
    Fail(origin, line_no, std::string(key) + ": expected an unsigned integer, got '" + value + "'");
  }
}

double ParseF64(std::string_view origin, size_t line_no, std::string_view key,
                const std::string& value) {
  try {
    size_t consumed = 0;
    const double parsed = std::stod(value, &consumed);
    if (consumed != value.size()) {
      throw std::invalid_argument(value);
    }
    return parsed;
  } catch (const std::exception&) {
    Fail(origin, line_no, std::string(key) + ": expected a number, got '" + value + "'");
  }
}

bool ParseBool(std::string_view origin, size_t line_no, std::string_view key,
               const std::string& value) {
  if (value == "true" || value == "1" || value == "on" || value == "yes") {
    return true;
  }
  if (value == "false" || value == "0" || value == "off" || value == "no") {
    return false;
  }
  Fail(origin, line_no, std::string(key) + ": expected a boolean, got '" + value + "'");
}

// Maps `name` through a spelling table; on a miss, throws ConfigError
// listing every accepted spelling.
template <typename Enum, size_t N>
Enum ParseName(std::string_view setting, std::string_view name,
               const std::pair<std::string_view, Enum> (&spellings)[N]) {
  std::string accepted;
  for (const auto& [spelling, value] : spellings) {
    if (name == spelling) {
      return value;
    }
    if (!accepted.empty()) {
      accepted += '|';
    }
    accepted += spelling;
  }
  throw ConfigError(std::string(setting) + ": expected " + accepted + ", got '" +
                    std::string(name) + "'");
}

// Runs a name parser on a config-file value, prefixing errors with the line.
template <typename Parse>
auto ParseAt(std::string_view origin, size_t line_no, Parse parse, const std::string& value) {
  try {
    return parse(value);
  } catch (const ConfigError& error) {
    Fail(origin, line_no, error.what());
  }
}

predict::PredictorKind ParsePredictorKind(std::string_view name) {
  static constexpr std::pair<std::string_view, predict::PredictorKind> kSpellings[] = {
      {"mlr", predict::PredictorKind::kMlr},
      {"slr", predict::PredictorKind::kSlr},
      {"ewma", predict::PredictorKind::kEwma}};
  return ParseName("kind", name, kSpellings);
}

}  // namespace

core::ShedderKind ParseShedder(std::string_view name) {
  static constexpr std::pair<std::string_view, core::ShedderKind> kSpellings[] = {
      {"predictive", core::ShedderKind::kPredictive},
      {"reactive", core::ShedderKind::kReactive},
      {"noshed", core::ShedderKind::kNoShed},
      {"none", core::ShedderKind::kNoShed}};
  return ParseName("shedder", name, kSpellings);
}

shed::StrategyKind ParseStrategy(std::string_view name) {
  static constexpr std::pair<std::string_view, shed::StrategyKind> kSpellings[] = {
      {"eq_srates", shed::StrategyKind::kEqSrates}, {"eq", shed::StrategyKind::kEqSrates},
      {"mmfs_cpu", shed::StrategyKind::kMmfsCpu},   {"cpu", shed::StrategyKind::kMmfsCpu},
      {"mmfs_pkt", shed::StrategyKind::kMmfsPkt},   {"pkt", shed::StrategyKind::kMmfsPkt}};
  return ParseName("strategy", name, kSpellings);
}

core::OracleKind ParseOracle(std::string_view name) {
  static constexpr std::pair<std::string_view, core::OracleKind> kSpellings[] = {
      {"model", core::OracleKind::kModel}, {"measured", core::OracleKind::kMeasured}};
  return ParseName("oracle", name, kSpellings);
}

rt::OverflowPolicy ParseOverflowPolicy(std::string_view name) {
  static constexpr std::pair<std::string_view, rt::OverflowPolicy> kSpellings[] = {
      {"block", rt::OverflowPolicy::kBlock},
      {"drop-newest", rt::OverflowPolicy::kDropNewest},
      {"drop-oldest", rt::OverflowPolicy::kDropOldest}};
  return ParseName("overflow policy", name, kSpellings);
}

FileConfig ParseConfig(std::istream& in, std::string_view origin) {
  FileConfig config;
  std::string section;
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::string_view text = line;
    if (const size_t comment = text.find_first_of("#;"); comment != std::string_view::npos) {
      text = text.substr(0, comment);
    }
    text = Trim(text);
    if (text.empty()) {
      continue;
    }
    if (text.front() == '[') {
      if (text.back() != ']' || text.size() < 3) {
        Fail(origin, line_no, "malformed section header '" + std::string(text) + "'");
      }
      section = std::string(Trim(text.substr(1, text.size() - 2)));
      if (section != "system" && section != "predictor" && section != "queries" &&
          section != "sinks") {
        Fail(origin, line_no, "unknown section [" + section + "]");
      }
      continue;
    }
    const size_t eq = text.find('=');
    if (eq == std::string_view::npos) {
      Fail(origin, line_no, "expected 'key = value', got '" + std::string(text) + "'");
    }
    const std::string key(Trim(text.substr(0, eq)));
    const std::string value(Trim(text.substr(eq + 1)));
    if (key.empty()) {
      Fail(origin, line_no, "empty key");
    }
    if (section.empty()) {
      Fail(origin, line_no, "key '" + key + "' appears before any [section]");
    }

    if (section == "system") {
      core::SystemConfig& sys = config.system;
      if (key == "time_bin_us") {
        sys.time_bin_us = ParseU64(origin, line_no, key, value);
      } else if (key == "cycles_per_bin") {
        sys.cycles_per_bin = ParseF64(origin, line_no, key, value);
      } else if (key == "shedder") {
        sys.shedder = ParseAt(origin, line_no, ParseShedder, value);
      } else if (key == "strategy") {
        sys.strategy = ParseAt(origin, line_no, ParseStrategy, value);
      } else if (key == "threads") {
        sys.num_threads = static_cast<size_t>(ParseU64(origin, line_no, key, value));
      } else if (key == "seed") {
        sys.seed = ParseU64(origin, line_no, key, value);
      } else if (key == "buffer_bins") {
        sys.buffer_bins = ParseF64(origin, line_no, key, value);
      } else if (key == "ewma_alpha") {
        sys.ewma_alpha = ParseF64(origin, line_no, key, value);
      } else if (key == "como_overhead") {
        sys.como_overhead_fraction = ParseF64(origin, line_no, key, value);
      } else if (key == "custom_shedding") {
        sys.enable_custom_shedding = ParseBool(origin, line_no, key, value);
      } else if (key == "oracle") {
        config.oracle = ParseAt(origin, line_no, ParseOracle, value);
      } else if (key == "track_accuracy") {
        config.track_accuracy = ParseBool(origin, line_no, key, value);
      } else if (key == "default_min_rates") {
        config.default_min_rates = ParseBool(origin, line_no, key, value);
      } else {
        Fail(origin, line_no, "unknown [system] key '" + key + "'");
      }
    } else if (section == "predictor") {
      predict::PredictorConfig& pred = config.system.predictor;
      if (key == "kind") {
        pred.kind = ParseAt(origin, line_no, ParsePredictorKind, value);
      } else if (key == "history") {
        pred.history = static_cast<size_t>(ParseU64(origin, line_no, key, value));
      } else if (key == "fcbf_threshold") {
        pred.fcbf_threshold = ParseF64(origin, line_no, key, value);
      } else if (key == "ewma_alpha") {
        pred.ewma_alpha = ParseF64(origin, line_no, key, value);
      } else {
        Fail(origin, line_no, "unknown [predictor] key '" + key + "'");
      }
    } else if (section == "queries") {
      if (key == "add") {
        config.queries.push_back(value);
      } else {
        Fail(origin, line_no, "unknown [queries] key '" + key + "' (use 'add = <name>')");
      }
    } else {  // sinks
      if (key == "csv") {
        config.csv_path = value;
      } else if (key == "jsonl") {
        config.jsonl_path = value;
      } else if (key == "log") {
        config.log_path = value;
      } else {
        Fail(origin, line_no, "unknown [sinks] key '" + key + "'");
      }
    }
  }
  return config;
}

FileConfig ParseConfigFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    throw ConfigError("cannot open config file: " + path);
  }
  return ParseConfig(in, path);
}

}  // namespace shedmon::api
