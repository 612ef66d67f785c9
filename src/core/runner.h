#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/core/system.h"
#include "src/trace/generator.h"

namespace shedmon::core {

// Minimum sampling-rate constraints (m_q) for the standard queries, taken
// from Table 5.2 of the thesis (p2p-detector from the Ch. 6 validation).
double DefaultMinRate(std::string_view query_name);

// Mean per-bin cycles demanded by full (unsampled) processing of the given
// queries — the thesis's experimentally determined capacity C. Experiments
// set cycles_per_bin = MeasureMeanDemand(...) * (1 - K) to create an overload
// factor K (§5.4: "K = 0.5 ... resource demands are twice the capacity").
double MeasureMeanDemand(const std::vector<std::string>& names, const trace::Trace& trace,
                         OracleKind oracle, uint64_t bin_us = 100'000);

}  // namespace shedmon::core
