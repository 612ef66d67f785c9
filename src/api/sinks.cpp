#include "src/api/sinks.h"

#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/rt/governor.h"

namespace shedmon::api {

namespace {

std::ofstream OpenOrThrow(const std::string& path) {
  std::ofstream file(path, std::ios::out | std::ios::trunc);
  if (!file.is_open()) {
    throw std::runtime_error("bin sink: cannot open '" + path + "' for writing");
  }
  return file;
}

// Query names are plain identifiers today, but a user query can be named
// anything; escape the characters that would break a JSON string.
void WriteJsonString(std::ostream& out, std::string_view text) {
  out << '"';
  for (const char c : text) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        out << c;
    }
  }
  out << '"';
}

}  // namespace

ResilientSinkBase::ResilientSinkBase(std::ostream& out, std::string name)
    : out_(&out), name_(std::move(name)) {}

ResilientSinkBase::ResilientSinkBase(const std::string& path, std::string name)
    : file_(OpenOrThrow(path)), out_(&file_), name_(std::move(name)) {}

void ResilientSinkBase::EnableResilience(const rt::RetryPolicy& policy,
                                         std::shared_ptr<rt::Clock> clock,
                                         rt::FaultInjector* injector,
                                         obs::MetricsRegistry* metrics, obs::JsonlLogger* logger) {
  writer_ = std::make_unique<rt::ResilientWriter>(*out_, policy, std::move(clock));
  writer_->SetFaultInjector(injector);
  writer_->Attach(metrics, logger, name_);
}

void ResilientSinkBase::WriteRow(const std::string& row) {
  if (writer_ != nullptr) {
    writer_->Write(row);
  } else {
    out_->write(row.data(), static_cast<std::streamsize>(row.size()));
  }
}

void ResilientSinkBase::OnRunEnd() {
  if (writer_ != nullptr) {
    writer_->Flush();
  } else {
    out_->flush();
  }
}

CsvBinSink::CsvBinSink(std::ostream& out) : ResilientSinkBase(out, "csv") {}

CsvBinSink::CsvBinSink(const std::string& path) : ResilientSinkBase(path, "csv") {}

void CsvBinSink::OnBin(const core::BinLog& log, const BinStats& stats) {
  std::ostringstream row;
  if (!header_written_) {
    row << "bin,start_us,num_queries,packets_in,packets_dropped,packets_unsampled,"
           "batch_dropped,overload,predicted_cycles,avail_cycles,query_cycles,ps_cycles,"
           "ls_cycles,como_cycles,backlog_cycles,rtthresh,utilization,drop_fraction,"
           "shed_fraction,degradation,degradation_rung,deadline_missed,deadline_overrun_us\n";
    header_written_ = true;
  }
  row << stats.bin_index << ',' << log.start_us << ',' << stats.num_queries << ','
      << log.packets_in << ',' << log.packets_dropped << ',' << log.packets_unsampled << ','
      << (log.batch_dropped ? 1 : 0) << ',' << (log.overload ? 1 : 0) << ','
      << log.predicted_cycles << ',' << log.avail_cycles << ',' << log.query_cycles << ','
      << log.ps_cycles << ',' << log.ls_cycles << ',' << log.como_cycles << ','
      << log.backlog_cycles << ',' << log.rtthresh << ',' << stats.utilization << ','
      << stats.drop_fraction << ',' << stats.shed_fraction << ','
      << static_cast<int>(log.degradation) << ',' << rt::DegradeActionName(log.degradation) << ','
      << (log.deadline_missed ? 1 : 0) << ',' << log.deadline_overrun_us << '\n';
  WriteRow(row.str());
}

JsonlBinSink::JsonlBinSink(std::ostream& out) : ResilientSinkBase(out, "jsonl") {}

JsonlBinSink::JsonlBinSink(const std::string& path) : ResilientSinkBase(path, "jsonl") {}

void JsonlBinSink::OnBin(const core::BinLog& log, const BinStats& stats) {
  std::ostringstream buf;
  std::ostream& out = buf;
  out << "{\"bin\":" << stats.bin_index << ",\"start_us\":" << log.start_us
      << ",\"packets_in\":" << log.packets_in
      << ",\"packets_dropped\":" << log.packets_dropped
      << ",\"packets_unsampled\":" << log.packets_unsampled
      << ",\"batch_dropped\":" << (log.batch_dropped ? "true" : "false")
      << ",\"overload\":" << (log.overload ? "true" : "false")
      << ",\"predicted_cycles\":" << log.predicted_cycles
      << ",\"avail_cycles\":" << log.avail_cycles << ",\"query_cycles\":" << log.query_cycles
      << ",\"ps_cycles\":" << log.ps_cycles << ",\"ls_cycles\":" << log.ls_cycles
      << ",\"como_cycles\":" << log.como_cycles << ",\"backlog_cycles\":" << log.backlog_cycles
      << ",\"utilization\":" << stats.utilization
      << ",\"degradation\":" << static_cast<int>(log.degradation) << ",\"degradation_rung\":\""
      << rt::DegradeActionName(log.degradation) << "\",\"deadline_missed\":" << (log.deadline_missed ? "true" : "false")
      << ",\"deadline_overrun_us\":" << log.deadline_overrun_us << ",\"queries\":[";
  for (size_t q = 0; q < stats.query_names.size(); ++q) {
    if (q > 0) {
      out << ',';
    }
    WriteJsonString(out, stats.query_names[q]);
  }
  out << "],\"rate\":[";
  for (size_t q = 0; q < log.rate.size(); ++q) {
    out << (q > 0 ? "," : "") << log.rate[q];
  }
  out << "],\"per_query_cycles\":[";
  for (size_t q = 0; q < log.per_query_cycles.size(); ++q) {
    out << (q > 0 ? "," : "") << log.per_query_cycles[q];
  }
  out << "],\"disabled\":[";
  for (size_t q = 0; q < log.disabled.size(); ++q) {
    out << (q > 0 ? "," : "") << (log.disabled[q] ? "true" : "false");
  }
  out << "]}\n";
  WriteRow(buf.str());
}

}  // namespace shedmon::api
