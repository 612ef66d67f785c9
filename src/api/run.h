#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "src/api/pipeline.h"
#include "src/exec/thread_pool.h"
#include "src/trace/generator.h"

namespace shedmon::api {

// Runs one configured pipeline end-to-end over a saved trace: builds it
// (registering the builder's query roster and sinks), pushes the whole trace
// and finishes. The returned pipeline holds the system log and the live
// reference instances, so per-query accuracy reads straight off it.
std::unique_ptr<Pipeline> RunTrace(const PipelineBuilder& builder, const trace::Trace& trace);

// Fans `cells` independent RunTrace calls over `pool` (serially when null):
// the K-sweeps and system-comparison grids the figure drivers execute.
// make_builder must be safe to call concurrently; result i corresponds to
// cell i and is bit-identical to running that cell alone.
std::vector<std::unique_ptr<Pipeline>> RunPipelineGrid(
    size_t cells, const std::function<PipelineBuilder(size_t)>& make_builder,
    const trace::Trace& trace, exec::ThreadPool* pool);

}  // namespace shedmon::api
