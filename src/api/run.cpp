#include "src/api/run.h"

namespace shedmon::api {

std::unique_ptr<Pipeline> RunTrace(const PipelineBuilder& builder, const trace::Trace& trace) {
  auto pipeline = builder.BuildUnique();
  pipeline->Push(trace);
  pipeline->Finish();
  return pipeline;
}

std::vector<std::unique_ptr<Pipeline>> RunPipelineGrid(
    size_t cells, const std::function<PipelineBuilder(size_t)>& make_builder,
    const trace::Trace& trace, exec::ThreadPool* pool) {
  std::vector<std::unique_ptr<Pipeline>> results(cells);
  const auto run_one = [&](size_t i) { results[i] = RunTrace(make_builder(i), trace); };
  if (pool != nullptr && cells > 1) {
    pool->ParallelFor(0, cells, 1, run_one);
  } else {
    for (size_t i = 0; i < cells; ++i) {
      run_one(i);
    }
  }
  return results;
}

}  // namespace shedmon::api
