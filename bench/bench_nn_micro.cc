// Micro-benchmarks (google-benchmark) of the nn kernels that dominate
// DeepOD's runtime: the LSTM step chain, the time-interval ResNet block,
// the traffic CNN, and the embedding gather + MLP path. Writes every
// measurement to BENCH_nn_micro.json (name, wall seconds, threads,
// samples/sec) for tooling.
#include <benchmark/benchmark.h>

#include <vector>

#include "nn/conv.h"
#include "nn/lstm.h"
#include "nn/module.h"
#include "nn/ops.h"
#include "nn/optimizer.h"
#include "nn/quant.h"
#include "obs/metrics.h"
#include "util/rng.h"

namespace {

using namespace deepod;

void BM_LstmForward(benchmark::State& state) {
  const size_t seq_len = static_cast<size_t>(state.range(0));
  util::Rng rng(2);
  nn::Lstm lstm(24, 16, rng);
  std::vector<nn::Tensor> inputs;
  for (size_t i = 0; i < seq_len; ++i) {
    inputs.push_back(nn::Tensor::Randn({24}, rng, 1.0));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(lstm.Forward(inputs));
  }
}
BENCHMARK(BM_LstmForward)->Arg(10)->Arg(40);

void BM_LstmForwardBackward(benchmark::State& state) {
  util::Rng rng(3);
  nn::Lstm lstm(24, 16, rng);
  std::vector<nn::Tensor> inputs;
  for (size_t i = 0; i < 20; ++i) {
    inputs.push_back(nn::Tensor::Randn({24}, rng, 1.0));
  }
  for (auto _ : state) {
    nn::Tensor loss = nn::Sum(nn::Square(lstm.Forward(inputs)));
    loss.Backward();
    for (auto& p : lstm.Parameters()) p.ZeroGrad();
  }
}
BENCHMARK(BM_LstmForwardBackward);

void BM_ResNetTimeBlock(benchmark::State& state) {
  const size_t delta_d = static_cast<size_t>(state.range(0));
  util::Rng rng(4);
  nn::ResNetTimeBlock block(rng);
  nn::Tensor in = nn::Tensor::Randn({delta_d, 8}, rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(block.Forward(in));
  }
}
BENCHMARK(BM_ResNetTimeBlock)->Arg(1)->Arg(4);

void BM_TrafficCnn(benchmark::State& state) {
  util::Rng rng(5);
  nn::TrafficCnn cnn(16, rng);
  nn::Tensor in = nn::Tensor::Randn({1, 8, 8}, rng, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cnn.Forward(in));
  }
}
BENCHMARK(BM_TrafficCnn);

void BM_EmbeddingGatherMlp(benchmark::State& state) {
  util::Rng rng(6);
  nn::Embedding emb(2016, 8, rng);
  nn::Mlp2 mlp(16, 16, 8, rng);
  for (auto _ : state) {
    nn::Tensor x = nn::ConcatVec({emb.Forward(100), emb.Forward(101)});
    benchmark::DoNotOptimize(mlp.Forward(x));
  }
}
BENCHMARK(BM_EmbeddingGatherMlp);

// Cost of snapping a 64x64 weight matrix to a quantised tier (1 = fp16
// round-trip, 2 = per-row absmax int8) — the per-tensor work
// io::LoadModelArtifact does once per load when a quant mode is requested.
void BM_QuantizeWeights(benchmark::State& state) {
  const nn::QuantMode mode = state.range(0) == 2 ? nn::QuantMode::kInt8
                                                 : nn::QuantMode::kFp16;
  util::Rng rng(9);
  nn::Tensor w = nn::Tensor::Randn({64, 64}, rng, 1.0);
  std::vector<double> scratch = w.data();
  for (auto _ : state) {
    scratch = w.data();
    nn::FakeQuantizeValues(scratch.data(), 64, 64, mode);
    benchmark::DoNotOptimize(scratch.data());
  }
}
BENCHMARK(BM_QuantizeWeights)->Arg(1)->Arg(2);

void BM_AdamStep(benchmark::State& state) {
  util::Rng rng(7);
  std::vector<nn::Tensor> params;
  for (int i = 0; i < 10; ++i) {
    nn::Tensor p = nn::Tensor::Randn({64, 64}, rng, 1.0);
    p.set_requires_grad(true);
    for (double& g : p.mutable_grad()) g = rng.Normal();
    params.push_back(p);
  }
  nn::Adam adam(params, 0.01);
  for (auto _ : state) {
    adam.Step();
  }
}
BENCHMARK(BM_AdamStep);

// Console reporter that also collects per-benchmark wall time into the
// shared obs record schema (the same one bench/common.h and the obs
// registry exports use, so one validator/compare tool covers every
// BENCH_*.json). Piggybacks on the display reporter because
// google-benchmark only accepts a separate file reporter together with
// --benchmark_out.
class JsonCollector : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double secs_per_iter =
          run.iterations > 0
              ? run.real_accumulated_time / static_cast<double>(run.iterations)
              : run.real_accumulated_time;
      obs::Record rec;
      rec.name = run.benchmark_name();
      rec.wall_seconds = secs_per_iter;
      rec.threads = static_cast<size_t>(run.threads);
      if (secs_per_iter > 0.0) rec.samples_per_sec = 1.0 / secs_per_iter;
      records_.push_back(std::move(rec));
    }
  }

  void WriteJson(const std::string& path) const {
    obs::WriteRecordsJson(path, records_);
  }

 private:
  std::vector<obs::Record> records_;
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonCollector collector;
  benchmark::RunSpecifiedBenchmarks(&collector);
  collector.WriteJson("BENCH_nn_micro.json");
  benchmark::Shutdown();
  return 0;
}
