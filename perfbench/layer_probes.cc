#include "layer_probes.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <span>
#include <stdexcept>

#include "core/deepod_config.h"
#include "core/deepod_model.h"
#include "core/trainer.h"
#include "datagen_manifest.h"
#include "io/model_artifact.h"
#include "io/sharded_trip_source.h"
#include "io/trip_io.h"
#include "io/trip_store.h"
#include "nn/optimizer.h"
#include "nn/tensor.h"
#include "road/edge_graph.h"
#include "serve/eta_service.h"
#include "serve/fleet_router.h"
#include "serve/server/admission.h"
#include "serve/server/frame.h"
#include "sim/dataset.h"
#include "sim/rolling_speed_field.h"
#include "util/rng.h"
#include "util/weighted_digraph.h"

namespace deepod::perfbench {

namespace net = serve::net;

namespace {

// A deepod_datagen corpus opened for out-of-core training the way
// `deepod_train --data DIR --feed sharded` opens it: the environment is
// rebuilt from the manifest, the validation/test splits are read, and one
// streamed pass over the training shards yields the co-occurrence graph
// and the time scale. The training split itself stays on disk.
struct Corpus {
  std::unique_ptr<sim::Dataset> dataset;  // holds references into itself
  std::vector<std::string> shard_paths;
  util::WeightedDigraph edge_graph;
  double time_scale = 1.0;
  size_t train_trips = 0;
};

Corpus LoadCorpus(const std::string& data_dir) {
  Corpus c;
  const tools::DatagenManifest manifest =
      tools::ReadManifest(data_dir + "/manifest.csv");
  c.dataset = std::make_unique<sim::Dataset>();
  sim::InitDatasetEnvironment(tools::ToDatasetConfig(manifest),
                              c.dataset.get());
  c.shard_paths = tools::ManifestShardPaths(data_dir, manifest.shards);
  road::EdgeGraphAccumulator edges;
  double time_sum = 0.0;
  traj::TripRecord record;
  for (const auto& path : c.shard_paths) {
    const auto reader = io::TripStoreReader::OpenOrThrow(path);
    for (size_t i = 0; i < reader.size(); ++i) {
      reader.Decode(i, &record);
      edges.AddSequence(c.dataset->network, record.trajectory.SegmentIds());
      time_sum += record.travel_time;
      ++c.train_trips;
    }
  }
  c.edge_graph = edges.Build(c.dataset->network);
  c.time_scale = c.train_trips == 0
                     ? 1.0
                     : time_sum / static_cast<double>(c.train_trips);
  c.dataset->validation =
      io::TripStoreReader::OpenOrThrow(data_dir + "/val.trips").ReadAll();
  c.dataset->test =
      io::TripStoreReader::OpenOrThrow(data_dir + "/test.trips").ReadAll();
  return c;
}

// The training configuration of the probe model: the deepod_train defaults
// (Scaled(16), batch 8) at one thread, so results are deterministic and the
// timing does not depend on the host's core count.
core::DeepOdConfig TrainConfig() {
  core::DeepOdConfig config = core::DeepOdConfig().Scaled(16);
  config.epochs = 1;
  config.batch_size = 8;
  config.num_threads = 1;
  return config;
}

// Per-segment speed observations of a completed trip.
std::vector<sim::TripObservation> TripObservations(
    const road::RoadNetwork& network, const traj::TripRecord& trip) {
  std::vector<sim::TripObservation> out;
  for (const auto& e : trip.trajectory.path) {
    const double dt = std::max(1.0, e.exit - e.enter);
    out.push_back({e.segment_id, e.enter,
                   network.segment(e.segment_id).length / dt});
  }
  return out;
}

constexpr size_t kMaxReplay = 8192;

void ProbeServerCodec(const std::vector<traj::OdInput>& stream, size_t fill,
                      MetricSet* m) {
  std::vector<std::vector<uint8_t>> wires;
  std::vector<net::RequestFrame> frames;
  for (size_t i = 0; i < stream.size(); ++i) {
    net::RequestFrame f;
    f.request_id = i;
    f.od = stream[i];
    frames.push_back(f);
    wires.push_back(net::EncodeRequestFrame(f));
  }
  const double n = static_cast<double>(wires.size());
  net::RequestFrame decoded;
  size_t bad = 0;
  m->Add("server.frame_decode_ns", MedianTime(5, n, 1e9, [&] {
           for (const auto& w : wires) {
             bad += net::DecodeRequestPayload(w.data() + 4, w.size() - 4,
                                              &decoded) != net::Status::kOk;
           }
         }),
         "ns");
  size_t bytes = 0;
  m->Add("server.frame_encode_ns", MedianTime(5, n, 1e9, [&] {
           net::ResponseFrame r;
           for (size_t i = 0; i < wires.size(); ++i) {
             r.request_id = i;
             r.eta_seconds = static_cast<double>(i);
             bytes += net::EncodeResponseFrame(r).size();
           }
         }),
         "ns");
  if (bad != 0 || bytes == 0) throw std::runtime_error("frame codec probe");

  // One admission cycle per request at the observed fill: Offer `fill`
  // requests, then drain them with one PopBatch.
  net::AdmissionQueue queue(net::AdmissionOptions{});
  std::vector<net::AdmittedRequest> batch;
  m->Add("server.admission_ns", MedianTime(5, n, 1e9, [&] {
           for (size_t i = 0; i < frames.size(); i += fill) {
             const size_t end = std::min(frames.size(), i + fill);
             for (size_t j = i; j < end; ++j) {
               net::AdmittedRequest req;
               req.frame = frames[j];
               req.arrival = Clock::now();
               req.deadline = Clock::time_point::max();
               if (queue.Offer(std::move(req)).status != net::Status::kOk) {
                 throw std::runtime_error("admission probe shed");
               }
             }
             batch.clear();
             queue.PopBatch(fill, &batch);
           }
         }),
         "ns");
}

void ProbeCore(core::DeepOdModel& model,
               const std::vector<traj::OdInput>& stream, size_t fill,
               MetricSet* m) {
  const size_t n = std::min<size_t>(stream.size(), 512);
  const std::span<const traj::OdInput> ods(stream.data(), n);
  const double dn = static_cast<double>(n);
  m->Add("core.predict_us_b1", MedianTime(3, dn, 1e6, [&] {
           for (size_t i = 0; i < n; ++i) model.PredictBatch(ods.subspan(i, 1));
         }),
         "us");
  m->Add("core.predict_us_fill", MedianTime(3, dn, 1e6, [&] {
           for (size_t i = 0; i < n; i += fill) {
             model.PredictBatch(ods.subspan(i, std::min(fill, n - i)));
           }
         }),
         "us");
  // The paper's Table 5 split: M_O (EncodeOd), M_E's external-feature CNN
  // (EncodeExternal, memo cleared vs warm) and the estimator head.
  const nn::InferenceGuard guard;
  std::vector<nn::Tensor> codes;
  m->Add("core.encode_od_us", MedianTime(3, dn, 1e6, [&] {
           codes.clear();
           for (size_t i = 0; i < n; ++i) {
             codes.push_back(model.EncodeOd(ods[i]));
           }
         }),
         "us");
  m->Add("core.encode_external_warm_us", MedianTime(3, dn, 1e6, [&] {
           for (size_t i = 0; i < n; ++i) model.EncodeExternal(ods[i]);
         }),
         "us");
  const size_t cold_n = std::min<size_t>(n, 64);
  std::vector<double> cold;
  for (int rep = 0; rep < 3; ++rep) {
    for (size_t i = 0; i < cold_n; ++i) {
      model.ClearOcodeMemo();
      const auto a = Clock::now();
      model.EncodeExternal(ods[i]);
      cold.push_back(SecondsBetween(a, Clock::now()) * 1e6);
    }
  }
  m->Add("core.encode_external_cold_us", Median(cold), "us");
  m->Add("core.estimate_from_code_us", MedianTime(3, dn, 1e6, [&] {
           for (const auto& code : codes) model.EstimateFromCode(code);
         }),
         "us");
}

void ProbeServe(const ProbeInputs& in, const road::RoadNetwork& network,
                MetricSet* m) {
  const auto service = serve::EtaService::FromArtifact(
      in.artifact_path, network, serve::EtaServiceOptions{});
  const auto& stream = in.stream;
  std::vector<double> call_ms;
  const auto a = Clock::now();
  for (size_t i = 0; i < stream.size(); i += in.fill) {
    const auto c = Clock::now();
    service->EstimateBatch(std::span<const traj::OdInput>(
        stream.data() + i, std::min(in.fill, stream.size() - i)));
    call_ms.push_back(SecondsBetween(c, Clock::now()) * 1e3);
  }
  m->Add("serve.estimate_batch_us",
         SecondsBetween(a, Clock::now()) * 1e6 /
             static_cast<double>(stream.size()),
         "us");
  m->Add("serve.batch_predict_ms_p50", Median(call_ms), "ms");
  m->Add("serve.bump_epoch_us",
         MedianTime(5, 200, 1e6, [&] {
           for (int i = 0; i < 200; ++i) service->BumpEpoch();
         }),
         "us");
}

void ProbeFleet(const ProbeInputs& in, MetricSet* m) {
  serve::FleetRouterOptions options;
  std::unique_ptr<serve::FleetRouter> router;
  m->Add("io.fleet_load_ms", MedianTime(3, 1, 1e3, [&] {
           if (router) router->Stop();
           router = std::make_unique<serve::FleetRouter>(
               serve::ReadFleetManifest(in.fleet_path), options);
         }),
         "ms");
  std::vector<uint32_t> ids;
  for (const auto& shard : router->shards()) ids.push_back(shard->network_id());
  constexpr int kResolves = 100000;
  size_t found = 0;
  m->Add("fleet.resolve_ns", MedianTime(3, kResolves, 1e9, [&] {
           for (int i = 0; i < kResolves; ++i) {
             found += router->Resolve(ids[static_cast<size_t>(i) % ids.size()])
                          != nullptr;
           }
         }),
         "ns");
  router->Stop();
  if (found != 3 * static_cast<size_t>(kResolves)) {
    throw std::runtime_error("fleet resolve probe");
  }

  serve::FleetRouter oracle_router(
      serve::ReadFleetManifest(in.oracle_fleet_path), options);
  const serve::FleetShard* shard = oracle_router.shards().front().get();
  size_t answered = 0;
  const size_t n = std::min<size_t>(in.stream.size(), 2048);
  m->Add("baselines.oracle_predict_ns",
         MedianTime(5, static_cast<double>(n), 1e9, [&] {
           for (size_t i = 0; i < n; ++i) {
             answered += shard->FallbackEstimate(in.stream[i]).has_value();
           }
         }),
         "ns");
  oracle_router.Stop();
  if (answered != 5 * n) throw std::runtime_error("oracle probe: no answer");
}

void ProbeTraining(const ProbeInputs& in, MetricSet* m) {
  Corpus corpus;
  m->Add("io.dataset_load_ms",
         MedianTime(3, 1, 1e3, [&] { corpus = LoadCorpus(in.data_dir); }),
         "ms");
  const sim::Dataset& dataset = *corpus.dataset;
  core::DeepOdModel model(TrainConfig(), dataset, &corpus.edge_graph,
                          corpus.time_scale);

  // The trip feed alone: one epoch of BeginEpoch + PrefetchWindow/At in
  // training-batch strides, no training.
  io::ShardedTripSource::Options feed_options;
  feed_options.window_size = 128;
  {
    io::ShardedTripSource feed(corpus.shard_paths, feed_options);
    util::Rng rng(7);
    const size_t batch = TrainConfig().batch_size;
    double touched = 0.0;
    m->Add("io.feed_us_per_trip",
           MedianTime(3, static_cast<double>(feed.size()), 1e6, [&] {
             feed.BeginEpoch(rng);
             for (size_t pos = 0; pos < feed.size(); pos += batch) {
               const size_t k = std::min(batch, feed.size() - pos);
               feed.PrefetchWindow(pos, k);
               for (size_t i = 0; i < k; ++i) {
                 touched += feed.At(pos + i).travel_time;
               }
             }
           }),
           "us");
    if (!(touched > 0.0)) throw std::runtime_error("feed probe");
  }

  // One real training epoch through the out-of-core feed gives the share
  // of window fills the async lookahead had ready.
  io::ShardedTripSource feed(corpus.shard_paths, feed_options);
  core::DeepOdTrainer trainer(model, dataset, &feed);
  trainer.TrainPrefix(1);
  const double windows = static_cast<double>(
      (feed.size() + feed_options.window_size - 1) / feed_options.window_size);
  m->Add("io.prefetch_hit_ratio",
         static_cast<double>(feed.prefetch_hits()) / windows, "ratio");
  m->Add("core.validation_ms",
         MedianTime(3, 1, 1e3, [&] { trainer.ValidationMae(200); }), "ms");

  model.SetTraining(true);
  std::vector<double> loss_us, backward_us;
  const size_t n = std::min<size_t>(dataset.validation.size(), 48);
  for (size_t i = 0; i < n; ++i) {
    const auto a = Clock::now();
    nn::Tensor loss = model.SampleLoss(dataset.validation[i]);
    const auto b = Clock::now();
    loss.Backward();
    const auto c = Clock::now();
    loss_us.push_back(SecondsBetween(a, b) * 1e6);
    backward_us.push_back(SecondsBetween(b, c) * 1e6);
  }
  m->Add("core.sample_loss_us", Median(loss_us), "us");
  m->Add("core.backward_us", Median(backward_us), "us");
  nn::Adam adam(model.Parameters(), TrainConfig().learning_rate);
  m->Add("nn.optimizer_step_ms", MedianTime(9, 1, 1e3, [&] {
           adam.Step();
           adam.ZeroGrad();
         }),
         "ms");
}

void ProbeLiveSpeed(const road::RoadNetwork& network,
                    const sim::SpeedProvider* baseline,
                    const std::vector<traj::TripRecord>& trips,
                    MetricSet* m) {
  const double snapshot_s =
      baseline != nullptr ? baseline->snapshot_seconds() : 300.0;
  sim::RollingSpeedField field(network, 200.0, snapshot_s, baseline);
  std::vector<std::vector<sim::TripObservation>> per_trip;
  size_t total = 0;
  for (const auto& trip : trips) {
    per_trip.push_back(TripObservations(network, trip));
    total += per_trip.back().size();
  }
  if (total == 0) throw std::runtime_error("live-speed probe: no routes");
  std::vector<double> publish_ms;
  double ingest_s = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    const auto a = Clock::now();
    for (const auto& obs : per_trip) field.Ingest(obs);
    const auto b = Clock::now();
    field.Publish();
    publish_ms.push_back(SecondsBetween(b, Clock::now()) * 1e3);
    ingest_s += SecondsBetween(a, b);
  }
  m->Add("sim.ingest_us_per_obs",
         ingest_s * 1e6 / (5.0 * static_cast<double>(total)), "us");
  m->Add("sim.publish_ms", Median(publish_ms), "ms");
}

}  // namespace

void RunLayerProbes(const ProbeInputs& in, MetricSet* m) {
  const road::RoadNetwork network = io::ReadNetworkCsv(in.network_path);
  std::vector<traj::OdInput> stream = in.stream;
  if (stream.size() > kMaxReplay) stream.resize(kMaxReplay);
  if (stream.empty()) throw std::runtime_error("probes need a stream");
  const size_t fill = std::max<size_t>(1, in.fill);
  ProbeServerCodec(stream, fill, m);

  io::ServingModel served;
  m->Add("io.artifact_load_ms", MedianTime(3, 1, 1e3, [&] {
           served = io::LoadModelArtifact(in.artifact_path, network);
         }),
         "ms");
  ProbeCore(*served.model, stream, fill, m);

  ProbeInputs replay = in;
  replay.stream = stream;
  replay.fill = fill;
  ProbeServe(replay, network, m);
  ProbeFleet(replay, m);
  ProbeTraining(in, m);

  const std::vector<traj::TripRecord> trips =
      io::TripStoreReader::OpenOrThrow(in.data_dir + "/val.trips").ReadAll();
  ProbeLiveSpeed(network, served.speed.get(), trips, m);
}

}  // namespace deepod::perfbench
