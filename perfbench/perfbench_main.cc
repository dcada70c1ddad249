// perfbench: runs one benchmark workload against the DeepOD serving
// and training stack and prints its metrics. perfbench/run.py builds this
// binary, prepares the seed's inputs and invokes it as
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//                    --world DIR --server PATH/deepod_server
//
// The last line of standard output is the result object
// {"correct", "attempted", "failed", "metrics"}; earlier lines carry run
// diagnostics. See perfbench/README.md for every workload and metric.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/deepod_model.h"
#include "io/model_artifact.h"
#include "io/trip_io.h"
#include "io/trip_store.h"
#include "layer_probes.h"
#include "serve/fleet_router.h"
#include "serve_session.h"

namespace deepod::perfbench {
namespace {

namespace net = serve::net;
using Rng = std::mt19937_64;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string world;
  std::string server;
};

// Fixed workload parameters (see README "Workloads").
constexpr double kWarmupS = 1.0;        // untimed lead-in at the same rate
constexpr double kGraceS = 3.0;         // answer deadline after the last send
constexpr double kSliceS = 0.5;         // statistics slice of the window
constexpr double kHotWindowS = 1800.0;  // departures of the hot mix
constexpr size_t kHotSetSize = 64;
constexpr double kHotFraction = 0.8;
constexpr double kObserveFraction = 0.1;  // serve_live: ObserveTrip frames
constexpr size_t kObservationsPerTrip = 8;
constexpr double kMinSpeedMps = 3.0, kSpeedSpanMps = 12.0;
// Open-loop rate of every serving workload. At 10k qps the run's own load
// raised host steal to 15-25% and p50 swung 0.05-1.6 ms between runs; at
// 4k the server CPU per request repeats (README "Host noise").
constexpr double kRate = 4000.0;
constexpr int kSetupReps = 9;           // serve_*: server spawns per run
constexpr size_t kGateQueries = 96;     // distinct keys per city
constexpr uint32_t kAlphaId = 1, kBetaId = 2, kGammaId = 3;


struct City {
  std::string name;
  uint32_t id = 0;
  std::string dir;
  road::RoadNetwork network;
  double dep_lo = 0.0, dep_hi = 0.0;  // test-split departure range
  int weather = 0;  // one weather state for every generated query
  std::vector<traj::OdInput> test_ods;
  std::vector<double> test_actual;
  std::vector<traj::TripRecord> routes;  // validation trips (with routes)
};

City LoadCity(const std::string& world, const std::string& name, uint32_t id,
              const City* time_source) {
  City c;
  c.name = name;
  c.id = id;
  c.dir = world + "/" + name;
  c.network = io::ReadNetworkCsv(c.dir + "/model/network.csv");
  if (time_source == nullptr) {
    const auto test =
        io::TripStoreReader::OpenOrThrow(c.dir + "/data/test.trips").ReadAll();
    if (test.empty()) throw std::runtime_error(name + ": empty test split");
    c.dep_lo = c.dep_hi = test.front().od.departure_time;
    for (const auto& t : test) {
      c.dep_lo = std::min(c.dep_lo, t.od.departure_time);
      c.dep_hi = std::max(c.dep_hi, t.od.departure_time);
      c.test_ods.push_back(t.od);
      c.test_actual.push_back(t.travel_time);
    }
    c.weather = test.front().od.weather_type;
    c.routes =
        io::TripStoreReader::OpenOrThrow(c.dir + "/data/val.trips").ReadAll();
  } else {
    // An oracle-only city has no corpus of its own on disk.
    c.dep_lo = time_source->dep_lo;
    c.dep_hi = time_source->dep_hi;
    c.weather = time_source->weather;
  }
  return c;
}

traj::OdInput RandomOd(const City& c, Rng& rng, double lo, double hi) {
  std::uniform_int_distribution<size_t> seg(0, c.network.num_segments() - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  traj::OdInput od;
  od.origin_segment = seg(rng);
  od.dest_segment = seg(rng);
  od.origin_ratio = unit(rng);
  od.dest_ratio = unit(rng);
  od.departure_time = lo + (hi - lo) * unit(rng);
  od.weather_type = c.weather;
  return od;
}

ScheduledFrame RequestWire(uint64_t id, uint32_t network_id,
                           const traj::OdInput& od) {
  net::RequestFrame f;
  f.request_id = id;
  f.network_id = network_id;
  f.od = od;
  ScheduledFrame s;
  s.wire = net::EncodeRequestFrame(f);
  s.network_id = network_id;
  return s;
}

// A completed trip reported back, in the hot window [lo, lo + 1800 s): a
// random OD, the travel time of a random validation trip, and
// kObservationsPerTrip per-segment speeds on uniformly drawn segments. The
// segments are drawn from the whole network rather than taken from the
// trip's route: with routes, how much of the speed field a run touched
// depended on the seed's trips, and serve_live's CPU per request and peak
// RSS differed by seed by 20-30%.
ScheduledFrame ObserveWire(uint64_t id, const City& c, Rng& rng, double lo) {
  std::uniform_int_distribution<size_t> seg(0, c.network.num_segments() - 1);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  net::ObserveFrame f;
  f.request_id = id;
  f.network_id = c.id;
  f.od = RandomOd(c, rng, lo, lo + kHotWindowS);
  f.actual_seconds = c.routes[rng() % c.routes.size()].travel_time;
  for (size_t k = 0; k < kObservationsPerTrip; ++k) {
    f.observations.push_back({seg(rng), lo + kHotWindowS * unit(rng),
                              kMinSpeedMps + kSpeedSpanMps * unit(rng)});
  }
  ScheduledFrame s;
  s.wire = net::EncodeObserveFrame(f);
  s.observe = true;
  s.network_id = c.id;
  return s;
}

// The open-loop schedule of one serving workload: Poisson arrivals at
// `rate` for `duration_s`. `reads` receives the primary city's read
// requests in send order (the layer probes replay them).
std::vector<ScheduledFrame> BuildSchedule(const std::string& workload,
                                          const std::vector<City>& cities,
                                          Rng& rng, double rate,
                                          double duration_s,
                                          std::vector<traj::OdInput>* reads) {
  const City& alpha = cities[0];
  const double lo = alpha.dep_lo;
  const double hi = lo + kHotWindowS;
  std::vector<traj::OdInput> hot;
  for (size_t i = 0; i < kHotSetSize; ++i) {
    hot.push_back(RandomOd(alpha, rng, lo, hi));
  }

  std::exponential_distribution<double> gap(rate);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<ScheduledFrame> frames;
  double t = 0.0;
  for (uint64_t i = 0;; ++i) {
    t += gap(rng);
    if (t >= duration_s) break;
    ScheduledFrame f;
    if (workload == "serve_fleet") {
      // Uniform ODs over the whole horizon, network ids round-robin.
      const City& c = cities[i % cities.size()];
      const traj::OdInput od = RandomOd(c, rng, c.dep_lo, c.dep_hi);
      if (c.id == kAlphaId) reads->push_back(od);
      f = RequestWire(i, c.id, od);
    } else if (workload == "serve_live" && unit(rng) < kObserveFraction) {
      f = ObserveWire(i, alpha, rng, lo);
    } else {
      const traj::OdInput od = unit(rng) < kHotFraction
                                   ? hot[rng() % hot.size()]
                                   : RandomOd(alpha, rng, lo, hi);
      reads->push_back(od);
      f = RequestWire(i, alpha.id, od);
    }
    f.due_s = t;
    frames.push_back(std::move(f));
  }
  return frames;
}

// Server options. The admission queue holds 4096 requests (default 1024):
// at 4k requests/s the default fills after a 0.26 s stall of the server's
// one CPU. One serve_fleet run in thirty failed 30 of 60545 requests with
// the default; its failure statuses were not recorded then.
std::vector<std::string> ServerArgs(const std::string& workload,
                                    const std::string& world) {
  std::vector<std::string> args = {"--queue-capacity", "4096"};
  if (workload == "serve_fleet") {
    args.insert(args.end(), {"--fleet", world + "/fleet.csv"});
    return args;
  }
  args.insert(args.end(),
              {"--artifact", world + "/alpha/model/model.artifact",
               "--network", world + "/alpha/model/network.csv"});
  if (workload == "serve_live") {
    args.insert(args.end(), {"--live-speed", "--publish-ms", "50"});
  }
  return args;
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// Correctness gates run on a fresh server before any timed traffic:
// served ETAs of distinct keys are bit-identical to in-process
// PredictBatch for each warm city, and the cold city's answers equal the
// in-process oracle's. Returns the number of mismatches.
size_t RunServedEqualsInProcess(net::Client& client,
                                const std::vector<City>& cities,
                                const std::string& world, Rng& rng) {
  std::vector<ScheduledFrame> frames;
  std::vector<traj::OdInput> ods;
  for (const City& c : cities) {
    for (size_t i = 0; i < kGateQueries; ++i) {
      ods.push_back(RandomOd(c, rng, c.dep_lo, c.dep_hi));
      frames.push_back(RequestWire(frames.size(), c.id, ods.back()));
    }
  }
  const std::vector<Reply> replies = RunBurst(client, frames, 30.0);
  size_t bad = 0;
  std::unique_ptr<serve::FleetRouter> oracle_router;
  for (size_t ci = 0; ci < cities.size(); ++ci) {
    const City& c = cities[ci];
    const size_t first = ci * kGateQueries;
    const std::span<const traj::OdInput> city_ods(ods.data() + first,
                                                  kGateQueries);
    std::vector<double> expect(kGateQueries);
    std::vector<net::Estimator> tag(kGateQueries, net::Estimator::kModel);
    if (c.id == kGammaId) {
      if (!oracle_router) {
        oracle_router = std::make_unique<serve::FleetRouter>(
            serve::ReadFleetManifest(world + "/fleet.csv"),
            serve::FleetRouterOptions{});
      }
      const serve::FleetShard* shard = oracle_router->Resolve(c.id);
      for (size_t i = 0; i < kGateQueries; ++i) {
        const auto fb = shard->FallbackEstimate(city_ods[i]);
        if (!fb) throw std::runtime_error("cold city: no oracle answer");
        expect[i] = fb->eta;
        tag[i] = fb->estimator;
      }
    } else {
      io::ServingModel sm = io::LoadModelArtifact(
          c.dir + "/model/model.artifact", c.network);
      expect = sm.model->PredictBatch(city_ods);
    }
    for (size_t i = 0; i < kGateQueries; ++i) {
      const Reply& r = replies[first + i];
      if (!r.received || r.status != net::Status::kOk ||
          r.estimator != tag[i] || !SameBits(r.eta, expect[i])) {
        ++bad;
      }
    }
  }
  if (oracle_router) oracle_router->Stop();
  return bad;
}

// Seconds from spawning deepod_server until its first Ok answer (artifact
// or fleet load included).
double MeasureSetup(const Args& args, const City& alpha) {
  const auto t0 = Clock::now();
  ServerProcess server(args.server, ServerArgs(args.workload, args.world),
                       "off");
  net::Client client;
  if (!client.Connect("127.0.0.1", server.port())) {
    throw std::runtime_error("setup probe: connect failed");
  }
  traj::OdInput od = alpha.test_ods.front();
  const std::vector<ScheduledFrame> one = {RequestWire(0, alpha.id, od)};
  const std::vector<Reply> r = RunBurst(client, one, 30.0);
  const double s = SecondsBetween(t0, Clock::now());
  if (!r[0].received || r[0].status != net::Status::kOk) {
    throw std::runtime_error("setup probe: no Ok answer");
  }
  return s;
}

struct WindowStats {
  size_t attempted = 0, ok = 0;
  std::vector<double> read_latency_ms;     // Ok reads in the window
  std::vector<double> observe_latency_ms;  // Ok observe acks
  std::vector<double> late_ms;
  size_t model_ok = 0, oracle_ok = 0;
  std::map<std::string, size_t> failures;  // status name or "lost" -> count
  double p50_ms = 0.0;             // median of the per-slice read p50
  double cpu_us_per_answer = 0.0;  // lower quartile of per-slice CPU/answer
  double steal = 0.0;
};

// Server CPU per answer over the window's slices. Contention from other
// tenants of the host only ever adds CPU time, so the lower quartile tracks
// the code's own cost; the median tracks the host's load as well.
double LowerQuartile(const std::vector<double>& v) {
  return Quantile(v, 0.25);
}

WindowStats Summarise(const std::vector<ScheduledFrame>& frames,
                      const SessionResult& res) {
  WindowStats w;
  const size_t slices = res.cpu_marks.empty() ? 0 : res.cpu_marks.size() - 1;
  std::vector<std::vector<double>> slice_ms(slices);
  std::vector<size_t> slice_answers(slices, 0);
  for (size_t i = res.window_first; i < frames.size(); ++i) {
    const Reply& r = res.replies[i];
    const size_t k = std::min(
        slices - 1, static_cast<size_t>((frames[i].due_s - res.measure_from_s) /
                                        res.slice_s));
    ++w.attempted;
    w.late_ms.push_back(res.late_s[i] * 1e3);
    if (!r.received) {
      ++w.failures["lost"];
      continue;
    }
    ++slice_answers[k];
    if (r.status != net::Status::kOk) {
      ++w.failures[net::StatusName(r.status)];
      continue;
    }
    ++w.ok;
    if (frames[i].observe) {
      w.observe_latency_ms.push_back(r.latency_s * 1e3);
      continue;
    }
    w.read_latency_ms.push_back(r.latency_s * 1e3);
    slice_ms[k].push_back(r.latency_s * 1e3);
    if (r.estimator == net::Estimator::kModel) ++w.model_ok;
    else ++w.oracle_ok;
  }
  std::vector<double> p50s, cpus;
  for (size_t k = 0; k < slices; ++k) {
    if (!slice_ms[k].empty()) p50s.push_back(Median(slice_ms[k]));
    if (slice_answers[k] > 0) {
      cpus.push_back(static_cast<double>(res.cpu_marks[k + 1] -
                                         res.cpu_marks[k]) /
                     1e3 / static_cast<double>(slice_answers[k]));
    }
  }
  w.p50_ms = Median(p50s);
  w.cpu_us_per_answer = LowerQuartile(cpus);
  w.steal = res.steal_frac;
  return w;
}

// Client latency (timed from due times), generator lateness and the host's
// steal over the window: reported with every serving run, never gated.
void AddClient(const WindowStats& w, MetricSet* m) {
  const double p99 = Quantile(w.read_latency_ms, 0.99);
  size_t beyond = 0;
  for (const double v : w.read_latency_ms) beyond += v > p99;
  m->Add("client.p50_ms", w.p50_ms, "ms");
  m->Add("client.p50_samples", static_cast<double>(w.read_latency_ms.size()),
         "count");
  m->Add("client.p99_ms", p99, "ms");
  m->Add("client.p99_samples", static_cast<double>(beyond), "count");
  m->Add("client.gen_late_p50_ms", Quantile(w.late_ms, 0.5), "ms");
  m->Add("client.gen_late_p99_ms", Quantile(w.late_ms, 0.99), "ms");
  m->Add("client.gen_late_max_ms",
         w.late_ms.empty() ? 0.0
                           : *std::max_element(w.late_ms.begin(),
                                               w.late_ms.end()),
         "ms");
  m->Add("env.steal_frac", w.steal, "ratio");
  m->Add("env.nproc", static_cast<double>(std::thread::hardware_concurrency()),
         "count");
}

void PrintNote() {
  std::printf(
      "note: client p50, p99 and saturation capacity are reported, not "
      "gated. On a 4-vCPU host with ~6%% steal, closed-loop saturation of "
      "one connection ranged 29k-74k qps and open-loop p99 at 10k qps "
      "ranged 0.33-11 ms (tracking generator lateness up to 20 ms) between "
      "back-to-back runs of identical code. With 10-25%% steal under this "
      "benchmark's own load, open-loop p50 ranged 0.05-0.31 ms (serve_hot, "
      "4k qps) and 0.6-2.5 ms (serve_fleet) between runs, so the gated "
      "serving metric is server CPU per answered request.\n");
}

struct Result {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  MetricSet metrics;
  std::vector<std::string> failures;

  void Gate(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      failures.push_back(what);
    }
  }
};

// One server session: spawn, gates, open-loop schedule. Fills `w`, the
// server's stats (obs_mode != "off" only) and the gate outcome.
struct ServeOutcome {
  WindowStats w;
  StatsRecords stats;
  double peak_rss_mb = 0.0;
};

ServeOutcome ServeOnce(const Args& args, const std::vector<City>& cities,
                       const std::vector<ScheduledFrame>& frames,
                       const std::string& obs_mode, bool gates,
                       Result* result) {
  ServerProcess server(args.server, ServerArgs(args.workload, args.world),
                       obs_mode);
  net::Client client;
  if (!client.Connect("127.0.0.1", server.port())) {
    throw std::runtime_error("connect to deepod_server failed");
  }
  ServeOutcome out;
  double epoch0 = 0.0;
  if (gates) {
    Rng gate_rng(args.seed * 1000003 + 17);
    const size_t bad =
        RunServedEqualsInProcess(client, cities, args.world, gate_rng);
    result->Gate(bad == 0, std::to_string(bad) +
                               " served ETAs differ from in-process answers");
    epoch0 = FetchStats(client)["serve/epoch"]["value"];
  }
  const SessionResult res =
      RunOpenLoop(client, frames, server.pid(), kWarmupS, kSliceS, kGraceS);
  out.w = Summarise(frames, res);
  out.peak_rss_mb = PeakRssMb(server.pid());
  if (gates || obs_mode != "off") out.stats = FetchStats(client);

  if (gates) {
    // Every frame of the schedule, warm-up included. Every Ok read must
    // carry its city's tier: the model for a warm city, a fallback tier
    // for the cold one. Reads that failed (shed, lost) are not routing
    // errors; they are counted in `failed`.
    size_t observes = 0, observe_ok = 0, mistagged = 0;
    for (size_t i = 0; i < frames.size(); ++i) {
      const Reply& r = res.replies[i];
      const bool ok = r.received && r.status == net::Status::kOk;
      if (frames[i].observe) {
        ++observes;
        observe_ok += ok;
      } else if (ok) {
        const bool cold = frames[i].network_id == kGammaId;
        mistagged += cold == (r.estimator == net::Estimator::kModel);
      }
    }
    result->Gate(mistagged == 0,
                 std::to_string(mistagged) +
                     " Ok answers carry the wrong estimator tier");
    if (args.workload == "serve_live") {
      result->Gate(observes > 0 && observe_ok == observes,
                   "an ObserveTrip frame was not acknowledged");
      result->Gate(out.stats["serve/epoch"]["value"] > epoch0,
                   "the served epoch never advanced");
    }
  }
  return out;
}

Result RunServe(const Args& args, const std::vector<City>& cities) {
  Result result;
  const City& alpha = cities[0];
  const double rate = kRate;
  if (!args.trace) {
    std::vector<double> setups;
    for (int i = 0; i < kSetupReps; ++i) {
      setups.push_back(MeasureSetup(args, alpha));
    }
    Rng rng(args.seed * 7919 + 1);
    std::vector<traj::OdInput> reads;
    const auto frames = BuildSchedule(args.workload, cities, rng, rate,
                                      kWarmupS + args.seconds, &reads);
    const ServeOutcome o = ServeOnce(args, cities, frames, "off", true,
                                     &result);
    result.attempted = o.w.attempted;
    result.failed = o.w.attempted - o.w.ok;
    result.metrics.Add("setup_s", Median(setups), "s");
    result.metrics.Add("cpu_us_per_op", o.w.cpu_us_per_answer, "us");
    result.metrics.Add("peak_rss_mb", o.peak_rss_mb, "MB");
    MetricSet diag;
    diag.Add("offered_qps", rate, "1/s");
    AddClient(o.w, &diag);
    for (const auto& [status, n] : o.w.failures) {
      diag.Add("failed." + status, static_cast<double>(n), "count");
    }
    std::printf("diagnostics: %s\n", diag.Json().c_str());
    PrintNote();
    return result;
  }

  // Traced: an untraced half window, then a half window on a server with
  // DEEPOD_OBS=metrics whose stats frame gives the server-side split.
  const double half = std::max(1.0, args.seconds / 2.0);
  Rng rng_u(args.seed * 7919 + 2), rng_t(args.seed * 7919 + 3);
  std::vector<traj::OdInput> reads_u, reads;
  const auto frames_u = BuildSchedule(args.workload, cities, rng_u, rate,
                                      kWarmupS + half, &reads_u);
  const auto frames_t = BuildSchedule(args.workload, cities, rng_t, rate,
                                      kWarmupS + half, &reads);
  const ServeOutcome u = ServeOnce(args, cities, frames_u, "off", true,
                                   &result);
  ServeOutcome t = ServeOnce(args, cities, frames_t, "metrics", false,
                             &result);
  result.attempted = t.w.attempted;
  result.failed = t.w.attempted - t.w.ok;
  auto& m = result.metrics;
  const auto& fill = t.stats["server/batch_fill"];
  const double fill_mean =
      fill.count("count") && fill.at("count") > 0
          ? fill.at("wall_seconds") / fill.at("count")
          : 1.0;
  m.Add("server.batch_fill_mean", fill_mean, "count");
  const double side_p50 = t.stats["server/latency"]["p50_ms"];
  const double client_p50 = t.w.p50_ms;
  m.Add("server.side_p50_ms", side_p50, "ms");
  m.Add("wire.overhead_p50_ms", client_p50 - side_p50, "ms");
  const double hits = SumStat(t.stats, "cache_hits", "count");
  const double misses = SumStat(t.stats, "cache_misses", "count");
  m.Add("serve.cache_hit_ratio",
        hits + misses > 0 ? hits / (hits + misses) : 0.0, "ratio");
  const double reads_ok = static_cast<double>(t.w.model_ok + t.w.oracle_ok);
  m.Add("fleet.model_frac", t.w.model_ok / std::max(1.0, reads_ok), "ratio");
  m.Add("fleet.oracle_frac", t.w.oracle_ok / std::max(1.0, reads_ok),
        "ratio");

  std::vector<double> ack_ms = t.w.observe_latency_ms;
  if (args.workload != "serve_live") {
    // No writes in this mix: time ObserveTrip acks on a short probe.
    ServerProcess server(args.server, ServerArgs(args.workload, args.world),
                         "metrics");
    net::Client client;
    if (!client.Connect("127.0.0.1", server.port())) {
      throw std::runtime_error("observe probe: connect failed");
    }
    Rng rng(args.seed * 7919 + 4);
    std::vector<ScheduledFrame> probe;
    for (size_t i = 0; i < 200; ++i) {
      probe.push_back(ObserveWire(i, alpha, rng, alpha.dep_lo));
      probe.back().due_s = 0.001 * static_cast<double>(i);
    }
    const SessionResult res =
        RunOpenLoop(client, probe, server.pid(), 0.0, 10.0, kGraceS);
    ack_ms = Summarise(probe, res).observe_latency_ms;
  }
  m.Add("live.observe_ack_p50_ms", Median(ack_ms), "ms");
  AddClient(t.w, &m);
  m.Add("trace.overhead_frac",
        t.w.cpu_us_per_answer / u.w.cpu_us_per_answer - 1.0, "ratio");

  ProbeInputs probe;
  probe.artifact_path = alpha.dir + "/model/model.artifact";
  probe.network_path = alpha.dir + "/model/network.csv";
  probe.data_dir = alpha.dir + "/data";
  probe.fleet_path = args.workload == "serve_fleet"
                         ? args.world + "/fleet.csv"
                         : args.world + "/alpha_oracle.csv";
  probe.oracle_fleet_path = args.world + "/alpha_oracle.csv";
  probe.stream = reads;
  probe.fill = static_cast<size_t>(std::lround(std::max(1.0, fill_mean)));
  RunLayerProbes(probe, &m);
  m.Add("server.model_cpu_share",
        m.Get("core.predict_us_fill") / u.w.cpu_us_per_answer, "ratio");
  std::printf("diagnostics: {\"untraced_cpu_us_per_req\": %s, "
              "\"traced_cpu_us_per_req\": %s, \"p50_samples\": %zu}\n",
              FormatNumber(u.w.cpu_us_per_answer).c_str(),
              FormatNumber(t.w.cpu_us_per_answer).c_str(),
              t.w.read_latency_ms.size());
  PrintNote();
  return result;
}

void WriteOracleManifest(const std::string& world) {
  std::ofstream out(world + "/alpha_oracle.csv");
  out << "network_id,name,network,artifact,oracle,policy\n"
      << kAlphaId << ",alpha,alpha/model/network.csv,"
      << "alpha/model/model.artifact,alpha/model/oracle.artifact,oracle\n";
  if (!out) throw std::runtime_error("cannot write alpha_oracle.csv");
}

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload") a->workload = v;
    else if (flag == "--seed") a->seed = std::stoull(v);
    else if (flag == "--seconds") a->seconds = std::stod(v);
    else if (flag == "--trace") a->trace = v == "1";
    else if (flag == "--world") a->world = v;
    else if (flag == "--server") a->server = v;
    else return false;
  }
  return !a->workload.empty() && !a->world.empty() && !a->server.empty() &&
         a->seconds > 0.0;
}

int Main(int argc, char** argv) {
  Args args;
  if (argc % 2 == 0 || !ParseArgs(argc, argv, &args) ||
      (args.workload != "serve_hot" && args.workload != "serve_fleet" &&
       args.workload != "serve_live")) {
    std::fprintf(stderr,
                 "usage: %s --workload serve_hot|serve_fleet|serve_live "
                 "--seed N --seconds S --trace 0|1 --world DIR --server PATH\n",
                 argv[0]);
    return 2;
  }
  std::vector<City> cities;
  cities.push_back(LoadCity(args.world, "alpha", kAlphaId, nullptr));
  if (args.workload == "serve_fleet") {
    cities.push_back(LoadCity(args.world, "beta", kBetaId, nullptr));
    cities.push_back(LoadCity(args.world, "gamma", kGammaId, &cities[0]));
  }
  WriteOracleManifest(args.world);

  const Result result = RunServe(args, cities);
  for (const auto& f : result.failures) {
    std::printf("correctness gate failed: %s\n", f.c_str());
  }
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              result.correct ? "true" : "false", result.attempted,
              result.failed, result.metrics.Json().c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace
}  // namespace deepod::perfbench

int main(int argc, char** argv) {
  try {
    return deepod::perfbench::Main(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
