// deepod_loadgen: open-loop Poisson load generator for deepod_server.
//
//   deepod_loadgen --port P [--host H] --network network.csv
//                  [--network-ids 1,2,3] [--qps Q] [--duration S]
//                  [--connections N] [--seed S]
//                  [--deadline-ms D] [--high-fraction F] [--low-fraction F]
//                  [--tenants N] [--slo-ms X] [--hot-fraction F]
//                  [--json PATH] [--server-stats]
//                  [--assert-max-shed-rate X] [--assert-min-shed-rate X]
//                  [--assert-max-p99-ms X] [--assert-min-goodput X]
//                  [--assert-min-oracle-frac X] [--assert-min-model-frac X]
//   deepod_loadgen --port P --golden golden.csv [--tolerance X] [--host H]
//                  [--network-ids N]
//
// Against a fleet server, --network-ids round-robins each request's wire
// network_id over the list (one id targets a single city; several mix
// cities — pass the smallest city's network.csv so every OD pair is valid
// everywhere). The report splits Ok responses by the estimator tag the
// server answered with (model / oracle / linkmean), and the
// --assert-min-*-frac gates turn the split into CI checks — e.g. a city
// whose model never trained must answer 100% from the oracle, with zero
// errors.
//
// Senders never wait for responses (open loop), so the offered rate stays
// at --qps even when the server sheds or slows — the overload scenario
// stays an overload. Reports client-observed p50/p95/p99, shed and error
// rates and goodput-under-SLO, plus the server's own obs registry fetched
// over the wire with --server-stats. --json writes the report as
// BENCH-json records (validate with tools/validate_bench_json.py). The
// --assert-* flags turn the run into a CI gate: exit 1 when the measured
// value crosses the bound. Each bound must be a finite number >= 0 (a
// count for --assert-max-errors); any other value exits 2, so a typo never
// switches a gate off.
//
// --golden switches to replay mode: every query of a deepod_train --golden
// file is sent over the wire twice — the first pass fills the shard's
// external-code table, the second reads it back — and both answers are
// compared against the recorded prediction. Without --tolerance the
// comparison is bit-for-bit: the gate for an fp64 artifact served on the
// tier the goldens were recorded with, and the post-hot-swap gate
// (replaying v2's golden file against a server that swapped v1 -> v2 in
// place must match a fresh v2 process exactly). --tolerance X accepts
// |got - expected| <= X * max(1, |expected|) instead, which a quantised
// artifact (deepod_train --quant int8/fp16) needs: its contract is a value
// tolerance, not bit identity.

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_flags.h"
#include "golden_file.h"
#include "io/trip_io.h"
#include "obs/metrics.h"
#include "serve/server/loadgen.h"

namespace {

// Replays a golden file over one connection, in two passes; returns the
// process exit code.
int RunGoldenReplay(const std::string& host, uint16_t port,
                    const std::string& golden_path, double tolerance,
                    uint32_t network_id) {
  using namespace deepod;
  std::vector<tools::GoldenQuery> golden;
  if (!tools::ReadGoldenFile(golden_path, &golden)) {
    std::fprintf(stderr, "cannot parse %s\n", golden_path.c_str());
    return 1;
  }
  serve::net::Client client;
  if (!client.Connect(host, port)) {
    std::fprintf(stderr, "cannot connect to %s:%u\n", host.c_str(),
                 static_cast<unsigned>(port));
    return 1;
  }
  const auto matches = [tolerance](double got, double expected) {
    if (tolerance == 0.0) {
      return std::memcmp(&got, &expected, sizeof(double)) == 0;
    }
    return std::abs(got - expected) <=
           tolerance * std::max(1.0, std::abs(expected));
  };
  size_t mismatches = 0, errors = 0;
  uint64_t request_id = 0;
  for (int pass = 1; pass <= 2; ++pass) {
    for (size_t i = 0; i < golden.size(); ++i) {
      serve::net::RequestFrame request;
      request.request_id = ++request_id;
      request.network_id = network_id;
      request.priority = 0;  // interactive: never shed by deadline estimation
      request.od = golden[i].od;
      serve::net::ResponseFrame response;
      if (!client.Send(request) || !client.ReadResponse(&response)) {
        std::fprintf(stderr, "connection lost at query %zu (pass %d)\n", i,
                     pass);
        return 1;
      }
      if (response.status != serve::net::Status::kOk) {
        if (++errors <= 5) {
          std::fprintf(stderr, "query %zu (pass %d): status %s\n", i, pass,
                       serve::net::StatusName(response.status));
        }
      } else if (!matches(response.eta_seconds, golden[i].prediction)) {
        if (++mismatches <= 5) {
          std::fprintf(stderr,
                       "mismatch (pass %d): od %zu->%zu expected %a got %a\n",
                       pass, golden[i].od.origin_segment,
                       golden[i].od.dest_segment, golden[i].prediction,
                       response.eta_seconds);
        }
      }
    }
  }
  client.Close();
  const bool pass = mismatches == 0 && errors == 0 && !golden.empty();
  std::printf(
      "golden replay: %zu queries x 2 passes, %zu mismatches, %zu errors "
      "(tolerance %g) -> %s\n",
      golden.size(), mismatches, errors, tolerance, pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace deepod;
  serve::net::LoadgenOptions options;
  options.fetch_server_stats = false;
  std::string network_path, json_path, golden_path;
  double tolerance = 0.0;  // 0 = bit-for-bit (golden mode)
  // Gates stay off (-1, or no value) until their flag sets a bound; the
  // flags only take bounds >= 0, so a given bound always gates.
  double assert_max_shed_rate = -1.0;
  double assert_min_shed_rate = -1.0;
  double assert_max_p99_ms = -1.0;
  double assert_min_goodput = -1.0;
  std::optional<uint64_t> assert_max_errors;
  double assert_min_oracle_frac = -1.0;
  double assert_min_model_frac = -1.0;
  bool print_server_stats = false;
  const auto usage = [&argv] {
    std::fprintf(
        stderr,
        "usage: %s --port P --network PATH [--network-ids 1,2,3] [--host H]\n"
        "  [--qps Q] [--duration S] [--connections N] [--seed S]\n"
        "  [--deadline-ms D]\n"
        "  [--high-fraction F] [--low-fraction F] [--tenants N]\n"
        "  [--slo-ms X] [--hot-fraction F] [--json PATH] [--server-stats]\n"
        "  [--assert-max-shed-rate X] [--assert-min-shed-rate X]\n"
        "  [--assert-max-p99-ms X] [--assert-min-goodput X]\n"
        "  [--assert-max-errors N]\n"
        "  [--assert-min-oracle-frac X] [--assert-min-model-frac X]\n"
        "or: %s --port P --golden golden.csv [%s] [--host H]\n"
        "  [--network-ids N]\n",
        argv[0], argv[0], tools::cli::FlagCursor::ToleranceHelp());
    return 2;
  };
  tools::cli::FlagCursor flags(argc, argv);
  while (flags.Next()) {
    const std::string& flag = flags.flag();
    if (flag == "--host") {
      if (!flags.StringValue(&options.host)) return 2;
    } else if (flag == "--port") {
      if (!flags.PortValue(&options.port)) return 2;
    } else if (flag == "--network") {
      if (!flags.StringValue(&network_path)) return 2;
    } else if (flag == "--network-ids") {
      if (!flags.NetworkIdsValue(&options.network_ids)) return 2;
    } else if (flag == "--qps") {
      if (!flags.PositiveValue(&options.qps)) return 2;
    } else if (flag == "--duration") {
      if (!flags.PositiveValue(&options.duration_seconds)) return 2;
    } else if (flag == "--connections") {
      if (!flags.SizeValue(&options.connections)) return 2;
    } else if (flag == "--seed") {
      if (!flags.U64Value(&options.seed)) return 2;
    } else if (flag == "--deadline-ms") {
      int deadline = 0;
      if (!flags.IntValue(&deadline)) return 2;
      options.deadline_ms = deadline;
    } else if (flag == "--high-fraction") {
      if (!flags.NonNegativeValue(&options.high_fraction)) return 2;
    } else if (flag == "--low-fraction") {
      if (!flags.NonNegativeValue(&options.low_fraction)) return 2;
    } else if (flag == "--tenants") {
      if (!flags.SizeValue(&options.num_tenants)) return 2;
    } else if (flag == "--slo-ms") {
      if (!flags.PositiveValue(&options.slo_ms)) return 2;
    } else if (flag == "--hot-fraction") {
      if (!flags.NonNegativeValue(&options.hot_fraction)) return 2;
    } else if (flag == "--json") {
      if (!flags.StringValue(&json_path)) return 2;
    } else if (flag == "--golden") {
      if (!flags.StringValue(&golden_path)) return 2;
    } else if (flag == "--tolerance") {
      if (!flags.ToleranceValue(&tolerance)) return 2;
    } else if (flag == "--server-stats") {
      options.fetch_server_stats = true;
      print_server_stats = true;
    } else if (flag == "--assert-max-shed-rate") {
      if (!flags.NonNegativeValue(&assert_max_shed_rate)) return 2;
    } else if (flag == "--assert-min-shed-rate") {
      if (!flags.NonNegativeValue(&assert_min_shed_rate)) return 2;
    } else if (flag == "--assert-max-p99-ms") {
      if (!flags.NonNegativeValue(&assert_max_p99_ms)) return 2;
    } else if (flag == "--assert-min-goodput") {
      if (!flags.NonNegativeValue(&assert_min_goodput)) return 2;
    } else if (flag == "--assert-max-errors") {
      uint64_t max_errors = 0;
      if (!flags.U64Value(&max_errors)) return 2;
      assert_max_errors = max_errors;
    } else if (flag == "--assert-min-oracle-frac") {
      if (!flags.NonNegativeValue(&assert_min_oracle_frac)) return 2;
    } else if (flag == "--assert-min-model-frac") {
      if (!flags.NonNegativeValue(&assert_min_model_frac)) return 2;
    } else {
      return usage();
    }
  }
  if (!golden_path.empty()) {
    // Replay mode: the queries come from the golden file, so no network csv
    // (segment universe) is needed.
    if (options.port == 0) {
      std::fprintf(stderr, "--port is required\n");
      return 2;
    }
    return RunGoldenReplay(
        options.host, options.port, golden_path, tolerance,
        options.network_ids.empty() ? 0 : options.network_ids.front());
  }
  if (options.port == 0 || network_path.empty()) {
    std::fprintf(stderr, "--port and --network are required\n");
    return 2;
  }
  // The workload needs the segment-id universe; read it off the same
  // network csv the server loaded so every OD pair validates.
  const road::RoadNetwork network = io::ReadNetworkCsv(network_path);
  options.num_segments = network.num_segments();
  if (options.num_segments == 0) {
    std::fprintf(stderr, "network %s has no segments\n", network_path.c_str());
    return 1;
  }

  serve::net::LoadgenReport report;
  try {
    report = serve::net::RunLoadgen(options);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "loadgen failed: %s\n", e.what());
    return 1;
  }

  std::printf(
      "loadgen: offered %.1f qps for %.2fs -> sent %llu ok %llu shed %llu "
      "expired %llu errors %llu lost %llu\n",
      report.offered_qps, report.elapsed_seconds,
      static_cast<unsigned long long>(report.sent),
      static_cast<unsigned long long>(report.ok),
      static_cast<unsigned long long>(report.shed),
      static_cast<unsigned long long>(report.deadline_expired),
      static_cast<unsigned long long>(report.errors),
      static_cast<unsigned long long>(report.lost));
  std::printf(
      "latency ms: p50 %.3f p95 %.3f p99 %.3f max %.3f | achieved %.1f qps "
      "goodput(slo %.0fms) %.1f qps shed_rate %.4f\n",
      report.p50_ms, report.p95_ms, report.p99_ms, report.max_ms,
      report.achieved_qps, options.slo_ms, report.goodput_qps,
      report.shed_rate);
  if (report.oracle_ok > 0 || report.linkmean_ok > 0 ||
      !options.network_ids.empty()) {
    std::printf("estimators: model %llu oracle %llu linkmean %llu\n",
                static_cast<unsigned long long>(report.model_ok),
                static_cast<unsigned long long>(report.oracle_ok),
                static_cast<unsigned long long>(report.linkmean_ok));
  }
  static const char* const kPriorityNames[] = {"interactive", "normal",
                                               "best-effort"};
  for (size_t p = 0; p < serve::net::kNumPriorities; ++p) {
    const auto& s = report.by_priority[p];
    if (s.sent == 0) continue;
    std::printf("  priority %zu (%s): sent %llu ok %llu shed %llu "
                "p50 %.3fms p99 %.3fms\n",
                p, kPriorityNames[p],
                static_cast<unsigned long long>(s.sent),
                static_cast<unsigned long long>(s.ok),
                static_cast<unsigned long long>(s.shed), s.p50_ms, s.p99_ms);
  }
  if (print_server_stats && !report.server_stats_json.empty()) {
    std::printf("server stats: %s\n", report.server_stats_json.c_str());
  }

  if (!json_path.empty()) {
    std::vector<obs::Record> records;
    obs::Record throughput;
    throughput.name = "loadgen/throughput";
    throughput.wall_seconds = report.elapsed_seconds;
    throughput.threads = options.connections;
    if (report.achieved_qps > 0.0) {
      throughput.samples_per_sec = report.achieved_qps;
    }
    throughput.count = report.ok;
    records.push_back(throughput);
    obs::Record latency;
    latency.name = "loadgen/latency";
    latency.wall_seconds = report.elapsed_seconds;
    latency.threads = options.connections;
    latency.count = report.ok;
    latency.p50_ms = report.p50_ms;
    latency.p95_ms = report.p95_ms;
    latency.p99_ms = report.p99_ms;
    records.push_back(latency);
    obs::Record goodput;
    goodput.name = "loadgen/goodput";
    goodput.wall_seconds = report.elapsed_seconds;
    goodput.threads = options.connections;
    goodput.value = report.goodput_qps;
    records.push_back(goodput);
    obs::Record shed;
    shed.name = "loadgen/shed_rate";
    shed.wall_seconds = report.elapsed_seconds;
    shed.threads = options.connections;
    shed.value = report.shed_rate;
    shed.count = report.shed;
    records.push_back(shed);
    obs::WriteRecordsJson(json_path, records);
  }

  int exit_code = 0;
  if (report.sent == 0) {
    std::fprintf(stderr, "ASSERT FAIL: no requests sent\n");
    exit_code = 1;
  }
  if (assert_max_shed_rate >= 0.0 && report.shed_rate > assert_max_shed_rate) {
    std::fprintf(stderr, "ASSERT FAIL: shed_rate %.4f > %.4f\n",
                 report.shed_rate, assert_max_shed_rate);
    exit_code = 1;
  }
  if (assert_min_shed_rate >= 0.0 && report.shed_rate < assert_min_shed_rate) {
    std::fprintf(stderr, "ASSERT FAIL: shed_rate %.4f < %.4f\n",
                 report.shed_rate, assert_min_shed_rate);
    exit_code = 1;
  }
  if (assert_max_p99_ms >= 0.0 && report.p99_ms > assert_max_p99_ms) {
    std::fprintf(stderr, "ASSERT FAIL: p99 %.3fms > %.3fms\n", report.p99_ms,
                 assert_max_p99_ms);
    exit_code = 1;
  }
  if (assert_min_goodput >= 0.0 && report.goodput_qps < assert_min_goodput) {
    std::fprintf(stderr, "ASSERT FAIL: goodput %.1f qps < %.1f qps\n",
                 report.goodput_qps, assert_min_goodput);
    exit_code = 1;
  }
  if (assert_max_errors.has_value() && report.errors > *assert_max_errors) {
    std::fprintf(stderr, "ASSERT FAIL: %llu errors > %llu\n",
                 static_cast<unsigned long long>(report.errors),
                 static_cast<unsigned long long>(*assert_max_errors));
    exit_code = 1;
  }
  const double ok_total = static_cast<double>(report.ok);
  const double oracle_frac =
      report.ok == 0
          ? 0.0
          : static_cast<double>(report.oracle_ok + report.linkmean_ok) /
                ok_total;
  const double model_frac =
      report.ok == 0 ? 0.0 : static_cast<double>(report.model_ok) / ok_total;
  if (assert_min_oracle_frac >= 0.0 && oracle_frac < assert_min_oracle_frac) {
    std::fprintf(stderr, "ASSERT FAIL: oracle fraction %.4f < %.4f\n",
                 oracle_frac, assert_min_oracle_frac);
    exit_code = 1;
  }
  if (assert_min_model_frac >= 0.0 && model_frac < assert_min_model_frac) {
    std::fprintf(stderr, "ASSERT FAIL: model fraction %.4f < %.4f\n",
                 model_frac, assert_min_model_frac);
    exit_code = 1;
  }
  if (report.lost > 0) {
    std::fprintf(stderr, "ASSERT FAIL: %llu requests lost (no response)\n",
                 static_cast<unsigned long long>(report.lost));
    exit_code = 1;
  }
  return exit_code;
}
