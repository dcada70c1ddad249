#include "serve/fleet_router.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "io/trip_io.h"
#include "nn/serialize.h"
#include "serve/serving_state.h"

namespace deepod::serve {
namespace {

std::vector<std::string> ArtifactPaths(const std::vector<FleetEntry>& entries) {
  std::vector<std::string> paths;
  for (const FleetEntry& entry : entries) paths.push_back(entry.artifact_path);
  return paths;
}

// "<base><city>/<stat>", or "<base><stat>" for the unnamed shard of a fleet
// of one, which keeps the single-city names.
std::string StatsName(const std::string& base, const std::string& city,
                      const std::string& stat) {
  return city.empty() ? base + stat : base + city + "/" + stat;
}

std::string DirName(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

// Manifest paths resolve against the manifest's own directory, so a fleet
// tree stays relocatable (CI builds it under a temp dir).
std::string ResolvePath(const std::string& base_dir, const std::string& path) {
  if (path.empty() || path.front() == '/' || base_dir.empty()) return path;
  return base_dir + path;
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> fields;
  std::string field;
  std::istringstream in(line);
  while (std::getline(in, field, ',')) fields.push_back(field);
  // A trailing comma means a final empty field.
  if (!line.empty() && line.back() == ',') fields.emplace_back();
  return fields;
}

// A network_id is a plain decimal that fits uint32_t: no sign, space or
// suffix, so no typo wraps into another id (0 would switch the artifact's
// city-stamp check off).
bool ParseNetworkId(const std::string& text, uint32_t* id) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *id);
  return ec == std::errc{} && ptr == end;
}

// City names become registry names ("fleet/<name>/...") that the stats
// JSON writes unescaped, so they keep to [A-Za-z0-9._-].
bool ValidCityName(const std::string& name) {
  if (name.empty()) return false;
  for (const char c : name) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

const char* FallbackPolicyName(FallbackPolicy p) {
  switch (p) {
    case FallbackPolicy::kModel: return "model";
    case FallbackPolicy::kOracle: return "oracle";
    case FallbackPolicy::kReject: return "reject";
  }
  return "unknown";
}

FallbackPolicy ParseFallbackPolicy(const std::string& name) {
  if (name == "model") return FallbackPolicy::kModel;
  if (name == "oracle" || name.empty()) return FallbackPolicy::kOracle;
  if (name == "reject") return FallbackPolicy::kReject;
  throw std::invalid_argument("unknown fallback policy '" + name +
                              "' (want model | oracle | reject)");
}

std::vector<FleetEntry> ReadFleetManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("fleet manifest: cannot open " + path);
  const std::string base_dir = DirName(path);
  std::string line;
  if (!std::getline(in, line) ||
      line != "network_id,name,network,artifact,oracle,policy") {
    throw std::runtime_error(
        "fleet manifest: expected header "
        "'network_id,name,network,artifact,oracle,policy' in " +
        path);
  }
  std::vector<FleetEntry> entries;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const std::vector<std::string> f = SplitCsvLine(line);
    if (f.size() < 4 || f.size() > 6) {
      throw std::runtime_error("fleet manifest: line " +
                               std::to_string(line_no) + " has " +
                               std::to_string(f.size()) +
                               " fields (want 4-6)");
    }
    FleetEntry entry;
    if (!ParseNetworkId(f[0], &entry.network_id)) {
      throw std::runtime_error("fleet manifest: line " +
                               std::to_string(line_no) +
                               ": bad network_id '" + f[0] + "'");
    }
    entry.name = f[1];
    if (!ValidCityName(entry.name)) {
      throw std::runtime_error("fleet manifest: line " +
                               std::to_string(line_no) + ": bad name '" +
                               entry.name + "' (want [A-Za-z0-9._-]+)");
    }
    entry.network_path = ResolvePath(base_dir, f[2]);
    entry.artifact_path = ResolvePath(base_dir, f[3]);
    if (f.size() >= 5) entry.oracle_path = ResolvePath(base_dir, f[4]);
    entry.policy = ParseFallbackPolicy(f.size() >= 6 ? f[5] : std::string());
    for (const FleetEntry& seen : entries) {
      if (seen.network_id == entry.network_id) {
        throw std::runtime_error("fleet manifest: duplicate network_id " +
                                 std::to_string(entry.network_id));
      }
      if (seen.name == entry.name) {
        throw std::runtime_error("fleet manifest: duplicate name '" +
                                 entry.name + "'");
      }
    }
    entries.push_back(std::move(entry));
  }
  if (entries.empty()) {
    throw std::runtime_error("fleet manifest: no entries in " + path);
  }
  return entries;
}

// --- FleetShard -------------------------------------------------------------

FleetShard::FleetShard(FleetEntry entry,
                       std::shared_ptr<const road::RoadNetwork> network,
                       obs::Registry& fleet_registry)
    : entry_(std::move(entry)),
      network_(std::move(network)),
      requests_(
          fleet_registry.counter(StatsName("fleet/", entry_.name, "requests"))),
      model_answers_(fleet_registry.counter(
          StatsName("fleet/", entry_.name, "model_answers"))),
      oracle_answers_(fleet_registry.counter(
          StatsName("fleet/", entry_.name, "oracle_answers"))),
      shed_to_oracle_(fleet_registry.counter(
          StatsName("fleet/", entry_.name, "shed_to_oracle"))),
      ood_to_oracle_(fleet_registry.counter(
          StatsName("fleet/", entry_.name, "ood_to_oracle"))),
      rejected_(
          fleet_registry.counter(StatsName("fleet/", entry_.name, "rejected"))),
      activation_failures_(fleet_registry.counter(
          StatsName("fleet/", entry_.name, "activation_failures"))),
      reload_failures_(fleet_registry.counter(
          StatsName("fleet/", entry_.name, "reload_failures"))),
      cold_(fleet_registry.gauge(StatsName("fleet/", entry_.name, "cold"))) {
  cold_.Set(1.0);
}

std::shared_ptr<EtaService> FleetShard::service() const {
  std::lock_guard<std::mutex> lock(mu_);
  return service_;
}

std::optional<FleetShard::Fallback> FleetShard::FallbackEstimate(
    const traj::OdInput& od) const {
  std::shared_ptr<const baselines::OdOracle> oracle;
  std::shared_ptr<const baselines::LinkMeanEstimator> links;
  {
    std::lock_guard<std::mutex> lock(mu_);
    oracle = oracle_;
    links = link_mean_;
  }
  if (oracle != nullptr) {
    return Fallback{oracle->Predict(*network_, od), net::Estimator::kOracle};
  }
  if (links != nullptr) {
    return Fallback{links->Predict(*network_, od), net::Estimator::kLinkMean};
  }
  return std::nullopt;
}

bool FleetShard::InDistribution(const traj::OdInput& od) const {
  std::shared_ptr<const baselines::OdOracle> oracle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    oracle = oracle_;
  }
  // Without an oracle there is nothing to judge against: in-distribution.
  return oracle == nullptr || oracle->InDistribution(*network_, od);
}

void FleetShard::AdoptEstimators(
    std::unique_ptr<baselines::OdOracle> oracle,
    std::unique_ptr<baselines::LinkMeanEstimator> links) {
  std::lock_guard<std::mutex> lock(mu_);
  if (oracle_ == nullptr && oracle != nullptr) oracle_ = std::move(oracle);
  if (link_mean_ == nullptr && links != nullptr) {
    link_mean_ = std::move(links);
  }
}

void FleetShard::Publish(std::shared_ptr<EtaService> service) {
  std::lock_guard<std::mutex> lock(mu_);
  service_ = std::move(service);
  warm_.store(true);
  cold_.Set(0.0);
}

// --- FleetRouter ------------------------------------------------------------

FleetRouter::FleetRouter(std::vector<FleetEntry> entries,
                         const FleetRouterOptions& options)
    : options_(options),
      watcher_(ArtifactPaths(entries), options.poll_interval,
               [this](size_t index) { return Load(index); },
               &registry_.counter("fleet/polls")) {
  if (entries.empty()) {
    throw std::invalid_argument("FleetRouter: empty fleet");
  }
  shards_.reserve(entries.size());
  for (FleetEntry& entry : entries) {
    auto network = std::make_shared<const road::RoadNetwork>(
        io::ReadNetworkCsv(entry.network_path));
    shards_.push_back(std::make_unique<FleetShard>(
        std::move(entry), std::move(network), registry_));
  }

  for (size_t i = 0; i < shards_.size(); ++i) {
    FleetShard* shard = shards_[i].get();
    // The standalone oracle artifact, when the manifest names one: this is
    // what lets a cold shard answer before any model was ever trained.
    if (!shard->entry_.oracle_path.empty()) {
      try {
        io::OracleBundle bundle =
            io::LoadOracleArtifact(shard->entry_.oracle_path);
        if (bundle.network_id != 0 &&
            bundle.network_id != shard->network_id()) {
          throw std::runtime_error(
              "oracle artifact network_id " +
              std::to_string(bundle.network_id) + " != shard " +
              std::to_string(shard->network_id()));
        }
        shard->AdoptEstimators(std::move(bundle.oracle),
                               std::move(bundle.link_mean));
      } catch (const std::exception&) {
        shard->activation_failures_.Add();
      }
    }
    // Eager model load; failure (missing file, corrupt artifact) leaves
    // the shard cold and the fleet serving.
    watcher_.LoadNow(i);
  }
  // An all-warm fleet without hot swap has nothing to poll for.
  if (options_.watch || WarmCount() < shards_.size()) watcher_.Start();
}

FleetRouter::FleetRouter(std::shared_ptr<ServingState> state,
                         std::shared_ptr<const road::RoadNetwork> network,
                         const FleetRouterOptions& options)
    : options_(options),
      any_network_id_(true),
      watcher_({state != nullptr ? state->source : std::string()},
               options.poll_interval,
               [this](size_t index) { return Load(index); },
               &registry_.counter("fleet/polls")) {
  if (state == nullptr || state->model == nullptr || network == nullptr) {
    throw std::invalid_argument("FleetRouter: null serving state or network");
  }
  FleetEntry entry;
  entry.network_id = state->bundle != nullptr ? state->bundle->network_id : 0;
  entry.artifact_path = state->source;
  entry.policy = FallbackPolicy::kModel;
  shards_.push_back(std::make_unique<FleetShard>(
      std::move(entry), std::move(network), registry_));
  Publish(*shards_.front(), std::move(state));
  if (options_.watch && !shards_.front()->artifact_path().empty()) {
    watcher_.MarkAttempted(0);  // already served: no reload at startup
    watcher_.Start();
  }
}

FleetRouter::~FleetRouter() { Stop(); }

void FleetRouter::Stop() { watcher_.Stop(); }

size_t FleetRouter::WarmCount() const {
  size_t warm = 0;
  for (const auto& shard : shards_) warm += shard->warm() ? 1 : 0;
  return warm;
}

size_t FleetRouter::ActivateNow() {
  size_t adopted = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    adopted += watcher_.LoadNow(i) == ArtifactWatcher::Result::kLoaded;
  }
  return adopted;
}

bool FleetRouter::Load(size_t index) {
  FleetShard& shard = *shards_[index];
  const std::shared_ptr<EtaService> service = shard.service();
  if (service != nullptr && !options_.watch) return false;
  std::shared_ptr<ServingState> state;
  try {
    state = LoadServingState(shard.artifact_path(), shard.network(),
                             shard.network_id());
    if (options_.prepare) options_.prepare(*state);
  } catch (const std::exception&) {
    // Cold, the oracle keeps answering; warm, the current epoch does.
    (service == nullptr ? shard.activation_failures_ : shard.reload_failures_)
        .Add();
    return false;
  }
  if (service != nullptr) {
    service->SwapState(std::move(state));
  } else {
    Publish(shard, std::move(state));
    // Activation is one-way: once every shard is warm, only hot swap
    // would need another poll.
    if (!options_.watch && WarmCount() == shards_.size()) {
      watcher_.StopPolling();
    }
  }
  if (options_.on_adopt) options_.on_adopt(shard, service != nullptr);
  return true;
}

void FleetRouter::Publish(FleetShard& shard,
                          std::shared_ptr<ServingState> state) {
  // The artifact's embedded fallback estimators back-fill a shard that had
  // no standalone oracle artifact.
  if (state->bundle != nullptr) {
    shard.AdoptEstimators(std::move(state->bundle->oracle),
                          std::move(state->bundle->link_mean));
  }
  EtaServiceOptions service_options = options_.service;
  service_options.registry_prefix = StatsName("serve/", shard.name(), "");
  shard.Publish(
      std::make_shared<EtaService>(std::move(state), service_options));
}

void FleetRouter::AppendStatsSources(StatsSources* sources) const {
  sources->extra.push_back(&registry_);
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu_);
    if (shard->service_ != nullptr) {
      sources->extra.push_back(&shard->service_->registry());
    }
  }
}

}  // namespace deepod::serve
