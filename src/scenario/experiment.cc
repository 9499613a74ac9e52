#include "scenario/experiment.h"

#include <memory>

#include "core/tcp_muzha.h"
#include "net/node.h"
#include "relwork/adtcp.h"
#include "relwork/ecn.h"
#include "relwork/tcp_door.h"
#include "relwork/tcp_jersey.h"
#include "relwork/tcp_rovegas.h"
#include "relwork/tcp_westwood.h"
#include "scenario/sharded_experiment.h"
#include "scenario/world.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "tcp/tcp_agent.h"
#include "tcp/tcp_variants.h"
#include "tcp/tcp_vegas.h"

namespace muzha {

const char* variant_name(TcpVariant v) {
  switch (v) {
    case TcpVariant::kTahoe:
      return "Tahoe";
    case TcpVariant::kReno:
      return "Reno";
    case TcpVariant::kNewReno:
      return "NewReno";
    case TcpVariant::kSack:
      return "SACK";
    case TcpVariant::kVegas:
      return "Vegas";
    case TcpVariant::kMuzha:
      return "Muzha";
    case TcpVariant::kDoor:
      return "DOOR";
    case TcpVariant::kAdtcp:
      return "ADTCP";
    case TcpVariant::kJersey:
      return "Jersey";
    case TcpVariant::kRoVegas:
      return "RoVegas";
    case TcpVariant::kNewRenoEcn:
      return "NewReno+ECN";
    case TcpVariant::kWestwood:
      return "Westwood";
  }
  return "?";
}

std::unique_ptr<TcpAgent> make_tcp_agent(TcpVariant v, Simulator& sim,
                                         Node& node, TcpConfig cfg) {
  switch (v) {
    case TcpVariant::kTahoe:
      return std::make_unique<TcpTahoe>(sim, node, cfg);
    case TcpVariant::kReno:
      return std::make_unique<TcpReno>(sim, node, cfg);
    case TcpVariant::kNewReno:
      return std::make_unique<TcpNewReno>(sim, node, cfg);
    case TcpVariant::kSack:
      return std::make_unique<TcpSack>(sim, node, cfg);
    case TcpVariant::kVegas:
      return std::make_unique<TcpVegas>(sim, node, cfg);
    case TcpVariant::kMuzha:
      return std::make_unique<TcpMuzha>(sim, node, cfg);
    case TcpVariant::kDoor:
      return std::make_unique<TcpDoor>(sim, node, cfg);
    case TcpVariant::kAdtcp:
      return std::make_unique<AdtcpSender>(sim, node, cfg);
    case TcpVariant::kJersey:
      return std::make_unique<TcpJersey>(sim, node, cfg);
    case TcpVariant::kRoVegas:
      return std::make_unique<TcpRoVegas>(sim, node, cfg);
    case TcpVariant::kNewRenoEcn:
      return std::make_unique<TcpNewRenoEcn>(sim, node, cfg);
    case TcpVariant::kWestwood:
      return std::make_unique<TcpWestwood>(sim, node, cfg);
  }
  return nullptr;
}

BitsPerSecond ExperimentResult::total_throughput() const {
  BitsPerSecond t = BitsPerSecond(0.0);
  for (const FlowResult& f : flows) t += f.throughput;
  return t;
}

std::vector<double> ExperimentResult::flow_throughputs() const {
  std::vector<double> out;
  out.reserve(flows.size());
  for (const FlowResult& f : flows) out.push_back(f.throughput.value());
  return out;
}

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  if (cfg.shards != 1) return run_sharded_experiment(cfg);
  std::unique_ptr<World> world = build_world(cfg, cfg.seed, NodePartition{}, 0);
  world->net.run_until(cfg.duration);
  return collect_result(cfg, {world.get()});
}

}  // namespace muzha
