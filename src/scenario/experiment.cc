#include "scenario/experiment.h"

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "app/cbr.h"
#include "core/tcp_muzha.h"
#include "net/node.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "relwork/adtcp.h"
#include "relwork/ecn.h"
#include "relwork/tcp_door.h"
#include "relwork/tcp_jersey.h"
#include "relwork/tcp_rovegas.h"
#include "relwork/tcp_westwood.h"
#include "scenario/city.h"
#include "scenario/mobility.h"
#include "scenario/network.h"
#include "sim/assert.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "stats/time_series.h"
#include "tcp/tcp_agent.h"
#include "tcp/tcp_sink.h"
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

namespace {

// Nodes the topology places: hops + 1 on a chain, two arms sharing a centre
// on a cross, field.nodes on a field.
std::size_t node_count(const ExperimentConfig& cfg) {
  switch (cfg.topology) {
    case TopologyKind::kChain:
      return static_cast<std::size_t>(cfg.hops) + 1;
    case TopologyKind::kCross:
      return 2 * static_cast<std::size_t>(cfg.hops) + 1;
    case TopologyKind::kRandomField:
    case TopologyKind::kManhattanGrid:
      break;
  }
  return cfg.field.nodes > 0 ? static_cast<std::size_t>(cfg.field.nodes) : 0;
}

// Rejects a config the builders cannot honour, naming the offending field.
// It only reads cfg, so it moves no RNG draw and schedules nothing.
void check_config(const ExperimentConfig& cfg) {
  MUZHA_ASSERT(cfg.shards == 1, "ExperimentConfig::shards must be 1");
  if (cfg.topology == TopologyKind::kChain ||
      cfg.topology == TopologyKind::kCross) {
    MUZHA_ASSERT(cfg.hops >= 1, "ExperimentConfig::hops must be at least 1");
    MUZHA_ASSERT(cfg.topology != TopologyKind::kCross || cfg.hops % 2 == 0,
                 "ExperimentConfig::hops must be even for a cross");
  } else {
    const FieldConfig& f = cfg.field;
    MUZHA_ASSERT(f.nodes >= 2, "FieldConfig::nodes must be at least 2");
    MUZHA_ASSERT(f.districts >= 1, "FieldConfig::districts must be at least 1");
    // district_rect()'s strip width; the test is false for NaN too.
    const double strip = (f.width.value() - static_cast<double>(f.districts - 1) *
                                                f.district_gap.value()) /
                         static_cast<double>(f.districts);
    MUZHA_ASSERT(strip > 0.0,
                 "FieldConfig::width/district_gap: district strips must have "
                 "positive width");
    if (f.mobile) {
      MUZHA_ASSERT(f.mobility_tick > SimTime::zero(),
                   "FieldConfig::mobility_tick must be positive");
      MUZHA_ASSERT(f.max_speed >= f.min_speed,
                   "FieldConfig::max_speed must be at least min_speed");
    }
    MUZHA_ASSERT(cfg.topology != TopologyKind::kManhattanGrid ||
                     f.street_pitch > Meters(0.0),
                 "FieldConfig::street_pitch must be positive");
  }
  MUZHA_ASSERT(cfg.duration > SimTime::zero(),
               "ExperimentConfig::duration must be positive");
  MUZHA_ASSERT(cfg.throughput_bin > SimTime::zero(),
               "ExperimentConfig::throughput_bin must be positive");
  // The range test is false for NaN and both infinities too.
  MUZHA_ASSERT(cfg.uniform_error_rate >= 0.0 && cfg.uniform_error_rate <= 1.0,
               "ExperimentConfig::uniform_error_rate must be finite and in "
               "[0, 1]");
  MUZHA_ASSERT(!cfg.flows.empty(),
               "ExperimentConfig::flows: experiment needs at least one flow");
  const std::size_t nodes = node_count(cfg);
  for (const FlowSpec& f : cfg.flows) {
    MUZHA_ASSERT(f.window >= 1, "FlowSpec::window must be at least 1");
    MUZHA_ASSERT(f.src < nodes && f.dst < nodes,
                 "FlowSpec::src/dst: flow endpoints out of range");
    MUZHA_ASSERT(f.src != f.dst, "FlowSpec::src/dst: flow endpoints must differ");
  }
  for (const CbrFlowSpec& c : cfg.cbr_flows) {
    MUZHA_ASSERT(c.src < nodes && c.dst < nodes,
                 "CbrFlowSpec::src/dst: CBR endpoints out of range");
    MUZHA_ASSERT(c.src != c.dst,
                 "CbrFlowSpec::src/dst: CBR endpoints must differ");
    MUZHA_ASSERT(c.rate > BitsPerSecond(0.0), "CbrFlowSpec::rate must be positive");
    MUZHA_ASSERT(c.packet_size_bytes > 0,
                 "CbrFlowSpec::packet_size_bytes must be positive");
  }
}

// One flow's sender, receiver and their tracers.
struct FlowInstance {
  std::unique_ptr<TcpAgent> agent;
  std::unique_ptr<TcpSink> sink;
  CwndTracer cwnd;
  std::unique_ptr<ThroughputSampler> sampler;
};

// Everything one run owns. build_world() fills it in a fixed order that
// fixes every RNG draw and every event's scheduling sequence, so the order
// is part of the golden pins.
struct World {
  World(std::uint64_t seed, ChannelMode channel_mode)
      : net(seed, {}, {}, channel_mode) {}

  Network net;
  std::vector<std::unique_ptr<RandomWaypointMobility>> mobility;
  std::vector<FlowInstance> flows;                // one slot per cfg.flows
  std::vector<std::unique_ptr<CbrApp>> cbr_apps;  // one slot per cfg.cbr_flows
};

void place_nodes(Network& net, const ExperimentConfig& cfg) {
  switch (cfg.topology) {
    case TopologyKind::kChain:
      build_chain(net, cfg.hops);
      break;
    case TopologyKind::kCross:
      build_cross(net, cfg.hops);
      break;
    case TopologyKind::kRandomField:
      build_random_field(net, cfg.field);
      break;
    case TopologyKind::kManhattanGrid:
      build_manhattan_field(net, cfg.field);
      break;
  }
}

// Random-waypoint motion over each node's district rectangle (the whole
// field when districts == 1).
void start_mobility(World& w, const FieldConfig& field) {
  w.mobility.reserve(w.net.size());
  for (std::size_t i = 0; i < w.net.size(); ++i) {
    Node& node = w.net.node(i);
    Rect r = district_rect(field, district_of(field, node.id()));
    RandomWaypointMobility::Config mc;
    mc.min_x = r.x0;
    mc.max_x = r.x1;
    mc.min_y = r.y0;
    mc.max_y = r.y1;
    mc.min_speed = field.min_speed;
    mc.max_speed = field.max_speed;
    mc.pause = field.pause;
    mc.tick = field.mobility_tick;
    w.mobility.push_back(
        std::make_unique<RandomWaypointMobility>(w.net.sim(), node, mc));
    w.mobility.back()->start();
  }
}

// Static next hops over the decode-range graph of the nodes' initial
// positions (no node has moved yet: mobility only schedules its first
// tick): one BFS per destination, whose predecessor toward the destination
// becomes each node's next hop. Routes go in destination-major, node-minor
// order.
void install_bfs_routes(Network& net) {
  net.use_static_routing();
  const std::size_t n = net.size();
  std::vector<Position> positions;
  positions.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    positions.push_back(net.node(i).device().phy().position());
  }
  Meters rx_range = net.channel().params().rx_range;
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (distance(positions[i], positions[j]) <= rx_range) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
  }
  std::vector<std::size_t> next;
  std::vector<bool> seen;
  for (std::size_t dst = 0; dst < n; ++dst) {
    next.assign(n, SIZE_MAX);
    seen.assign(n, false);
    std::deque<std::size_t> q{dst};
    seen[dst] = true;
    while (!q.empty()) {
      std::size_t u = q.front();
      q.pop_front();
      for (std::size_t v : adj[u]) {
        if (seen[v]) continue;
        seen[v] = true;
        next[v] = u;  // v's next hop toward dst is u
        q.push_back(v);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i == dst || next[i] == SIZE_MAX) continue;
      net.static_routing(i).add_route(static_cast<NodeId>(dst),
                                      static_cast<NodeId>(next[i]));
    }
  }
}

// Router assistance: Muzha needs DRAI stamping; Jersey needs the router
// congestion-warning marks that the same estimator produces; NewReno+ECN
// needs RED/ECN markers instead (single-bit).
void enable_routers(Network& net, const ExperimentConfig& cfg) {
  bool any_router_assisted = false;
  bool any_ecn = false;
  for (const FlowSpec& f : cfg.flows) {
    if (f.variant == TcpVariant::kMuzha || f.variant == TcpVariant::kJersey) {
      any_router_assisted = true;
    }
    if (f.variant == TcpVariant::kNewRenoEcn) any_ecn = true;
  }
  bool routers_on = cfg.muzha_routers == ExperimentConfig::Routers::kOn ||
                    (cfg.muzha_routers == ExperimentConfig::Routers::kAuto &&
                     any_router_assisted);
  if (routers_on) {
    net.enable_muzha_routers(cfg.drai);
  } else if (any_ecn) {
    net.enable_red_ecn_routers(cfg.red);
  }
}

// TCP flows; ports and flow ids are the flow's index in cfg.flows.
void add_flows(World& w, const ExperimentConfig& cfg) {
  Network& net = w.net;
  // Sized once: the tracers and samplers hold their slot's address.
  w.flows.resize(cfg.flows.size());
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowSpec& f = cfg.flows[i];
    FlowInstance& inst = w.flows[i];
    TcpConfig tc;
    tc.dst = static_cast<NodeId>(f.dst);
    tc.src_port = static_cast<std::uint16_t>(1000 + i);
    tc.dst_port = static_cast<std::uint16_t>(2000 + i);
    tc.flow = static_cast<FlowId>(i);
    tc.packet_size = Bytes(kSegmentBytes);
    tc.window = f.window;
    inst.agent = make_tcp_agent(f.variant, net.sim(), net.node(f.src), tc);
    if (auto* m = dynamic_cast<TcpMuzha*>(inst.agent.get())) {
      m->set_loss_discrimination(cfg.muzha_loss_discrimination);
    }
    Node& dst = net.node(f.dst);
    TcpSink::Config sc;
    sc.port = tc.dst_port;
    if (f.variant == TcpVariant::kAdtcp) {
      // ADTCP is receiver-assisted: its sink measures and classifies.
      inst.sink = std::make_unique<AdtcpSink>(net.sim(), dst, sc);
    } else {
      inst.sink = std::make_unique<TcpSink>(net.sim(), dst, sc);
    }
    inst.sink->start();
    inst.sampler =
        std::make_unique<ThroughputSampler>(cfg.throughput_bin, kPayloadBytes);
    inst.sampler->attach(*inst.sink);
    TcpAgent* agent = inst.agent.get();
    net.sim().schedule_at(f.start_time, [agent] { agent->start(); });
    inst.cwnd.attach(*agent);
  }
}

// Background CBR load.
void add_cbr(World& w, const ExperimentConfig& cfg) {
  w.cbr_apps.resize(cfg.cbr_flows.size());
  for (std::size_t i = 0; i < cfg.cbr_flows.size(); ++i) {
    const CbrFlowSpec& c = cfg.cbr_flows[i];
    CbrApp::Config cc;
    cc.dst = static_cast<NodeId>(c.dst);
    cc.packet_size_bytes = c.packet_size_bytes;
    cc.rate = c.rate;
    cc.start_time = c.start_time;
    w.cbr_apps[i] =
        std::make_unique<CbrApp>(w.net.sim(), w.net.node(c.src), cc);
    w.cbr_apps[i]->install();
  }
}

// Turns cfg into a runnable world: nodes, mobility, routing, router
// assistance, the error model, TCP flows and CBR load, in that order.
std::unique_ptr<World> build_world(const ExperimentConfig& cfg) {
  auto w = std::make_unique<World>(cfg.seed, cfg.brute_force_channel
                                                 ? ChannelMode::kBruteForce
                                                 : ChannelMode::kSpatialIndex);
  place_nodes(w->net, cfg);
  if ((cfg.topology == TopologyKind::kRandomField ||
       cfg.topology == TopologyKind::kManhattanGrid) &&
      cfg.field.mobile) {
    start_mobility(*w, cfg.field);
  }
  if (cfg.static_routing) {
    install_bfs_routes(w->net);
  } else {
    w->net.use_aodv();
  }
  enable_routers(w->net, cfg);
  if (cfg.uniform_error_rate > 0.0) {
    w->net.set_error_model(std::make_unique<UniformErrorModel>(
        Probability(cfg.uniform_error_rate)));
  }
  add_flows(*w, cfg);
  add_cbr(*w, cfg);
  return w;
}

// Per-flow results in cfg.flows order plus the substrate totals.
ExperimentResult collect_result(const ExperimentConfig& cfg, World& w) {
  ExperimentResult result;
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowSpec& f = cfg.flows[i];
    const FlowInstance& inst = w.flows[i];
    FlowResult r;
    r.variant = f.variant;
    r.delivered = inst.sink->delivered();
    r.duration = Seconds((cfg.duration - f.start_time).to_seconds());
    r.throughput =
        r.duration > Seconds(0.0)
            ? Bits(static_cast<std::int64_t>(r.delivered) * kPayloadBytes * 8) /
                  r.duration
            : BitsPerSecond(0.0);
    r.packets_sent = inst.agent->packets_sent();
    r.retransmissions = inst.agent->retransmissions();
    r.timeouts = inst.agent->timeouts();
    r.cwnd_trace = inst.cwnd.series();
    r.throughput_series = inst.sampler->series();
    if (const auto* m = dynamic_cast<const TcpMuzha*>(inst.agent.get())) {
      r.marked_loss_events = m->marked_loss_events();
      r.unmarked_loss_events = m->unmarked_loss_events();
    }
    result.flows.push_back(std::move(r));
  }
  for (std::size_t i = 0; i < w.net.size(); ++i) {
    Node& node = w.net.node(i);
    result.ifq_drops += node.device().queue().drops();
    result.mac_retry_drops += node.device().mac().drops_retry_limit();
    result.phy_collisions += node.device().phy().collisions();
  }
  result.channel_error_losses = w.net.channel().frames_corrupted_by_error();
  for (const auto& app : w.cbr_apps) {
    result.cbr_packets_sent += app->packets_sent();
  }
  return result;
}

}  // namespace

ExperimentResult run_experiment(const ExperimentConfig& cfg) {
  check_config(cfg);
  std::unique_ptr<World> world = build_world(cfg);
  world->net.run_until(cfg.duration);
  return collect_result(cfg, *world);
}

}  // namespace muzha
