#include "scenario/world.h"

#include <deque>
#include <numeric>

#include "app/cbr.h"
#include "core/tcp_muzha.h"
#include "net/node.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "relwork/adtcp.h"
#include "scenario/city.h"
#include "scenario/experiment.h"
#include "scenario/mobility.h"
#include "scenario/network.h"
#include "sim/assert.h"
#include "sim/units.h"
#include "stats/time_series.h"
#include "tcp/tcp_agent.h"
#include "tcp/tcp_sink.h"

namespace muzha {

namespace {

// Adds the world's nodes and fills its global -> local index. Returns every
// node's initial position in global order (the static-routing graph).
std::vector<Position> place_nodes(World& w, const ExperimentConfig& cfg,
                                  const NodePartition& partition, int self) {
  Network& net = w.net;
  if (!partition.positions.empty()) {
    w.local_index.assign(partition.positions.size(), World::kForeign);
    for (std::size_t i = 0; i < partition.positions.size(); ++i) {
      if (partition.owner[i] != self) continue;
      w.local_index[i] = net.size();
      net.add_node(partition.positions[i], static_cast<NodeId>(i));
    }
    return partition.positions;
  }
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
  w.local_index.resize(net.size());
  std::iota(w.local_index.begin(), w.local_index.end(), std::size_t{0});
  std::vector<Position> positions;
  positions.reserve(net.size());
  for (std::size_t i = 0; i < net.size(); ++i) {
    positions.push_back(net.node(i).device().phy().position());
  }
  return positions;
}

// Random-waypoint motion over each node's district rectangle (the whole
// field when districts == 1).
void start_mobility(World& w, const FieldConfig& field) {
  w.mobility.reserve(w.net.size());
  for (std::size_t li = 0; li < w.net.size(); ++li) {
    Node& node = w.net.node(li);
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

// Static next hops over the decode-range graph of `positions`: one BFS per
// destination, whose predecessor toward the destination becomes each local
// node's next hop. Routes go in destination-major, node-minor order.
void install_bfs_routes(Network& net, const std::vector<Position>& positions) {
  net.use_static_routing();
  const std::size_t n = positions.size();
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
    for (std::size_t li = 0; li < net.size(); ++li) {
      std::size_t gi = net.node(li).id();
      if (gi == dst || next[gi] == SIZE_MAX) continue;
      net.static_routing(li).add_route(static_cast<NodeId>(dst),
                                       static_cast<NodeId>(next[gi]));
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

// TCP flows. Ports and flow ids are global flow indices, so the two halves
// of a flow split across worlds agree.
void add_flows(World& w, const ExperimentConfig& cfg) {
  Network& net = w.net;
  const std::vector<std::size_t>& local = w.local_index;
  // Sized once: the tracers and samplers hold their slot's address.
  w.flows.resize(cfg.flows.size());
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowSpec& f = cfg.flows[i];
    MUZHA_ASSERT(f.src < local.size() && f.dst < local.size(),
                 "flow endpoints out of range");
    MUZHA_ASSERT(f.src != f.dst, "flow endpoints must differ");
    FlowInstance& inst = w.flows[i];
    TcpConfig tc;
    tc.dst = static_cast<NodeId>(f.dst);
    tc.src_port = static_cast<std::uint16_t>(1000 + i);
    tc.dst_port = static_cast<std::uint16_t>(2000 + i);
    tc.flow = static_cast<FlowId>(i);
    tc.packet_size = Bytes(kSegmentBytes);
    tc.window = f.window;
    if (local[f.src] != World::kForeign) {
      inst.agent =
          make_tcp_agent(f.variant, net.sim(), net.node(local[f.src]), tc);
      if (auto* m = dynamic_cast<TcpMuzha*>(inst.agent.get())) {
        m->set_loss_discrimination(cfg.muzha_loss_discrimination);
      }
    }
    if (local[f.dst] != World::kForeign) {
      Node& dst = net.node(local[f.dst]);
      TcpSink::Config sc;
      sc.port = tc.dst_port;
      if (f.variant == TcpVariant::kAdtcp) {
        // ADTCP is receiver-assisted: its sink measures and classifies.
        inst.sink = std::make_unique<AdtcpSink>(net.sim(), dst, sc);
      } else {
        inst.sink = std::make_unique<TcpSink>(net.sim(), dst, sc);
      }
      inst.sink->start();
      inst.sampler = std::make_unique<ThroughputSampler>(cfg.throughput_bin,
                                                         kPayloadBytes);
      inst.sampler->attach(*inst.sink);
    }
    if (inst.agent) {
      TcpAgent* agent = inst.agent.get();
      net.sim().schedule_at(f.start_time, [agent] { agent->start(); });
      inst.cwnd.attach(*agent);
    }
  }
}

// Background CBR load, installed on the source's world.
void add_cbr(World& w, const ExperimentConfig& cfg) {
  const std::vector<std::size_t>& local = w.local_index;
  w.cbr_apps.resize(cfg.cbr_flows.size());
  for (std::size_t i = 0; i < cfg.cbr_flows.size(); ++i) {
    const CbrFlowSpec& c = cfg.cbr_flows[i];
    MUZHA_ASSERT(c.src < local.size() && c.dst < local.size(),
                 "CBR endpoints out of range");
    MUZHA_ASSERT(c.src != c.dst, "CBR endpoints must differ");
    if (local[c.src] == World::kForeign) continue;
    CbrApp::Config cc;
    cc.dst = static_cast<NodeId>(c.dst);
    cc.packet_size_bytes = c.packet_size_bytes;
    cc.rate = c.rate;
    cc.start_time = c.start_time;
    w.cbr_apps[i] =
        std::make_unique<CbrApp>(w.net.sim(), w.net.node(local[c.src]), cc);
    w.cbr_apps[i]->install();
  }
}

}  // namespace

std::unique_ptr<World> build_world(const ExperimentConfig& cfg,
                                   std::uint64_t seed,
                                   const NodePartition& partition, int self) {
  MUZHA_ASSERT(!cfg.flows.empty(), "experiment needs at least one flow");
  auto w = std::make_unique<World>(seed, cfg.brute_force_channel
                                             ? ChannelMode::kBruteForce
                                             : ChannelMode::kSpatialIndex);
  std::vector<Position> positions = place_nodes(*w, cfg, partition, self);
  if ((cfg.topology == TopologyKind::kRandomField ||
       cfg.topology == TopologyKind::kManhattanGrid) &&
      cfg.field.mobile) {
    start_mobility(*w, cfg.field);
  }
  if (cfg.static_routing) {
    install_bfs_routes(w->net, positions);
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

ExperimentResult collect_result(const ExperimentConfig& cfg,
                                const std::vector<World*>& worlds) {
  ExperimentResult result;
  for (std::size_t i = 0; i < cfg.flows.size(); ++i) {
    const FlowSpec& f = cfg.flows[i];
    const FlowInstance* src = nullptr;
    const FlowInstance* dst = nullptr;
    for (const World* w : worlds) {
      const FlowInstance& inst = w->flows[i];
      if (inst.agent) src = &inst;
      if (inst.sink) dst = &inst;
    }
    MUZHA_ASSERT(src != nullptr && dst != nullptr, "flow has no endpoint");
    FlowResult r;
    r.variant = f.variant;
    r.delivered = dst->sink->delivered();
    r.duration = Seconds((cfg.duration - f.start_time).to_seconds());
    r.throughput =
        r.duration > Seconds(0.0)
            ? Bits(static_cast<std::int64_t>(r.delivered) * kPayloadBytes * 8) /
                  r.duration
            : BitsPerSecond(0.0);
    r.packets_sent = src->agent->packets_sent();
    r.retransmissions = src->agent->retransmissions();
    r.timeouts = src->agent->timeouts();
    r.cwnd_trace = src->cwnd.series();
    r.throughput_series = dst->sampler->series();
    if (const auto* m = dynamic_cast<const TcpMuzha*>(src->agent.get())) {
      r.marked_loss_events = m->marked_loss_events();
      r.unmarked_loss_events = m->unmarked_loss_events();
    }
    result.flows.push_back(std::move(r));
  }
  // Integer totals: the summation order across worlds cannot matter.
  for (World* w : worlds) {
    for (std::size_t li = 0; li < w->net.size(); ++li) {
      Node& node = w->net.node(li);
      result.ifq_drops += node.device().queue().drops();
      result.mac_retry_drops += node.device().mac().drops_retry_limit();
      result.phy_collisions += node.device().phy().collisions();
    }
    result.channel_error_losses += w->net.channel().frames_corrupted_by_error();
    for (const auto& app : w->cbr_apps) {
      if (app) result.cbr_packets_sent += app->packets_sent();
    }
  }
  return result;
}

}  // namespace muzha
