#include "scenario/network.h"

#include "core/bandwidth_estimator.h"
#include "core/drai.h"
#include "net/node.h"
#include "phy/channel.h"
#include "phy/phy_params.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "relwork/ecn.h"
#include "routing/aodv.h"
#include "routing/static_routing.h"
#include "sim/assert.h"
#include "sim/rng.h"
#include "sim/units.h"

namespace muzha {

Network::Network(std::uint64_t seed, PhyParams phy, NodeConfig node_cfg,
                 ChannelMode channel_mode)
    : sim_(seed), channel_(sim_, phy, channel_mode), node_cfg_(node_cfg) {}

Node& Network::add_node(Position pos) {
  nodes_.push_back(std::make_unique<Node>(
      sim_, channel_, static_cast<NodeId>(nodes_.size()), pos, node_cfg_));
  return *nodes_.back();
}

void Network::use_aodv() {
  for (auto& n : nodes_) {
    n->set_routing(std::make_unique<Aodv>(sim_, *n));
  }
}

void Network::use_static_routing() {
  for (auto& n : nodes_) {
    n->set_routing(std::make_unique<StaticRouting>(*n));
  }
}

StaticRouting& Network::static_routing(std::size_t i) {
  auto* r = dynamic_cast<StaticRouting*>(&nodes_[i]->routing());
  MUZHA_ASSERT(r != nullptr, "node is not using static routing");
  return *r;
}

void Network::enable_muzha_routers(DraiConfig cfg) {
  drai_sources_.clear();
  drai_sources_.reserve(nodes_.size());
  for (auto& n : nodes_) {
    auto est = std::make_unique<BandwidthEstimator>(sim_, n->device(), cfg);
    est->start();
    n->set_drai_source(est.get());
    drai_sources_.push_back(std::move(est));
  }
}

void Network::enable_red_ecn_routers(RedParams params) {
  drai_sources_.clear();
  drai_sources_.reserve(nodes_.size());
  for (auto& n : nodes_) {
    auto marker = std::make_unique<RedEcnMarker>(sim_, n->device(), params);
    n->set_drai_source(marker.get());
    drai_sources_.push_back(std::move(marker));
  }
}

BandwidthEstimator* Network::estimator(std::size_t i) {
  if (i >= drai_sources_.size()) return nullptr;
  return dynamic_cast<BandwidthEstimator*>(drai_sources_[i].get());
}

std::vector<NodeId> build_chain(Network& net, int hops, Meters spacing) {
  MUZHA_ASSERT(hops >= 1, "chain needs at least one hop");
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(hops) + 1);
  for (int i = 0; i <= hops; ++i) {
    ids.push_back(net.add_node({spacing.value() * i, 0.0}).id());
  }
  return ids;
}

CrossTopology build_cross(Network& net, int hops, Meters spacing) {
  MUZHA_ASSERT(hops >= 2 && hops % 2 == 0, "cross needs an even hop count");
  CrossTopology topo;
  int half = hops / 2;
  // Horizontal arm: y = 0, x in [-half .. +half] * spacing.
  for (int i = -half; i <= half; ++i) {
    topo.horizontal.push_back(net.add_node({spacing.value() * i, 0.0}).id());
  }
  NodeId center = topo.horizontal[static_cast<std::size_t>(half)];
  // Vertical arm shares the centre node.
  for (int i = -half; i <= half; ++i) {
    if (i == 0) {
      topo.vertical.push_back(center);
    } else {
      topo.vertical.push_back(net.add_node({0.0, spacing.value() * i}).id());
    }
  }
  return topo;
}

std::vector<NodeId> build_grid(Network& net, int rows, int cols,
                               Meters spacing) {
  MUZHA_ASSERT(rows >= 1 && cols >= 1, "grid needs positive dimensions");
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(rows) * cols);
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      ids.push_back(
          net.add_node({spacing.value() * c, spacing.value() * r}).id());
    }
  }
  return ids;
}

ParallelChains build_parallel_chains(Network& net, int hops, Meters spacing,
                                     Meters gap) {
  ParallelChains out;
  for (int i = 0; i <= hops; ++i) {
    out.top.push_back(net.add_node({spacing.value() * i, 0.0}).id());
  }
  for (int i = 0; i <= hops; ++i) {
    out.bottom.push_back(net.add_node({spacing.value() * i, gap.value()}).id());
  }
  return out;
}

namespace {
bool is_connected(Network& net, std::size_t first, std::size_t count,
                  Meters range) {
  std::vector<bool> seen(count, false);
  std::vector<std::size_t> stack{0};
  seen[0] = true;
  std::size_t reached = 1;
  while (!stack.empty()) {
    std::size_t u = stack.back();
    stack.pop_back();
    Position pu = net.node(first + u).device().phy().position();
    for (std::size_t v = 0; v < count; ++v) {
      if (seen[v]) continue;
      Position pv = net.node(first + v).device().phy().position();
      if (distance(pu, pv) <= range) {
        seen[v] = true;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  return reached == count;
}
}  // namespace

std::vector<NodeId> build_random_connected(Network& net, int n, Meters width,
                                           Meters height, int max_attempts) {
  MUZHA_ASSERT(n >= 1, "need at least one node");
  std::size_t first = net.size();
  std::vector<NodeId> ids;
  ids.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    ids.push_back(net.add_node({0, 0}).id());
  }
  Meters range = net.channel().params().rx_range;
  Rng& rng = net.sim().rng();
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    for (int i = 0; i < n; ++i) {
      net.node(first + i).device().phy().set_position(
          {rng.uniform(0, width.value()), rng.uniform(0, height.value())});
    }
    if (is_connected(net, first, static_cast<std::size_t>(n), range)) {
      return ids;
    }
  }
  MUZHA_ASSERT(false,
               "could not draw a connected random topology; "
               "increase density or attempts");
  return ids;
}

}  // namespace muzha
