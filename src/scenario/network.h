// Network: one simulation instance — simulator, channel, nodes, routing and
// (optionally) Muzha router assistance.
#pragma once

#include <memory>
#include <vector>

#include "core/bandwidth_estimator.h"
#include "core/drai.h"
#include "net/agent.h"
#include "net/node.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/phy_params.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "relwork/ecn.h"
#include "routing/static_routing.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace muzha {

class Network {
 public:
  explicit Network(std::uint64_t seed = 1, PhyParams phy = {},
                   NodeConfig node_cfg = {},
                   ChannelMode channel_mode = ChannelMode::kSpatialIndex);
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  Simulator& sim() { return sim_; }
  Channel& channel() { return channel_; }

  // Adds a node whose id is its index.
  Node& add_node(Position pos);
  Node& node(std::size_t i) { return *nodes_[i]; }
  std::size_t size() const { return nodes_.size(); }

  // Installs AODV on every node (the paper's Table 5.1 routing protocol).
  void use_aodv();

  // Installs static next-hop routing; the caller fills the tables via
  // static_routing(i).
  void use_static_routing();
  class StaticRouting& static_routing(std::size_t i);

  // Attaches a Muzha bandwidth estimator / DRAI source to every node
  // (routers assist all passing Muzha flows).
  void enable_muzha_routers(DraiConfig cfg = {});
  BandwidthEstimator* estimator(std::size_t i);

  // Attaches RED/ECN single-bit markers instead (the paper's Sec. 3.2
  // comparison point). Mutually exclusive with enable_muzha_routers.
  void enable_red_ecn_routers(struct RedParams params);

  void set_error_model(std::unique_ptr<ErrorModel> em) {
    channel_.set_error_model(std::move(em));
  }

  void run_until(SimTime t) { sim_.run_until(t); }

 private:
  Simulator sim_;
  Channel channel_;
  NodeConfig node_cfg_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<std::unique_ptr<DraiSource>> drai_sources_;
};

// Chain topology (Fig 5.1): hops+1 nodes on a line, neighbours `spacing`
// apart (250 m: exactly one-hop connectivity).
std::vector<NodeId> build_chain(Network& net, int hops,
                                Meters spacing = Meters(250.0));

// Cross topology (Fig 5.15): a horizontal and a vertical chain of `hops`
// hops sharing the centre node (4-hop cross = 9 nodes). Returns
// {horizontal node ids, vertical node ids}; the vertical list reuses the
// shared centre node id.
struct CrossTopology {
  std::vector<NodeId> horizontal;
  std::vector<NodeId> vertical;
};
CrossTopology build_cross(Network& net, int hops,
                          Meters spacing = Meters(250.0));

// Rectangular grid: rows x cols nodes, `spacing` apart. Returns ids in
// row-major order. Gives multihop scenarios with route diversity (unlike the
// chain, a broken link is routable-around).
std::vector<NodeId> build_grid(Network& net, int rows, int cols,
                               Meters spacing = Meters(200.0));

// Two parallel chains of `hops` hops, `gap` apart vertically — close
// enough to interfere, far enough not to forward for each other when
// `gap` > decode range. Returns {top chain ids, bottom chain ids}.
struct ParallelChains {
  std::vector<NodeId> top;
  std::vector<NodeId> bottom;
};
ParallelChains build_parallel_chains(Network& net, int hops,
                                     Meters spacing = Meters(250.0),
                                     Meters gap = Meters(300.0));

// Uniform random placement in a rectangle, rejected and resampled until the
// connectivity graph (decode-range links) is connected. Returns node ids.
std::vector<NodeId> build_random_connected(Network& net, int n, Meters width,
                                           Meters height,
                                           int max_attempts = 100);

}  // namespace muzha
