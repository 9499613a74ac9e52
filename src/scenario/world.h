// One experiment world: the assembly step shared by run_experiment and the
// sharded engine (scenario/sharded_experiment.h).
//
// build_world() turns an ExperimentConfig into a runnable Network with
// mobility, routing, router assistance, the error model, TCP flows and CBR
// load attached, in that order — the order fixes every RNG draw and every
// event's scheduling sequence, so it is part of the golden pins. A world
// hosts either the whole topology (run_experiment, and the engine at
// shards == 1) or one shard's subset of it; collect_result() reads the
// ExperimentResult back out of any set of worlds that together host every
// node once.
//
// Internal to src/scenario: only experiment.cc and sharded_experiment.cc
// include this header.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "app/cbr.h"
#include "phy/channel.h"
#include "phy/position.h"
#include "scenario/experiment.h"
#include "scenario/mobility.h"
#include "scenario/network.h"
#include "stats/time_series.h"
#include "tcp/tcp_agent.h"
#include "tcp/tcp_sink.h"

namespace muzha {

// How the global node set is split between worlds. Empty (the default): one
// world hosts every node, placed by the classic builders (build_chain,
// build_cross, build_random_field, build_manhattan_field) from that world's
// own RNG. Otherwise node i sits at positions[i] and lives in world owner[i]
// under global id i.
struct NodePartition {
  std::vector<Position> positions;
  std::vector<int> owner;
};

// One flow's endpoints inside one world. A flow whose source and
// destination live in different worlds has its agent (and cwnd tracer) in
// the source's world and its sink (and sampler) in the destination's; the
// other half stays empty.
struct FlowInstance {
  std::unique_ptr<TcpAgent> agent;
  std::unique_ptr<TcpSink> sink;
  CwndTracer cwnd;
  std::unique_ptr<ThroughputSampler> sampler;
};

struct World {
  World(std::uint64_t seed, ChannelMode channel_mode)
      : net(seed, {}, {}, channel_mode) {}

  static constexpr std::size_t kForeign = SIZE_MAX;

  Network net;
  std::vector<std::size_t> local_index;  // global node -> local, or kForeign
  std::vector<std::unique_ptr<RandomWaypointMobility>> mobility;
  std::vector<FlowInstance> flows;                // one slot per cfg.flows
  std::vector<std::unique_ptr<CbrApp>> cbr_apps;  // one slot per cfg.cbr_flows
};

// Builds world `self` of `partition` on the calling thread, seeding its
// simulator with `seed`. Static routes come from one BFS over every node's
// initial position, so a next hop may live in another world.
std::unique_ptr<World> build_world(const ExperimentConfig& cfg,
                                   std::uint64_t seed,
                                   const NodePartition& partition, int self);

// Per-flow results in cfg.flows order plus the substrate totals, summed over
// `worlds`. Only reads; the caller keeps every world quiescent meanwhile.
ExperimentResult collect_result(const ExperimentConfig& cfg,
                                const std::vector<World*>& worlds);

}  // namespace muzha
