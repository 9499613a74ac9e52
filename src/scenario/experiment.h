// Declarative experiment runner — the high-level public API.
//
// Describe a topology, a set of TCP flows (variant, endpoints, start time,
// advertised window `window_`) and a duration; run_experiment() builds the
// whole stack, runs it, and returns per-flow throughput, retransmissions,
// CWND traces and throughput-dynamics series. Every bench and example is a
// thin wrapper over this. A config the builders cannot honour (bad hop
// count, window, duration, loss rate or flow endpoints) fails a MUZHA_ASSERT
// naming the field before anything is built.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/drai.h"
#include "net/node.h"
#include "relwork/ecn.h"
#include "scenario/network.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"
#include "sim/units.h"
#include "stats/time_series.h"
#include "tcp/tcp_agent.h"

namespace muzha {

// The paper's protagonists (Tahoe..Muzha) plus the related-work protocols
// its Ch. 3 surveys: TCP-DOOR, ADTCP (end-to-end), TCP Jersey and TCP
// RoVegas (router-assisted).
enum class TcpVariant {
  kTahoe,
  kReno,
  kNewReno,
  kSack,
  kVegas,
  kMuzha,
  kDoor,
  kAdtcp,
  kJersey,
  kRoVegas,
  // NewReno + RFC 3168 ECN over RED-marking routers (single-bit feedback,
  // the paper's Sec. 3.2 comparison point for DRAI).
  kNewRenoEcn,
  // End-to-end bandwidth estimation (paper reference [24]).
  kWestwood,
};

const char* variant_name(TcpVariant v);

// Factory for a sender of the given variant (Muzha included).
std::unique_ptr<TcpAgent> make_tcp_agent(TcpVariant v, Simulator& sim,
                                         Node& node, TcpConfig cfg);

struct FlowSpec {
  TcpVariant variant = TcpVariant::kNewReno;
  std::size_t src = 0;  // node index
  std::size_t dst = 0;  // node index
  SimTime start_time;
  int window = 32;  // NS-2 window_
};

enum class TopologyKind {
  kChain,
  kCross,
  // City-scale fields (src/scenario/city.h): N nodes placed by the seeded
  // simulation RNG, optional random-waypoint motion, sized by `field`.
  kRandomField,    // uniform random placement in the rectangle
  kManhattanGrid,  // nodes on a street grid of pitch `street_pitch`
};

// Geometry and motion of the city-scale field topologies.
struct FieldConfig {
  int nodes = 200;
  Meters width = Meters(2000.0);
  Meters height = Meters(2000.0);
  // Manhattan grid: distance between adjacent streets; nodes sit on streets
  // (random street, random offset along it).
  Meters street_pitch = Meters(275.0);
  // Random-waypoint motion (applies to both field kinds when true).
  bool mobile = true;
  MetersPerSecond min_speed = MetersPerSecond(1.0);
  MetersPerSecond max_speed = MetersPerSecond(10.0);
  SimTime pause = SimTime::from_seconds(2.0);
  SimTime mobility_tick = SimTime::from_ms(250);
  // City districts: the field splits into `districts` vertical strips of
  // equal width separated by `district_gap` of empty ground (the overall
  // `width` includes the gaps). Node i belongs to district i % districts;
  // placement AND random-waypoint motion are confined to the node's strip,
  // so district membership is invariant over the whole run. districts == 1
  // is the classic single-rectangle field and draws the exact same RNG
  // sequence as before the knob existed.
  int districts = 1;
  Meters district_gap = Meters(1100.0);
};

// Background CBR load (no transport; competes for airtime and queues).
struct CbrFlowSpec {
  std::size_t src = 0;  // node index
  std::size_t dst = 0;  // node index
  BitsPerSecond rate = BitsPerSecond(100'000.0);
  std::uint32_t packet_size_bytes = 512;
  SimTime start_time;
};

struct ExperimentConfig {
  TopologyKind topology = TopologyKind::kChain;
  int hops = 4;
  FieldConfig field;  // used by kRandomField / kManhattanGrid only
  SimTime duration = SimTime::from_seconds(30.0);
  std::uint64_t seed = 1;
  std::vector<FlowSpec> flows;
  std::vector<CbrFlowSpec> cbr_flows;
  // Run the channel's O(attached) reference scan instead of the spatial
  // index — the oracle side of the differential tests. Results must be
  // bit-identical either way.
  bool brute_force_channel = false;
  // Router assistance: default on iff any flow is Muzha.
  enum class Routers { kAuto, kOn, kOff };
  Routers muzha_routers = Routers::kAuto;
  DraiConfig drai;
  // RED parameters used when a kNewRenoEcn flow enables RED/ECN routers.
  RedParams red;
  // Random per-packet channel loss (0 = none).
  double uniform_error_rate = 0.0;
  // Ablation: disable Muzha's marked/unmarked loss discrimination.
  bool muzha_loss_discrimination = true;
  // AODV by default (Table 5.1); static routing isolates transport effects.
  bool static_routing = false;
  SimTime throughput_bin = SimTime::from_seconds(1.0);
  // Must be 1: one experiment runs on one event core (sweeps use every core
  // through BatchRunner). Left over from the removed sharded engine; it
  // stays only because perfbench/perfbench.cc still assigns it, and goes
  // with the next change to the benchmark.
  int shards = 1;
};

struct FlowResult {
  TcpVariant variant;
  std::int64_t delivered = 0;          // in-order segments at the sink
  Seconds duration = Seconds(0.0);     // flow start -> experiment end
  BitsPerSecond throughput =
      BitsPerSecond(0.0);              // goodput: delivered bits / duration
  std::uint64_t packets_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  TimeSeries cwnd_trace;
  TimeSeries throughput_series;
  // Muzha-only diagnostics (0 for other variants).
  std::uint64_t marked_loss_events = 0;
  std::uint64_t unmarked_loss_events = 0;
};

struct ExperimentResult {
  std::vector<FlowResult> flows;
  // Substrate-level aggregates.
  std::uint64_t ifq_drops = 0;         // drop-tail losses (congestion)
  std::uint64_t mac_retry_drops = 0;   // retry-limit losses (link failure)
  std::uint64_t phy_collisions = 0;
  std::uint64_t channel_error_losses = 0;
  std::uint64_t cbr_packets_sent = 0;  // background-load injection count

  BitsPerSecond total_throughput() const;
  // Per-flow goodput in bit/s (convenience for stats helpers).
  std::vector<double> flow_throughputs() const;
};

ExperimentResult run_experiment(const ExperimentConfig& cfg);

// Paper defaults: 1460 B payload segments, 40 B ACKs (Sec. 5.3).
inline constexpr std::uint32_t kPayloadBytes = 1460;
inline constexpr std::uint32_t kSegmentBytes = 1500;

}  // namespace muzha
