// City-scale scenario generation.
//
// The paper evaluates Muzha on 4-7-hop chains; MANET TCP studies normally
// run over random-waypoint fields with hundreds of nodes. This module
// generates those fields: node placement (uniform random or Manhattan street
// grid), plus seeded random flow sets (N nodes x F concurrent FTP/CBR
// flows), all expressed as an ExperimentConfig so the existing
// run_experiment / BatchRunner plumbing drives them unchanged.
//
// Placement draws from the simulation RNG (inside run_experiment), so a
// (config, seed) pair fully determines the topology. Flow endpoints are
// drawn from a private SplitMix64 stream keyed on `flow_seed` — independent
// of the simulation seed, so a sweep can vary the field while holding the
// traffic pattern fixed (and vice versa).
#pragma once

#include <vector>

#include "phy/position.h"
#include "pkt/packet.h"
#include "scenario/experiment.h"
#include "scenario/network.h"
#include "sim/rng.h"
#include "sim/sim_time.h"
#include "sim/units.h"

namespace muzha {

// Topology builders, called by run_experiment for the field topologies.
// Both append `f.nodes` nodes and return their ids.
std::vector<NodeId> build_random_field(Network& net, const FieldConfig& f);
std::vector<NodeId> build_manhattan_field(Network& net, const FieldConfig& f);

// Axis-aligned placement/motion rectangle of district `d` (0-based). With
// districts == 1 this is the whole field. Districts are vertical strips of
// equal width separated by `district_gap`; the gaps come out of the field
// width, so strip width is (width - (districts-1)*gap) / districts.
struct Rect {
  double x0 = 0.0, x1 = 0.0;
  double y0 = 0.0, y1 = 0.0;
};
Rect district_rect(const FieldConfig& f, int d);

// District of node index i: i % districts.
inline int district_of(const FieldConfig& f, std::size_t i) {
  return static_cast<int>(i % static_cast<std::size_t>(f.districts));
}

// The placement draw sequence of build_random_field / build_manhattan_field
// as a pure function of (kind, field, rng): one Position per node, drawn in
// node order. The builders are thin wrappers over this, so a caller with a
// fresh Rng(seed) recovers the exact coordinates a Network built from the
// same seed will have, before any network exists.
std::vector<Position> field_positions(TopologyKind kind, const FieldConfig& f,
                                      Rng& rng);

// `count` FTP flows between distinct random node pairs, starts staggered
// uniformly over [0, start_window]. Deterministic in (count, nodes,
// flow_seed).
std::vector<FlowSpec> make_random_flows(int count, int nodes, TcpVariant v,
                                        std::uint64_t flow_seed,
                                        SimTime start_window,
                                        int window = 32);

// Same idea for background CBR load.
std::vector<CbrFlowSpec> make_random_cbr_flows(int count, int nodes,
                                               BitsPerSecond rate,
                                               std::uint64_t flow_seed,
                                               SimTime start_window);

// FTP flows whose endpoints are confined to one district: flow j runs inside
// district j % districts, between distinct random members of that district.
// With districts separated by more than carrier-sense range, no frame ever
// crosses between districts. Deterministic in (count, field, flow_seed).
std::vector<FlowSpec> make_random_district_flows(int count,
                                                 const FieldConfig& f,
                                                 TcpVariant v,
                                                 std::uint64_t flow_seed,
                                                 SimTime start_window,
                                                 int window = 32);

// One-call config for the common case: an N-node mobile random-waypoint (or
// Manhattan) field with F FTP flows of `variant` and C CBR flows.
struct CityConfig {
  FieldConfig field;
  TopologyKind placement = TopologyKind::kRandomField;
  int ftp_flows = 4;
  int cbr_flows = 0;
  TcpVariant variant = TcpVariant::kNewReno;
  BitsPerSecond cbr_rate = BitsPerSecond(100'000.0);
  SimTime flow_start_window = SimTime::from_seconds(5.0);
  SimTime duration = SimTime::from_seconds(60.0);
  std::uint64_t seed = 1;       // simulation seed (placement, motion, ...)
  std::uint64_t flow_seed = 1;  // traffic-pattern seed
};

ExperimentConfig make_city_config(const CityConfig& city);

}  // namespace muzha
