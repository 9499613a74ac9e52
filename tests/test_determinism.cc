// Determinism guard: the same (config, seed) run twice back-to-back in one
// process must produce byte-identical ExperimentResults. Any hidden static
// state (a global counter, a shared cache, a leaked logging sink) carried
// from the first run into the second shows up here as a diff.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "scenario/batch_runner.h"
#include "scenario/city.h"
#include "scenario/experiment.h"
#include "tests/experiment_equal.h"
#include "tests/experiment_hash.h"

namespace muzha {
namespace {

using muzha::testing::city_golden_config;
using muzha::testing::expect_results_identical;
using muzha::testing::fnv1a_u64;
using muzha::testing::hash_result;
using muzha::testing::hash_series;
using muzha::testing::kGoldenCityHash;

void expect_rerun_identical(const ExperimentConfig& cfg) {
  ExperimentResult first = run_experiment(cfg);
  ExperimentResult second = run_experiment(cfg);
  expect_results_identical(first, second);
}

TEST(Determinism, ChainScenarioIsRepeatableInProcess) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.hops = 4;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = 11;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 4, SimTime::zero(), 8});
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 4, SimTime::from_seconds(2.0), 8});
  expect_rerun_identical(cfg);
}

TEST(Determinism, CrossScenarioIsRepeatableInProcess) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kCross;
  cfg.hops = 4;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = 23;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 4, SimTime::zero(), 32});
  cfg.flows.push_back({TcpVariant::kVegas, 5, 8, SimTime::zero(), 32});
  expect_rerun_identical(cfg);
}

TEST(Determinism, RandomLossScenarioIsRepeatableInProcess) {
  // Exercises the channel error-model RNG path on top of MAC backoff draws.
  ExperimentConfig cfg;
  cfg.hops = 3;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = 31;
  cfg.uniform_error_rate = 0.03;
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 3, SimTime::zero(), 8});
  expect_rerun_identical(cfg);
}

TEST(Determinism, RedEcnScenarioIsRepeatableInProcess) {
  // RED keeps its own average-queue state; a leak across runs would skew
  // marking in the rerun.
  ExperimentConfig cfg;
  cfg.hops = 3;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = 17;
  cfg.flows.push_back({TcpVariant::kNewRenoEcn, 0, 3, SimTime::zero(), 32});
  expect_rerun_identical(cfg);
}

TEST(Determinism, InterleavedDifferentConfigsDoNotContaminate) {
  // Run A, then B, then A again: the second A must match the first even
  // though an unrelated simulation executed in between.
  ExperimentConfig a;
  a.hops = 3;
  a.duration = SimTime::from_seconds(6.0);
  a.seed = 5;
  a.flows.push_back({TcpVariant::kSack, 0, 3, SimTime::zero(), 8});

  ExperimentConfig b;
  b.topology = TopologyKind::kCross;
  b.hops = 4;
  b.duration = SimTime::from_seconds(6.0);
  b.seed = 6;
  b.flows.push_back({TcpVariant::kMuzha, 0, 4, SimTime::zero(), 8});
  b.flows.push_back({TcpVariant::kMuzha, 5, 8, SimTime::zero(), 8});

  ExperimentResult first = run_experiment(a);
  run_experiment(b);
  ExperimentResult again = run_experiment(a);
  expect_results_identical(first, again);
}

// ---------------------------------------------------------------------------
// Golden pin: one 3-hop Muzha chain with every metric frozen in-test.
//
// The rerun tests above catch state leaks *within* a process but would not
// notice if a code change shifted every run identically. These constants
// were captured before the indexed-heap scheduler rewrite and must survive
// any event-core change bit-for-bit: the (time, seq) FIFO contract promises
// the exact same event interleaving, RNG draw order and therefore the exact
// same floating-point metric stream. If an intentional protocol change
// shifts them, re-capture and update the constants in the same commit.

// fnv1a_u64 / hash_series / hash_result live in tests/experiment_hash.h.

TEST(Determinism, GoldenThreeHopMuzhaChainPinned) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.hops = 3;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = 42;
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 3, SimTime::zero(), 8});

  ExperimentResult r = run_experiment(cfg);
  ASSERT_EQ(r.flows.size(), 1u);
  const FlowResult& f = r.flows[0];

  EXPECT_EQ(f.delivered, 272);
  EXPECT_EQ(f.packets_sent, 274u);
  EXPECT_EQ(f.retransmissions, 0u);
  EXPECT_EQ(f.timeouts, 0u);
  EXPECT_EQ(f.marked_loss_events, 0u);
  EXPECT_EQ(f.unmarked_loss_events, 0u);
  EXPECT_EQ(r.ifq_drops, 0u);
  EXPECT_EQ(r.mac_retry_drops, 2u);
  EXPECT_EQ(r.phy_collisions, 267u);
  EXPECT_EQ(r.channel_error_losses, 0u);

  // Throughput compared on exact bits, not with a tolerance: determinism
  // means the double is identical, not merely close.
  std::uint64_t tput_bits;
  std::memcpy(&tput_bits, &f.throughput, 8);
  EXPECT_EQ(tput_bits, 0x41183d0000000000ull);

  ASSERT_EQ(f.cwnd_trace.size(), 64u);
  EXPECT_EQ(hash_series(f.cwnd_trace), 0xfa87cfb1cab94ea9ull);
  ASSERT_EQ(f.throughput_series.size(), 8u);
  EXPECT_EQ(hash_series(f.throughput_series), 0x040b1a758d6fefd1ull);
}

// The spatial-index channel (the default above) must reproduce the golden
// chain bit-for-bit under the brute-force reference scan too: the index is a
// pure lookup-structure change, invisible to the event schedule.
TEST(Determinism, GoldenChainIdenticalUnderBruteForceChannel) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.hops = 3;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = 42;
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 3, SimTime::zero(), 8});

  ExperimentResult indexed = run_experiment(cfg);
  cfg.brute_force_channel = true;
  ExperimentResult brute = run_experiment(cfg);
  expect_results_identical(indexed, brute);
}

// ---------------------------------------------------------------------------
// City-scale golden pin: a 200-node mobile random-waypoint field. This is
// the scenario class the spatial index exists for; the pin freezes the full
// pipeline (placement RNG, waypoint draws, grid maintenance under motion,
// AODV churn) in one number set. Captured with the spatial index enabled;
// the brute-force cross-check below proves the numbers are mode-independent.

TEST(Determinism, GoldenCityFieldPinned) {
  ExperimentResult r = run_experiment(city_golden_config());
  ASSERT_EQ(r.flows.size(), 4u);
  // Golden constant captured at pin time (seed 42, flow_seed 7; the config
  // and hash live in tests/experiment_hash.h). If an intentional protocol
  // or scenario-generator change shifts it, re-capture and update in the
  // same commit.
  EXPECT_EQ(hash_result(r), kGoldenCityHash);
}

TEST(Determinism, GoldenCityFieldIdenticalUnderBruteForceChannel) {
  ExperimentConfig cfg = city_golden_config();
  ExperimentResult indexed = run_experiment(cfg);
  cfg.brute_force_channel = true;
  ExperimentResult brute = run_experiment(cfg);
  expect_results_identical(indexed, brute);
}

// Dense static field under static routing, over three seeds folded into
// one hash: 48 nodes in 1200 m x 1200 m give the BFS many equal-length
// paths, so this pins its tie-breaking (destination-major route order,
// first-discovered predecessor wins). Captured before the sharded engine
// was removed.
TEST(Determinism, GoldenStaticRoutedDenseFieldPinned) {
  std::uint64_t h = 14695981039346656037ull;
  std::int64_t delivered = 0;
  for (std::uint64_t seed : {1ull, 23ull, 4242ull}) {
    ExperimentConfig cfg;
    cfg.topology = TopologyKind::kRandomField;
    cfg.field.nodes = 48;
    cfg.field.width = Meters(1200.0);
    cfg.field.height = Meters(1200.0);
    cfg.field.mobile = false;
    cfg.static_routing = true;
    cfg.duration = SimTime::from_seconds(3.0);
    cfg.seed = seed;
    cfg.flows = make_random_flows(2, cfg.field.nodes, TcpVariant::kMuzha,
                                  seed * 31 + 7, SimTime::from_seconds(1.0));
    ExperimentResult r = run_experiment(cfg);
    for (const FlowResult& f : r.flows) delivered += f.delivered;
    h = fnv1a_u64(h, hash_result(r));
  }
  EXPECT_GT(delivered, 0);  // the pin must freeze real traffic, not silence
  EXPECT_EQ(h, 0x15D71EB2A3D4B72Eull);
}

// Four mobile districts, 1000 m strips 1100 m apart (beyond carrier-sense
// range), one Muzha flow per district: pins district-confined placement and
// random-waypoint motion (FieldConfig::districts > 1). Captured before the
// sharded engine was removed.
TEST(Determinism, GoldenDistrictCityPinned) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = 120;
  cfg.field.districts = 4;
  cfg.field.district_gap = Meters(1100.0);
  cfg.field.width = Meters(4 * 1000.0 + 3 * 1100.0);
  cfg.field.height = Meters(1000.0);
  cfg.field.mobile = true;
  cfg.duration = SimTime::from_seconds(3.0);
  cfg.seed = 42;
  cfg.flows = make_random_district_flows(4, cfg.field, TcpVariant::kMuzha, 7,
                                         SimTime::from_seconds(1.0));
  ExperimentResult r = run_experiment(cfg);
  std::int64_t delivered = 0;
  for (const FlowResult& f : r.flows) delivered += f.delivered;
  EXPECT_GT(delivered, 0);
  EXPECT_EQ(hash_result(r), 0xEA852C6DB16233EBull);
}

TEST(Determinism, CityBatchIsJobsInvariant) {
  // Same city sweep on 1 worker and on 8: bitwise-identical results, the
  // test_batch_runner contract extended to the field topologies.
  auto build = [](int jobs) {
    BatchRunner runner({jobs, 2, 99});
    CityConfig city;
    city.field.nodes = 60;
    city.field.width = Meters(1500.0);
    city.field.height = Meters(1500.0);
    city.placement = TopologyKind::kManhattanGrid;
    city.ftp_flows = 2;
    city.duration = SimTime::from_seconds(5.0);
    city.flow_seed = 3;
    runner.add_point(make_city_config(city));
    city.placement = TopologyKind::kRandomField;
    runner.add_point(make_city_config(city));
    return runner.run();
  };
  auto one = build(1);
  auto eight = build(8);
  ASSERT_EQ(one.size(), eight.size());
  for (std::size_t p = 0; p < one.size(); ++p) {
    ASSERT_EQ(one[p].size(), eight[p].size());
    for (std::size_t rep = 0; rep < one[p].size(); ++rep) {
      expect_results_identical(one[p][rep], eight[p][rep]);
    }
  }
}

// ---------------------------------------------------------------------------
// Allocation-layout perturbation: rerunning under a deliberately scrambled
// heap must still be byte-identical.
//
// The rerun tests above execute both runs on a near-identical heap, so a
// hazard that keys behavior off pointer *values* (pointer-keyed maps,
// hash<T*>, unordered buckets whose layout tracks allocation history) can
// pass them by accident. Between the two runs here we churn the allocator
// with thousands of varied-size blocks and keep a deterministic subset of
// them alive across the second run, so every node/agent/packet pool lands at
// different addresses. Only address-independent state survives this.

TEST(Determinism, RepeatableUnderPerturbedAllocation) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.hops = 3;
  cfg.duration = SimTime::from_seconds(8.0);
  cfg.seed = 42;
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 3, SimTime::zero(), 8});

  ExperimentResult first = run_experiment(cfg);

  // Deterministic churn (no RNG): sizes cycle through a fixed pattern, every
  // third block stays alive so freed holes fragment the size classes the
  // simulator allocates from.
  std::vector<std::unique_ptr<char[]>> pins;
  pins.reserve(4096 / 3 + 1);
  for (int i = 0; i < 4096; ++i) {
    std::size_t size = 16 + static_cast<std::size_t>((i * 37) % 4013);
    auto block = std::make_unique<char[]>(size);
    block[0] = static_cast<char>(i);  // touch it so it is really committed
    if (i % 3 == 0) pins.push_back(std::move(block));
  }

  ExperimentResult second = run_experiment(cfg);
  expect_results_identical(first, second);
}

}  // namespace
}  // namespace muzha
