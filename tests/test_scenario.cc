// Scenario-layer tests: topology builders, experiment config handling, and
// the Table 5.1 simulation parameters.
#include <gtest/gtest.h>

#include <limits>

#include "scenario/city.h"
#include "scenario/experiment.h"
#include "scenario/network.h"

namespace muzha {
namespace {

TEST(Topology, ChainHasHopsPlusOneNodes) {
  Network net(1);
  auto ids = build_chain(net, 4);
  EXPECT_EQ(ids.size(), 5u);
  EXPECT_EQ(net.size(), 5u);
  // 250 m spacing: consecutive nodes in range, non-consecutive not.
  Meters d01 = distance(net.node(0).device().phy().position(),
                        net.node(1).device().phy().position());
  Meters d02 = distance(net.node(0).device().phy().position(),
                        net.node(2).device().phy().position());
  EXPECT_DOUBLE_EQ(d01.value(), 250.0);
  EXPECT_DOUBLE_EQ(d02.value(), 500.0);
}

TEST(Topology, FourHopCrossHasNineNodes) {
  // Fig 5.15: "4-hop Cross Topology with 9 Nodes".
  Network net(1);
  CrossTopology topo = build_cross(net, 4);
  EXPECT_EQ(net.size(), 9u);
  EXPECT_EQ(topo.horizontal.size(), 5u);
  EXPECT_EQ(topo.vertical.size(), 5u);
  // The centre node is shared between the arms.
  EXPECT_EQ(topo.horizontal[2], topo.vertical[2]);
}

TEST(Topology, CrossArmsAreOrthogonal) {
  Network net(1);
  CrossTopology topo = build_cross(net, 4);
  Position center =
      net.node(topo.horizontal[2]).device().phy().position();
  EXPECT_DOUBLE_EQ(center.x, 0.0);
  EXPECT_DOUBLE_EQ(center.y, 0.0);
  Position h_end = net.node(topo.horizontal[4]).device().phy().position();
  Position v_end = net.node(topo.vertical[4]).device().phy().position();
  EXPECT_DOUBLE_EQ(h_end.x, 500.0);
  EXPECT_DOUBLE_EQ(h_end.y, 0.0);
  EXPECT_DOUBLE_EQ(v_end.x, 0.0);
  EXPECT_DOUBLE_EQ(v_end.y, 500.0);
}

TEST(Topology, OddHopCrossRejected) {
  Network net(1);
  EXPECT_DEATH(build_cross(net, 3), "even");
}

TEST(Table51, DefaultParametersMatchThePaper) {
  // Table 5.1: link bandwidth 2 Mbps, transmission range 250 m, 802.11 MAC,
  // 50-packet drop-tail IFQ, AODV routing.
  PhyParams phy;
  EXPECT_EQ(phy.data_rate, BitsPerSecond(2'000'000));
  EXPECT_DOUBLE_EQ(phy.rx_range.value(), 250.0);
  NodeConfig node;
  EXPECT_EQ(node.ifq_capacity, 50u);
  MacParams mac;
  EXPECT_EQ(mac.cw_min, 31u);
  EXPECT_EQ(mac.cw_max, 1023u);
  EXPECT_EQ(mac.slot, SimTime::from_us(20));
  EXPECT_EQ(mac.sifs, SimTime::from_us(10));
  EXPECT_EQ(mac.difs, SimTime::from_us(50));
}

TEST(Table51, SegmentSizeMatchesThePaper) {
  // Sec. 5.3: packet size 1460 bytes (payload) => 1500 B IP datagrams.
  EXPECT_EQ(kPayloadBytes, 1460u);
  EXPECT_EQ(kSegmentBytes, 1500u);
}

TEST(ExperimentApi, VariantNamesAreStable) {
  EXPECT_STREQ(variant_name(TcpVariant::kMuzha), "Muzha");
  EXPECT_STREQ(variant_name(TcpVariant::kNewReno), "NewReno");
  EXPECT_STREQ(variant_name(TcpVariant::kSack), "SACK");
  EXPECT_STREQ(variant_name(TcpVariant::kVegas), "Vegas");
  EXPECT_STREQ(variant_name(TcpVariant::kReno), "Reno");
  EXPECT_STREQ(variant_name(TcpVariant::kTahoe), "Tahoe");
}

TEST(ExperimentApi, FactoryBuildsEveryVariant) {
  Network net(1);
  build_chain(net, 1);
  net.use_static_routing();
  for (TcpVariant v :
       {TcpVariant::kTahoe, TcpVariant::kReno, TcpVariant::kNewReno,
        TcpVariant::kSack, TcpVariant::kVegas, TcpVariant::kMuzha}) {
    TcpConfig cfg;
    cfg.dst = 1;
    auto agent = make_tcp_agent(v, net.sim(), net.node(0), cfg);
    ASSERT_NE(agent, nullptr) << variant_name(v);
  }
}

TEST(ExperimentApi, MuzhaRoutersEnabledAutomatically) {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.duration = SimTime::from_seconds(5.0);
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 2, SimTime::zero(), 8});
  auto res = run_experiment(cfg);
  // With router assistance on, some DRAI feedback must reach the sender:
  // the window changes beyond its initial value.
  EXPECT_GT(res.flows[0].cwnd_trace.size(), 0u);
}

TEST(ExperimentApi, RoutersOffDegradesMuzhaToBlindAccel) {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.duration = SimTime::from_seconds(5.0);
  cfg.muzha_routers = ExperimentConfig::Routers::kOff;
  cfg.flows.push_back({TcpVariant::kMuzha, 0, 2, SimTime::zero(), 8});
  auto res = run_experiment(cfg);
  // Without routers every ACK echoes MRAI 5: Muzha doubles every RTT until
  // the advertised window cap; it still delivers (the cap saves it).
  EXPECT_GT(res.flows[0].delivered, 50);
}

TEST(ExperimentApi, ThroughputComputedOverFlowLifetime) {
  ExperimentConfig cfg;
  cfg.hops = 1;
  cfg.duration = SimTime::from_seconds(10.0);
  cfg.flows.push_back(
      {TcpVariant::kNewReno, 0, 1, SimTime::from_seconds(5.0), 8});
  auto res = run_experiment(cfg);
  EXPECT_DOUBLE_EQ(res.flows[0].duration.value(), 5.0);
  EXPECT_GT(res.flows[0].throughput, BitsPerSecond(0.0));
}

TEST(ExperimentApi, AggregateHelpers) {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.duration = SimTime::from_seconds(5.0);
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 2, SimTime::zero(), 8});
  cfg.flows.push_back({TcpVariant::kNewReno, 2, 0, SimTime::zero(), 8});
  auto res = run_experiment(cfg);
  auto thr = res.flow_throughputs();
  ASSERT_EQ(thr.size(), 2u);
  EXPECT_DOUBLE_EQ(res.total_throughput().value(), thr[0] + thr[1]);
}

TEST(ExperimentApiDeath, RejectsEmptyFlows) {
  ExperimentConfig cfg;
  EXPECT_DEATH(run_experiment(cfg), "at least one flow");
}

TEST(ExperimentApiDeath, RejectsOutOfRangeEndpoints) {
  ExperimentConfig cfg;
  cfg.hops = 2;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 99, SimTime::zero(), 8});
  EXPECT_DEATH(run_experiment(cfg), "out of range");
}

// run_experiment checks the whole config at entry, before any world is
// built, and names the offending field. One row per rejected field.
TEST(ExperimentApiDeath, RejectsBadConfigNamingTheField) {
  struct Row {
    const char* what;
    void (*spoil)(ExperimentConfig&);
    const char* message;
  };
  const Row rows[] = {
      {"shards", [](ExperimentConfig& c) { c.shards = 2; },
       "ExperimentConfig::shards"},
      {"chain hops", [](ExperimentConfig& c) { c.hops = 0; },
       "ExperimentConfig::hops"},
      {"odd cross hops",
       [](ExperimentConfig& c) {
         c.topology = TopologyKind::kCross;
         c.hops = 3;
       },
       "ExperimentConfig::hops must be even"},
      {"window", [](ExperimentConfig& c) { c.flows[0].window = 0; },
       "FlowSpec::window"},
      {"duration",
       [](ExperimentConfig& c) { c.duration = SimTime::from_seconds(-1.0); },
       "ExperimentConfig::duration"},
      {"error rate NaN",
       [](ExperimentConfig& c) {
         c.uniform_error_rate = std::numeric_limits<double>::quiet_NaN();
       },
       "ExperimentConfig::uniform_error_rate"},
      {"error rate > 1", [](ExperimentConfig& c) { c.uniform_error_rate = 1.5; },
       "ExperimentConfig::uniform_error_rate"},
      {"flow endpoint range", [](ExperimentConfig& c) { c.flows[0].dst = 5; },
       "FlowSpec::src/dst: flow endpoints out of range"},
      {"flow endpoints equal", [](ExperimentConfig& c) { c.flows[0].dst = 0; },
       "FlowSpec::src/dst: flow endpoints must differ"},
      {"CBR endpoint range",
       [](ExperimentConfig& c) {
         c.cbr_flows.emplace_back();
         c.cbr_flows[0].dst = 7;
       },
       "CbrFlowSpec::src/dst: CBR endpoints out of range"},
      {"CBR endpoints equal",
       [](ExperimentConfig& c) { c.cbr_flows.emplace_back(); },
       "CbrFlowSpec::src/dst: CBR endpoints must differ"},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.what);
    ExperimentConfig cfg;
    cfg.hops = 4;  // 5 nodes
    cfg.duration = SimTime::from_seconds(1.0);
    cfg.flows.push_back({TcpVariant::kNewReno, 0, 4, SimTime::zero(), 8});
    row.spoil(cfg);
    EXPECT_DEATH(run_experiment(cfg), row.message);
  }
}

// A sharded run is rejected whatever the topology: a chain, and a mobile
// district city with fewer districts than the shards asked for.
TEST(ShardGuardDeath, RejectsShardedChainTopology) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.flows.push_back({TcpVariant::kNewReno, 0, 4, SimTime::zero(), 8});
  cfg.shards = 2;
  EXPECT_DEATH(run_experiment(cfg), "ExperimentConfig::shards must be 1");
}

TEST(ShardGuardDeath, RejectsMobileFieldWithFewerDistrictsThanShards) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = 120;
  cfg.field.districts = 4;
  cfg.field.district_gap = Meters(1100.0);
  cfg.field.width = Meters(4 * 1000.0 + 3 * 1100.0);
  cfg.field.height = Meters(1000.0);
  cfg.field.mobile = true;
  cfg.duration = SimTime::from_seconds(1.0);
  cfg.flows = make_random_district_flows(4, cfg.field, TcpVariant::kMuzha, 7,
                                         SimTime::zero());
  cfg.shards = 8;
  EXPECT_DEATH(run_experiment(cfg), "ExperimentConfig::shards must be 1");
}

TEST(NetworkApi, StaticRoutingAccessorChecksType) {
  Network net(1);
  build_chain(net, 2);
  net.use_aodv();
  EXPECT_DEATH(net.static_routing(0), "not using static routing");
}

}  // namespace
}  // namespace muzha
