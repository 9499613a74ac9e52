// perfbench: end-to-end and per-layer benchmark of the simulator.
//
// Three workloads (chain, city, lossy; see README.md) run through the public
// API: BatchRunner for the seeded sweeps, run_experiment for the city. The
// untraced mode (--trace 0) times them and prints the end-to-end metrics. The
// traced mode (--trace 1) assembles the same worlds through the public
// builders, installs counting and timing forwarders at every seam a caller
// can fill (Node::set_routing, Node::set_drai_source,
// Channel::set_error_model, Node::set_trace_sink), runs the scheduler in
// slices of simulated time, reads each layer's public counters and prints
// the per-layer metrics. Every result is checked independently of the
// program; the last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
//   perfbench --workload chain|city|lossy --seed N --seconds S --trace 0|1
//   perfbench --short   # every workload at reduced length, checks only
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "app/cbr.h"
#include "core/tcp_muzha.h"
#include "mac/mac_params.h"
#include "net/agent.h"
#include "net/node.h"
#include "net/routing_protocol.h"
#include "net/trace.h"
#include "phy/channel.h"
#include "phy/error_model.h"
#include "phy/phy_params.h"
#include "phy/position.h"
#include "pkt/packet.h"
#include "pkt/packet_arena.h"
#include "relwork/adtcp.h"
#include "routing/aodv.h"
#include "routing/static_routing.h"
#include "scenario/batch_runner.h"
#include "scenario/city.h"
#include "scenario/experiment.h"
#include "scenario/mobility.h"
#include "scenario/network.h"
#include "sim/rng.h"
#include "sim/sim_time.h"
#include "sim/units.h"
#include "stats/time_series.h"
#include "tcp/tcp_agent.h"
#include "tcp/tcp_sink.h"

namespace {

using namespace muzha;
using Clock = std::chrono::steady_clock;

// Timings from sanitized, DCHECK-enabled or unoptimized builds say nothing
// about the simulator's speed; such builds may only run the short checks.
#if defined(MUZHA_SANITIZED) || MUZHA_DCHECK_ENABLED || !defined(__OPTIMIZE__)
constexpr bool kTimingsTrusted = false;
#else
constexpr bool kTimingsTrusted = true;
#endif

double elapsed_s(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::int64_t elapsed_ns(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

struct Workload {
  std::string name;
  // BatchRunner points (their seeds are overwritten by the derivation) or,
  // for the city, the one fully seeded config run through run_experiment.
  std::vector<ExperimentConfig> points;
  std::size_t replications = 1;
  std::uint64_t base_seed = 1;
  bool batch = true;
  int jobs = 2;

  // Every experiment of one round, point-major, with the seeds BatchRunner
  // derives for it.
  std::vector<ExperimentConfig> experiments() const {
    if (!batch) return points;
    std::vector<ExperimentConfig> out;
    for (std::size_t p = 0; p < points.size(); ++p) {
      for (std::size_t r = 0; r < replications; ++r) {
        ExperimentConfig cfg = points[p];
        cfg.seed = derive_run_seed(base_seed, p, r);
        out.push_back(std::move(cfg));
      }
    }
    return out;
  }
};

ExperimentConfig single_flow_chain(TcpVariant v, int hops, SimTime duration) {
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kChain;
  cfg.hops = hops;
  cfg.duration = duration;
  FlowSpec f;
  f.variant = v;
  f.src = 0;
  f.dst = static_cast<std::size_t>(hops);
  cfg.flows = {f};
  return cfg;
}

// Hop distance from `src` to every node over the decode-range graph of
// `pos` (-1: unreachable).
std::vector<int> hop_counts(const std::vector<Position>& pos, std::size_t src,
                            Meters range) {
  std::vector<int> hops(pos.size(), -1);
  std::deque<std::size_t> q{src};
  hops[src] = 0;
  while (!q.empty()) {
    std::size_t u = q.front();
    q.pop_front();
    for (std::size_t v = 0; v < pos.size(); ++v) {
      if (hops[v] < 0 && distance(pos[u], pos[v]) <= range) {
        hops[v] = hops[u] + 1;
        q.push_back(v);
      }
    }
  }
  return hops;
}

// The 1000-node mobile field, cut into a 4 x 4 grid of 1.5 km districts.
// Each district hosts one FTP flow, and every other district also one CBR
// flow, between nodes exactly 3 hops apart in the initial placement
// (recovered with field_positions, exactly as the network will place them),
// with the source near the district centre. Uniformly random pairs in a
// field this sparse are mostly partitioned or share one neighbourhood, and
// their aggregate swings several-fold from seed to seed; spreading equal
// flows over the districts keeps the offered load alike across seeds.
ExperimentConfig make_city(std::uint64_t seed, bool short_mode) {
  constexpr int kGrid = 4;
  constexpr double kSide = 6000.0;
  ExperimentConfig cfg;
  cfg.topology = TopologyKind::kRandomField;
  cfg.field.nodes = 1000;
  cfg.field.width = Meters(kSide);
  cfg.field.height = Meters(kSide);
  cfg.field.mobile = true;
  cfg.duration = SimTime::from_seconds(short_mode ? 2.0 : 10.0);
  cfg.seed = derive_run_seed(seed, 0, 0);
  cfg.shards = 1;

  Rng placement(cfg.seed);
  std::vector<Position> pos =
      field_positions(cfg.topology, cfg.field, placement);
  std::uint64_t state = derive_run_seed(seed, 1, 0);
  auto below = [&state](std::size_t n) {
    state = splitmix64(state);
    return static_cast<std::size_t>(state % n);
  };
  const Meters rx_range = PhyParams{}.rx_range;
  const SimTime start_window = SimTime::from_seconds(2.0);
  // A pair in district d: a source within `reach` of the centre (widened
  // until one has a node exactly 3 hops away) and one such destination.
  auto pick_pair = [&](int d) {
    double step = kSide / kGrid;
    Position centre{(d % kGrid + 0.5) * step, (d / kGrid + 0.5) * step};
    for (double reach = 250.0; reach <= 2.0 * kSide; reach += 250.0) {
      std::vector<std::size_t> near;
      for (std::size_t v = 0; v < pos.size(); ++v) {
        if (distance(pos[v], centre) <= Meters(reach)) near.push_back(v);
      }
      while (!near.empty()) {
        std::size_t k = below(near.size());
        std::size_t src = near[k];
        std::vector<int> hops = hop_counts(pos, src, rx_range);
        std::vector<std::size_t> dsts;
        for (std::size_t v = 0; v < pos.size(); ++v) {
          if (hops[v] == 3) dsts.push_back(v);
        }
        if (!dsts.empty()) return std::make_pair(src, dsts[below(dsts.size())]);
        near.erase(near.begin() + static_cast<std::ptrdiff_t>(k));
      }
    }
    std::fprintf(stderr, "perfbench: no node pair 3 hops apart in the city\n");
    std::exit(2);
  };
  auto start = [&] {
    return SimTime::from_ns(static_cast<std::int64_t>(
        below(static_cast<std::size_t>(start_window.ns()))));
  };
  for (int d = 0; d < kGrid * kGrid; ++d) {
    auto [src, dst] = pick_pair(d);
    FlowSpec f;
    f.variant = TcpVariant::kMuzha;
    f.src = src;
    f.dst = dst;
    f.start_time = start();
    cfg.flows.push_back(f);
    if ((d + d / kGrid) % 2 != 0) continue;  // checkerboard of CBR districts
    auto [csrc, cdst] = pick_pair(d);
    CbrFlowSpec c;
    c.src = csrc;
    c.dst = cdst;
    c.start_time = start();
    cfg.cbr_flows.push_back(c);
  }
  return cfg;
}

// `short_mode` keeps every layer and check but cuts the simulated length.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool short_mode) {
  Workload w;
  w.name = name;
  w.base_seed = seed;
  const TcpVariant kVariants[] = {TcpVariant::kMuzha, TcpVariant::kNewReno};
  if (name == "chain") {
    SimTime d = SimTime::from_seconds(short_mode ? 10.0 : 50.0);
    w.replications = short_mode ? 1 : 4;
    for (int hops : {4, 8, 16}) {
      for (TcpVariant v : kVariants) {
        w.points.push_back(single_flow_chain(v, hops, d));
      }
    }
  } else if (name == "lossy") {
    SimTime d = SimTime::from_seconds(short_mode ? 10.0 : 50.0);
    w.replications = short_mode ? 1 : 4;
    for (double loss : {0.03, 0.10}) {
      for (TcpVariant v : kVariants) {
        ExperimentConfig cfg = single_flow_chain(v, 8, d);
        cfg.static_routing = true;
        cfg.uniform_error_rate = loss;
        w.points.push_back(cfg);
      }
    }
  } else if (name == "city") {
    w.points = {make_city(seed, short_mode)};
    w.batch = false;
    w.jobs = 1;
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", name.c_str());
    std::exit(2);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Tracing: forwarding wrappers at the four installable seams
// ---------------------------------------------------------------------------

struct SeamStats {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;  // span time minus nested seams' spans
};

// Per-world tracing state. A world runs on one thread, so no locking.
struct Probe {
  SeamStats routing, drai, error, trace;
  // Total time of finished spans directly inside the innermost open span;
  // at top level, the run loop's time spent inside any seam.
  std::int64_t open_child_ns = 0;
  std::uint64_t drai_out_of_range = 0;
  std::array<std::uint64_t, 7> trace_kinds{};  // by TraceEventKind
};

// Times one seam call. Nested spans (routing -> device_send -> DRAI stamp
// -> PHY -> error model) are charged to the innermost seam only.
class Span {
 public:
  Span(Probe& p, SeamStats& s)
      : p_(p), s_(s), saved_(p.open_child_ns), t0_(Clock::now()) {
    p_.open_child_ns = 0;
    ++s_.calls;
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    std::int64_t total = elapsed_ns(t0_);
    s_.self_ns += total - p_.open_child_ns;
    p_.open_child_ns = saved_ + total;
  }

 private:
  Probe& p_;
  SeamStats& s_;
  std::int64_t saved_;
  Clock::time_point t0_;
};

class RoutingProbe final : public RoutingProtocol {
 public:
  RoutingProbe(std::unique_ptr<RoutingProtocol> inner, Probe& p)
      : inner_(std::move(inner)), p_(p) {}
  void route_packet(PacketPtr pkt) override {
    Span s(p_, p_.routing);
    inner_->route_packet(std::move(pkt));
  }
  void handle_control(PacketPtr pkt) override {
    Span s(p_, p_.routing);
    inner_->handle_control(std::move(pkt));
  }
  void on_link_failure(NodeId next_hop, PacketPtr pkt) override {
    Span s(p_, p_.routing);
    inner_->on_link_failure(next_hop, std::move(pkt));
  }
  std::uint64_t drops_no_route() const override {
    return inner_->drops_no_route();
  }
  const RoutingProtocol& inner() const { return *inner_; }

 private:
  std::unique_ptr<RoutingProtocol> inner_;
  Probe& p_;
};

class DraiProbe final : public DraiSource {
 public:
  DraiProbe(DraiSource& inner, Probe& p) : inner_(inner), p_(p) {}
  std::uint8_t current_drai() override {
    Span s(p_, p_.drai);
    std::uint8_t d = inner_.current_drai();
    if (d < kDraiAggressiveDecel || d > kDraiAggressiveAccel) {
      ++p_.drai_out_of_range;
    }
    return d;
  }
  bool should_mark() override {
    Span s(p_, p_.drai);
    return inner_.should_mark();
  }

 private:
  DraiSource& inner_;
  Probe& p_;
};

// Forwards to the configured model, or answers "intact" without touching
// the RNG exactly as the channel's default NoErrorModel does.
class ErrorProbe final : public ErrorModel {
 public:
  ErrorProbe(std::unique_ptr<ErrorModel> inner, Probe& p)
      : inner_(std::move(inner)), p_(p) {}
  bool should_corrupt(const Packet& pkt, Meters dist, SimTime now,
                      Rng& rng) override {
    Span s(p_, p_.error);
    return inner_ != nullptr && inner_->should_corrupt(pkt, dist, now, rng);
  }

 private:
  std::unique_ptr<ErrorModel> inner_;
  Probe& p_;
};

class TraceProbe final : public TraceSink {
 public:
  explicit TraceProbe(Probe& p) : p_(p) {}
  void on_event(const TraceEvent& ev) override {
    Span s(p_, p_.trace);
    ++p_.trace_kinds[static_cast<std::size_t>(ev.kind)];
  }

 private:
  Probe& p_;
};

// ---------------------------------------------------------------------------
// World: run_experiment's assembly, step for step, through the public
// builders, with the probes installed when tracing.
// ---------------------------------------------------------------------------

// BFS next hops over the decode-range graph, as run_experiment installs them
// for static routing.
void install_static_routes(Network& net) {
  const std::size_t n = net.size();
  Meters rx_range = net.channel().params().rx_range;
  std::vector<std::vector<std::size_t>> adj(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (distance(net.node(i).device().phy().position(),
                   net.node(j).device().phy().position()) <= rx_range) {
        adj[i].push_back(j);
        adj[j].push_back(i);
      }
    }
  }
  for (std::size_t dst = 0; dst < n; ++dst) {
    std::vector<std::size_t> next(n, SIZE_MAX);
    std::vector<bool> seen(n, false);
    std::deque<std::size_t> q{dst};
    seen[dst] = true;
    while (!q.empty()) {
      std::size_t u = q.front();
      q.pop_front();
      for (std::size_t v : adj[u]) {
        if (seen[v]) continue;
        seen[v] = true;
        next[v] = u;
        q.push_back(v);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (i == dst || next[i] == SIZE_MAX) continue;
      net.static_routing(i).add_route(net.node(dst).id(),
                                      net.node(next[i]).id());
    }
  }
}

// Deterministic per-experiment counts read from the layers after a traced
// run. Two runs of one config must agree on every entry.
enum Count : std::size_t {
  kEvents,
  kPendingPeak,
  kArenaSlots,
  kFramesTx,
  kRxDecodable,
  kRxOk,
  kCollisions,
  kDataFrames,
  kRts,
  kMacRetries,
  kRetryDrops,
  kForwarded,
  kIfqDrops,
  kIfqPeak,
  kRoutingCalls,
  kRreq,
  kRerr,
  kNoRouteDrops,
  kDraiQueries,
  kMarkedLosses,
  kUnmarkedLosses,
  kRateAdjustments,
  kSegmentsSent,
  kRetransmissions,
  kTimeouts,
  kAcksSent,
  kCbrPackets,
  kNumCounts
};
// Counts that aggregate over a round by maximum, not by sum.
bool is_peak(std::size_t c) {
  return c == kPendingPeak || c == kArenaSlots || c == kIfqPeak;
}

struct Timings {
  std::int64_t build_ns = 0;
  std::int64_t run_ns = 0;      // sum of the run_until slices
  std::int64_t seams_ns = 0;    // run-loop time inside any seam
  std::int64_t routing_ns = 0;  // self times
  std::int64_t drai_ns = 0;
};

struct Traced {
  ExperimentResult result;
  std::array<std::uint64_t, kNumCounts> counts{};
  Timings t;
  std::vector<std::string> faults;  // trace-side check failures
};

class World {
 public:
  // Builds the world; with `probe` the seams are wrapped.
  World(const ExperimentConfig& cfg, Probe* probe)
      : cfg_(cfg),
        probe_(probe),
        net_(cfg.seed, {}, {},
             cfg.brute_force_channel ? ChannelMode::kBruteForce
                                     : ChannelMode::kSpatialIndex) {
    build_topology();
    build_routing();
    build_routers();
    build_error_model();
    if (probe_ != nullptr) {
      trace_ = std::make_unique<TraceProbe>(*probe_);
      for (std::size_t i = 0; i < net_.size(); ++i) {
        net_.node(i).set_trace_sink(trace_.get());
      }
    }
    build_flows();
  }
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  // Runs to the configured duration in `slice`-long steps of simulated
  // time, sampling the scheduler between steps.
  void run_sliced(SimTime slice, Traced& out) {
    Scheduler& s = net_.sim().scheduler();
    std::uint64_t peak = s.pending_events();
    for (SimTime t = std::min(slice, cfg_.duration);;
         t = std::min(t + slice, cfg_.duration)) {
      Clock::time_point t0 = Clock::now();
      net_.run_until(t);
      out.t.run_ns += elapsed_ns(t0);
      peak = std::max<std::uint64_t>(peak, s.pending_events());
      if (t == cfg_.duration) break;
    }
    out.counts[kPendingPeak] = peak;
  }

  // run_experiment's result collection.
  ExperimentResult collect() {
    ExperimentResult result;
    for (std::size_t i = 0; i < cfg_.flows.size(); ++i) {
      const FlowSpec& f = cfg_.flows[i];
      FlowInstance& inst = instances_[i];
      FlowResult r;
      r.variant = f.variant;
      r.delivered = inst.sink->delivered();
      r.duration = Seconds((cfg_.duration - f.start_time).to_seconds());
      r.throughput = r.duration > Seconds(0.0)
                         ? Bits(static_cast<std::int64_t>(r.delivered) *
                                kPayloadBytes * 8) /
                               r.duration
                         : BitsPerSecond(0.0);
      r.packets_sent = inst.agent->packets_sent();
      r.retransmissions = inst.agent->retransmissions();
      r.timeouts = inst.agent->timeouts();
      r.cwnd_trace = inst.cwnd.series();
      r.throughput_series = inst.sampler->series();
      if (auto* m = dynamic_cast<TcpMuzha*>(inst.agent.get())) {
        r.marked_loss_events = m->marked_loss_events();
        r.unmarked_loss_events = m->unmarked_loss_events();
      }
      result.flows.push_back(std::move(r));
    }
    for (std::size_t i = 0; i < net_.size(); ++i) {
      result.ifq_drops += net_.node(i).device().queue().drops();
      result.mac_retry_drops += net_.node(i).device().mac().drops_retry_limit();
      result.phy_collisions += net_.node(i).device().phy().collisions();
    }
    result.channel_error_losses = net_.channel().frames_corrupted_by_error();
    for (const auto& app : cbr_apps_) {
      result.cbr_packets_sent += app->packets_sent();
    }
    return result;
  }

  // Every layer's public counters plus the probes' call counts.
  void read_counts(Traced& out) {
    auto& c = out.counts;
    c[kEvents] = net_.sim().scheduler().events_executed();
    c[kArenaSlots] = PacketArena::local().capacity();
    c[kFramesTx] = net_.channel().frames_transmitted();
    c[kRxDecodable] = probe_->error.calls;
    for (std::size_t i = 0; i < net_.size(); ++i) {
      Node& n = net_.node(i);
      const WirelessDevice& d = n.device();
      c[kRxOk] += d.phy().frames_received_ok();
      c[kCollisions] += d.phy().collisions();
      c[kDataFrames] += d.mac().data_frames_sent();
      c[kRts] += d.mac().rts_sent();
      c[kMacRetries] += d.mac().retries();
      c[kRetryDrops] += d.mac().drops_retry_limit();
      c[kForwarded] += n.forwarded();
      c[kIfqDrops] += d.queue().drops();
      c[kIfqPeak] = std::max<std::uint64_t>(c[kIfqPeak],
                                            d.queue().high_watermark());
      c[kNoRouteDrops] += n.routing().drops_no_route();
      if (auto* rp = dynamic_cast<RoutingProbe*>(&n.routing())) {
        if (auto* a = dynamic_cast<const Aodv*>(&rp->inner())) {
          c[kRreq] += a->rreqs_originated();
          c[kRerr] += a->rerrs_sent();
        }
      }
    }
    c[kRoutingCalls] = probe_->routing.calls;
    c[kDraiQueries] = probe_->drai.calls;
    for (FlowInstance& inst : instances_) {
      c[kSegmentsSent] += inst.agent->packets_sent();
      c[kRetransmissions] += inst.agent->retransmissions();
      c[kTimeouts] += inst.agent->timeouts();
      c[kAcksSent] += inst.sink->acks_sent();
      if (auto* m = dynamic_cast<TcpMuzha*>(inst.agent.get())) {
        c[kMarkedLosses] += m->marked_loss_events();
        c[kUnmarkedLosses] += m->unmarked_loss_events();
        c[kRateAdjustments] += m->rate_adjustments();
      }
    }
    for (const auto& app : cbr_apps_) c[kCbrPackets] += app->packets_sent();
  }

 private:
  struct FlowInstance {
    std::unique_ptr<TcpAgent> agent;
    std::unique_ptr<TcpSink> sink;
    CwndTracer cwnd;
    std::unique_ptr<ThroughputSampler> sampler;
  };

  bool is_field() const {
    return cfg_.topology == TopologyKind::kRandomField ||
           cfg_.topology == TopologyKind::kManhattanGrid;
  }

  void build_topology() {
    switch (cfg_.topology) {
      case TopologyKind::kChain:
        build_chain(net_, cfg_.hops);
        break;
      case TopologyKind::kCross:
        build_cross(net_, cfg_.hops);
        break;
      case TopologyKind::kRandomField:
        build_random_field(net_, cfg_.field);
        break;
      case TopologyKind::kManhattanGrid:
        build_manhattan_field(net_, cfg_.field);
        break;
    }
    if (!is_field() || !cfg_.field.mobile) return;
    mobility_.reserve(net_.size());
    for (std::size_t i = 0; i < net_.size(); ++i) {
      Rect r = district_rect(cfg_.field, district_of(cfg_.field, i));
      RandomWaypointMobility::Config mc;
      mc.min_x = r.x0;
      mc.max_x = r.x1;
      mc.min_y = r.y0;
      mc.max_y = r.y1;
      mc.min_speed = cfg_.field.min_speed;
      mc.max_speed = cfg_.field.max_speed;
      mc.pause = cfg_.field.pause;
      mc.tick = cfg_.field.mobility_tick;
      mobility_.push_back(std::make_unique<RandomWaypointMobility>(
          net_.sim(), net_.node(i), mc));
      mobility_.back()->start();
    }
  }

  // Static tables bypass the routing layer: only AODV is wrapped.
  void build_routing() {
    if (cfg_.static_routing) {
      net_.use_static_routing();
      install_static_routes(net_);
    } else if (probe_ == nullptr) {
      net_.use_aodv();
    } else {
      for (std::size_t i = 0; i < net_.size(); ++i) {
        Node& n = net_.node(i);
        n.set_routing(std::make_unique<RoutingProbe>(
            std::make_unique<Aodv>(net_.sim(), n), *probe_));
      }
    }
  }

  void build_routers() {
    bool any_router_assisted = false;
    bool any_ecn = false;
    for (const FlowSpec& f : cfg_.flows) {
      if (f.variant == TcpVariant::kMuzha || f.variant == TcpVariant::kJersey) {
        any_router_assisted = true;
      }
      if (f.variant == TcpVariant::kNewRenoEcn) any_ecn = true;
    }
    bool routers_on =
        cfg_.muzha_routers == ExperimentConfig::Routers::kOn ||
        (cfg_.muzha_routers == ExperimentConfig::Routers::kAuto &&
         any_router_assisted);
    if (routers_on) {
      net_.enable_muzha_routers(cfg_.drai);
    } else if (any_ecn) {
      net_.enable_red_ecn_routers(cfg_.red);
    }
    if (probe_ == nullptr) return;
    for (std::size_t i = 0; i < net_.size(); ++i) {
      Node& n = net_.node(i);
      if (n.drai_source() == nullptr) continue;
      drai_probes_.push_back(
          std::make_unique<DraiProbe>(*n.drai_source(), *probe_));
      n.set_drai_source(drai_probes_.back().get());
    }
  }

  void build_error_model() {
    std::unique_ptr<ErrorModel> em;
    if (cfg_.uniform_error_rate > 0.0) {
      em = std::make_unique<UniformErrorModel>(
          Probability(cfg_.uniform_error_rate));
    }
    if (probe_ != nullptr) {
      em = std::make_unique<ErrorProbe>(std::move(em), *probe_);
    }
    if (em != nullptr) net_.set_error_model(std::move(em));
  }

  void build_flows() {
    instances_.reserve(cfg_.flows.size());
    for (std::size_t i = 0; i < cfg_.flows.size(); ++i) {
      const FlowSpec& f = cfg_.flows[i];
      FlowInstance inst;
      TcpConfig tc;
      tc.dst = net_.node(f.dst).id();
      tc.src_port = static_cast<std::uint16_t>(1000 + i);
      tc.dst_port = static_cast<std::uint16_t>(2000 + i);
      tc.flow = static_cast<FlowId>(i);
      tc.packet_size = Bytes(kSegmentBytes);
      tc.window = f.window;
      inst.agent = make_tcp_agent(f.variant, net_.sim(), net_.node(f.src), tc);
      if (auto* m = dynamic_cast<TcpMuzha*>(inst.agent.get())) {
        m->set_loss_discrimination(cfg_.muzha_loss_discrimination);
      }
      TcpSink::Config sc;
      sc.port = tc.dst_port;
      if (f.variant == TcpVariant::kAdtcp) {
        inst.sink =
            std::make_unique<AdtcpSink>(net_.sim(), net_.node(f.dst), sc);
      } else {
        inst.sink = std::make_unique<TcpSink>(net_.sim(), net_.node(f.dst), sc);
      }
      inst.sink->start();
      inst.sampler = std::make_unique<ThroughputSampler>(cfg_.throughput_bin,
                                                         kPayloadBytes);
      inst.sampler->attach(*inst.sink);
      TcpAgent* agent = inst.agent.get();
      net_.sim().schedule_at(f.start_time, [agent] { agent->start(); });
      instances_.push_back(std::move(inst));
      instances_.back().cwnd.attach(*instances_.back().agent);
    }
    cbr_apps_.reserve(cfg_.cbr_flows.size());
    for (const CbrFlowSpec& c : cfg_.cbr_flows) {
      CbrApp::Config cc;
      cc.dst = net_.node(c.dst).id();
      cc.packet_size_bytes = c.packet_size_bytes;
      cc.rate = c.rate;
      cc.start_time = c.start_time;
      cbr_apps_.push_back(
          std::make_unique<CbrApp>(net_.sim(), net_.node(c.src), cc));
      cbr_apps_.back()->install();
    }
  }

  const ExperimentConfig& cfg_;
  Probe* probe_;
  // The probes the nodes point at outlive the network (declared first).
  std::vector<std::unique_ptr<DraiProbe>> drai_probes_;
  std::unique_ptr<TraceProbe> trace_;
  Network net_;
  std::vector<std::unique_ptr<RandomWaypointMobility>> mobility_;
  std::vector<FlowInstance> instances_;
  std::vector<std::unique_ptr<CbrApp>> cbr_apps_;
};

constexpr SimTime kSlice = SimTime::from_ms(100);

// Builds, runs and tears down one traced world on the calling thread.
Traced run_traced(const ExperimentConfig& cfg) {
  Traced out;
  PacketArena& arena = PacketArena::local();
  // Start every world from an empty arena so its capacity is this world's.
  if (arena.outstanding() == 0) arena.trim();
  Probe probe;
  {
    Clock::time_point t0 = Clock::now();
    World w(cfg, &probe);
    out.t.build_ns = elapsed_ns(t0);
    w.run_sliced(kSlice, out);
    out.t.seams_ns = probe.open_child_ns;
    out.t.routing_ns = probe.routing.self_ns;
    out.t.drai_ns = probe.drai.self_ns;
    out.result = w.collect();
    w.read_counts(out);
    if (probe.drai_out_of_range != 0) {
      out.faults.push_back("DRAI outside 1..5 returned " +
                           std::to_string(probe.drai_out_of_range) + " times");
    }
    std::uint64_t trace_fwd = probe.trace_kinds[static_cast<std::size_t>(
        TraceEventKind::kForward)];
    if (trace_fwd != out.counts[kForwarded]) {
      out.faults.push_back("trace saw " + std::to_string(trace_fwd) +
                           " forwards, nodes counted " +
                           std::to_string(out.counts[kForwarded]));
    }
  }
  if (arena.outstanding() != 0) {
    out.faults.push_back(std::to_string(arena.outstanding()) +
                         " packets outstanding after teardown");
  }
  return out;
}

// Runs `fn(i)` for i in [0, n) on `jobs` threads; rethrows the first
// exception after every thread has joined.
template <typename Fn>
void parallel_for(std::size_t n, int jobs, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::atomic<bool> failed{false};
  auto worker = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) {
      try {
        fn(i);
      } catch (...) {
        if (!failed.exchange(true)) error = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  for (int j = 1; j < jobs; ++j) pool.emplace_back(worker);
  worker();
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

// ---------------------------------------------------------------------------
// Rounds and checks
// ---------------------------------------------------------------------------

std::vector<ExperimentResult> run_untraced_round(const Workload& w) {
  if (!w.batch) return {run_experiment(w.points.front())};
  BatchOptions opts;
  opts.jobs = w.jobs;
  opts.replications = w.replications;
  opts.base_seed = w.base_seed;
  BatchRunner runner(opts);
  for (const ExperimentConfig& p : w.points) runner.add_point(p);
  std::vector<ExperimentResult> flat;
  for (auto& point : runner.run()) {
    for (ExperimentResult& r : point) flat.push_back(std::move(r));
  }
  return flat;
}

std::vector<Traced> run_traced_round(const std::vector<ExperimentConfig>& exps,
                                     int jobs) {
  std::vector<Traced> out(exps.size());
  parallel_for(exps.size(), jobs,
               [&](std::size_t i) { out[i] = run_traced(exps[i]); });
  return out;
}

bool series_equal(const TimeSeries& a, const TimeSeries& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].t != b[i].t || a[i].value != b[i].value) return false;
  }
  return true;
}

// Field-by-field, bitwise equality; returns the first differing field.
std::string result_diff(const ExperimentResult& a, const ExperimentResult& b) {
  if (a.flows.size() != b.flows.size()) return "flow count";
  for (std::size_t i = 0; i < a.flows.size(); ++i) {
    const FlowResult& x = a.flows[i];
    const FlowResult& y = b.flows[i];
    std::string f = "flow " + std::to_string(i) + " ";
    if (x.variant != y.variant) return f + "variant";
    if (x.delivered != y.delivered) return f + "delivered";
    if (x.duration != y.duration) return f + "duration";
    if (x.throughput != y.throughput) return f + "throughput";
    if (x.packets_sent != y.packets_sent) return f + "packets_sent";
    if (x.retransmissions != y.retransmissions) return f + "retransmissions";
    if (x.timeouts != y.timeouts) return f + "timeouts";
    if (x.marked_loss_events != y.marked_loss_events) return f + "marked";
    if (x.unmarked_loss_events != y.unmarked_loss_events) {
      return f + "unmarked";
    }
    if (!series_equal(x.cwnd_trace, y.cwnd_trace)) return f + "cwnd_trace";
    if (!series_equal(x.throughput_series, y.throughput_series)) {
      return f + "throughput_series";
    }
  }
  if (a.ifq_drops != b.ifq_drops) return "ifq_drops";
  if (a.mac_retry_drops != b.mac_retry_drops) return "mac_retry_drops";
  if (a.phy_collisions != b.phy_collisions) return "phy_collisions";
  if (a.channel_error_losses != b.channel_error_losses) {
    return "channel_error_losses";
  }
  if (a.cbr_packets_sent != b.cbr_packets_sent) return "cbr_packets_sent";
  return "";
}

// One 802.11 RTS/CTS/DATA/ACK exchange of a full segment with its
// interframe spaces and no backoff: the fastest a single hop can carry
// payload. Computed here from the parameter structs, not from the MAC.
double saturation_bps() {
  PhyParams phy;
  MacParams mac;
  auto air_s = [&](std::uint32_t bytes, BitsPerSecond rate) {
    return phy.plcp_overhead.to_seconds() + bytes * 8.0 / rate.value();
  };
  double exchange_s = mac.difs.to_seconds() +
                      air_s(kMacRtsBytes, phy.basic_rate) +
                      mac.sifs.to_seconds() +
                      air_s(kMacCtsBytes, phy.basic_rate) +
                      mac.sifs.to_seconds() +
                      air_s(kSegmentBytes + kMacDataOverheadBytes,
                            phy.data_rate) +
                      mac.sifs.to_seconds() +
                      air_s(kMacAckBytes, phy.basic_rate);
  return kPayloadBytes * 8.0 / exchange_s;
}

// Output checks on one experiment's result, independent of the program's
// own bookkeeping. Returns the failures.
std::vector<std::string> check_result(const ExperimentConfig& cfg,
                                      const ExperimentResult& r) {
  std::vector<std::string> bad;
  if (r.flows.size() != cfg.flows.size()) {
    bad.push_back("flow count");
    return bad;
  }
  for (std::size_t i = 0; i < r.flows.size(); ++i) {
    const FlowResult& f = r.flows[i];
    std::string id = "flow " + std::to_string(i) + ": ";
    double dur_s = (cfg.duration - cfg.flows[i].start_time).to_seconds();
    double expect_bps = static_cast<double>(f.delivered) * 1460.0 * 8.0 / dur_s;
    if (std::fabs(expect_bps - f.throughput.value()) >
        1e-9 * std::max(1.0, expect_bps)) {
      bad.push_back(id + "goodput " + std::to_string(f.throughput.value()) +
                    " != delivered x 1460 B x 8 / duration = " +
                    std::to_string(expect_bps));
    }
    std::uint64_t distinct_sent = f.packets_sent - f.retransmissions;
    if (f.delivered < 0 ||
        static_cast<std::uint64_t>(f.delivered) > distinct_sent) {
      bad.push_back(id + "delivered " + std::to_string(f.delivered) +
                    " > distinct segments sent " +
                    std::to_string(distinct_sent));
    }
    if (cfg.topology == TopologyKind::kChain && cfg.flows.size() == 1) {
      double cap = saturation_bps() / std::min(cfg.hops, 3);
      if (!(f.throughput.value() < cap)) {
        bad.push_back(id + "goodput " + std::to_string(f.throughput.value()) +
                      " bit/s not below the 802.11 chain bound " +
                      std::to_string(cap));
      }
    }
  }
  return bad;
}

double total_sim_s(const std::vector<ExperimentConfig>& exps) {
  double s = 0.0;
  for (const ExperimentConfig& c : exps) s += c.duration.to_seconds();
  return s;
}

// Peak resident set of this process image. getrusage's ru_maxrss is not
// used: it carries over the RSS of the process that exec'd this one.
double peak_rss_mib() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  }
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

// Tallies experiments and their failures; a failing experiment is reported
// once on stderr with its first fault.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void record(const std::string& where, const std::vector<std::string>& bad) {
    ++attempted;
    if (bad.empty()) return;
    ++failed;
    std::fprintf(stderr, "perfbench: FAIL %s: %s\n", where.c_str(),
                 bad.front().c_str());
  }
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void print_report(const Ledger& l, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              l.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(l.attempted),
              static_cast<unsigned long long>(l.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
}

// ---------------------------------------------------------------------------
// Modes
// ---------------------------------------------------------------------------

// Wall time from config to worlds ready for their first event, summed over
// the workload's experiments, for each of `reps` repeated builds.
void sample_setup_s(const std::vector<ExperimentConfig>& exps, int reps,
                    std::vector<double>& samples) {
  for (int k = 0; k < reps; ++k) {
    double sum = 0.0;
    for (const ExperimentConfig& cfg : exps) {
      Clock::time_point t0 = Clock::now();
      World w(cfg, nullptr);
      sum += elapsed_s(t0);
    }
    samples.push_back(sum);
  }
}

// Set-up builds run between the timed rounds, so their samples span the
// same stretch of wall time as the rounds and share its background load.
constexpr int kSetupRepsPerRound = 10;

void run_untraced_mode(const Workload& w, double seconds, Ledger& ledger) {
  const std::vector<ExperimentConfig> exps = w.experiments();
  std::vector<ExperimentResult> first;
  std::vector<double> exp_rates, sim_rates, setup_s;
  Clock::time_point start = Clock::now();
  do {
    Clock::time_point t0 = Clock::now();
    std::vector<ExperimentResult> results = run_untraced_round(w);
    double wall = elapsed_s(t0);
    exp_rates.push_back(static_cast<double>(exps.size()) / wall);
    sim_rates.push_back(total_sim_s(exps) / wall);
    for (std::size_t i = 0; i < exps.size(); ++i) {
      std::vector<std::string> bad = check_result(exps[i], results[i]);
      if (!first.empty()) {
        std::string d = result_diff(first[i], results[i]);
        if (!d.empty()) bad.push_back("rerun differs in " + d);
      }
      ledger.record(w.name + " experiment " + std::to_string(i), bad);
    }
    if (first.empty()) first = std::move(results);
    sample_setup_s(exps, kSetupRepsPerRound, setup_s);
  } while (elapsed_s(start) < seconds);

  double goodput_bps = 0.0;
  for (const ExperimentResult& r : first) {
    goodput_bps += r.total_throughput().value();
  }
  goodput_bps /= static_cast<double>(first.size());

  std::fprintf(stderr, "perfbench: %s: %zu rounds of %zu experiments\n",
               w.name.c_str(), exp_rates.size(), exps.size());
  print_report(ledger, {{"setup_s", median(setup_s), "s"},
                        {"experiments_per_s", median(exp_rates), "1/s"},
                        {"sim_s_per_wall_s", median(sim_rates), "s/s"},
                        {"peak_rss_mb", peak_rss_mib(), "MiB"},
                        {"goodput_kbps", goodput_bps / 1000.0, "kbit/s"}});
}

// Round-level sums of the traced counters (maxima for the peak counters).
std::array<std::uint64_t, kNumCounts> round_counts(
    const std::vector<Traced>& round) {
  std::array<std::uint64_t, kNumCounts> c{};
  for (const Traced& t : round) {
    for (std::size_t k = 0; k < kNumCounts; ++k) {
      c[k] = is_peak(k) ? std::max(c[k], t.counts[k]) : c[k] + t.counts[k];
    }
  }
  return c;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

// Checks a traced round against the untraced results and the first traced
// round, recording one ledger entry per experiment.
void check_traced_round(const Workload& w, const std::string& label,
                        const std::vector<ExperimentConfig>& exps,
                        const std::vector<ExperimentResult>& untraced,
                        const std::vector<Traced>& round,
                        const std::vector<Traced>* reference, Ledger& ledger) {
  for (std::size_t i = 0; i < exps.size(); ++i) {
    std::vector<std::string> bad = check_result(exps[i], round[i].result);
    bad.insert(bad.end(), round[i].faults.begin(), round[i].faults.end());
    std::string d = result_diff(untraced[i], round[i].result);
    if (!d.empty()) bad.push_back("traced result differs in " + d);
    if (reference != nullptr && (*reference)[i].counts != round[i].counts) {
      bad.push_back("per-layer counts differ from the first traced round");
    }
    ledger.record(w.name + " " + label + " experiment " + std::to_string(i),
                  bad);
  }
}

void run_traced_mode(const Workload& w, double seconds, Ledger& ledger) {
  const std::vector<ExperimentConfig> exps = w.experiments();
  std::vector<ExperimentResult> untraced;
  std::vector<Traced> first;
  std::vector<double> overheads;
  std::vector<double> build_s, run_s, routing_s, drai_s, unattributed_s;
  Clock::time_point start = Clock::now();
  do {
    Clock::time_point t0 = Clock::now();
    std::vector<ExperimentResult> u = run_untraced_round(w);
    double untraced_wall = elapsed_s(t0);
    if (untraced.empty()) untraced = std::move(u);

    t0 = Clock::now();
    std::vector<Traced> round = run_traced_round(exps, w.jobs);
    overheads.push_back(elapsed_s(t0) / untraced_wall);
    check_traced_round(w, "traced", exps, untraced, round,
                       first.empty() ? nullptr : &first, ledger);
    Timings sum;
    for (const Traced& t : round) {
      sum.build_ns += t.t.build_ns;
      sum.run_ns += t.t.run_ns;
      sum.seams_ns += t.t.seams_ns;
      sum.routing_ns += t.t.routing_ns;
      sum.drai_ns += t.t.drai_ns;
    }
    build_s.push_back(sum.build_ns * 1e-9);
    run_s.push_back(sum.run_ns * 1e-9);
    routing_s.push_back(sum.routing_ns * 1e-9);
    drai_s.push_back(sum.drai_ns * 1e-9);
    unattributed_s.push_back((sum.run_ns - sum.seams_ns) * 1e-9);
    if (first.empty()) first = std::move(round);
  } while (elapsed_s(start) < seconds);

  // Counts must not depend on how many workers share the experiments.
  if (w.jobs > 1) {
    std::vector<Traced> serial = run_traced_round(exps, 1);
    check_traced_round(w, "traced 1-worker", exps, untraced, serial, &first,
                       ledger);
  }

  const auto c = round_counts(first);
  std::fprintf(stderr, "perfbench: %s: %zu traced rounds of %zu experiments\n",
               w.name.c_str(), overheads.size(), exps.size());
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  double run_med = median(run_s);
  print_report(
      ledger,
      {{"scenario.build_s", median(build_s), "s"},
       {"sim.events", n(c[kEvents]), "count"},
       {"sim.ns_per_event", run_med * 1e9 / std::max(1.0, n(c[kEvents])),
        "ns"},
       {"sim.pending_peak", n(c[kPendingPeak]), "count"},
       {"sim.unattributed_s", median(unattributed_s), "s"},
       {"pkt.arena_slots", n(c[kArenaSlots]), "count"},
       {"phy.frames_tx", n(c[kFramesTx]), "count"},
       {"phy.rx_decodable", n(c[kRxDecodable]), "count"},
       {"phy.fanout", ratio(c[kRxDecodable], c[kFramesTx]), "ratio"},
       {"phy.rx_ok_ratio", ratio(c[kRxOk], c[kRxDecodable]), "ratio"},
       {"phy.collisions", n(c[kCollisions]), "count"},
       {"mac.data_frames", n(c[kDataFrames]), "count"},
       {"mac.rts", n(c[kRts]), "count"},
       {"mac.retries", n(c[kMacRetries]), "count"},
       {"mac.retry_ratio", ratio(c[kMacRetries], c[kDataFrames]), "ratio"},
       {"mac.retry_drops", n(c[kRetryDrops]), "count"},
       {"net.forwarded", n(c[kForwarded]), "count"},
       {"net.ifq_drops", n(c[kIfqDrops]), "count"},
       {"net.ifq_peak", n(c[kIfqPeak]), "count"},
       {"routing.calls", n(c[kRoutingCalls]), "count"},
       {"routing.busy_s", median(routing_s), "s"},
       {"routing.rreq", n(c[kRreq]), "count"},
       {"routing.rerr", n(c[kRerr]), "count"},
       {"routing.no_route_drops", n(c[kNoRouteDrops]), "count"},
       {"core.drai_queries", n(c[kDraiQueries]), "count"},
       {"core.drai_busy_s", median(drai_s), "s"},
       {"core.marked_losses", n(c[kMarkedLosses]), "count"},
       {"core.unmarked_losses", n(c[kUnmarkedLosses]), "count"},
       {"core.rate_adjustments", n(c[kRateAdjustments]), "count"},
       {"tcp.segments_sent", n(c[kSegmentsSent]), "count"},
       {"tcp.retransmissions", n(c[kRetransmissions]), "count"},
       {"tcp.timeouts", n(c[kTimeouts]), "count"},
       {"tcp.acks_sent", n(c[kAcksSent]), "count"},
       {"app.cbr_packets", n(c[kCbrPackets]), "count"},
       {"trace.overhead", median(overheads), "ratio"}});
}

// Every workload at reduced length, traced and untraced, all checks on.
int run_short_mode() {
  Ledger ledger;
  for (const char* name : {"chain", "city", "lossy"}) {
    Workload w = make_workload(name, 1, /*short_mode=*/true);
    const std::vector<ExperimentConfig> exps = w.experiments();
    std::vector<ExperimentResult> untraced = run_untraced_round(w);
    for (std::size_t i = 0; i < exps.size(); ++i) {
      ledger.record(w.name + " short experiment " + std::to_string(i),
                    check_result(exps[i], untraced[i]));
    }
    std::vector<Traced> traced = run_traced_round(exps, w.jobs);
    check_traced_round(w, "short traced", exps, untraced, traced, nullptr,
                       ledger);
    std::vector<Traced> serial = run_traced_round(exps, 1);
    check_traced_round(w, "short traced 1-worker", exps, untraced, serial,
                       &traced, ledger);
    std::fprintf(stderr, "perfbench: short %s: %zu experiments checked\n",
                 name, exps.size());
  }
  print_report(ledger, {});
  return ledger.failed == 0 ? 0 : 1;
}

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload chain|city|lossy --seed N "
               "--seconds S --trace 0|1 [--commit ID]\n"
               "       perfbench --short\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, commit = "unknown";
  long long seed = -1, trace = -1;
  double seconds = -1.0;
  bool short_mode = false;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a == "--short") {
      short_mode = true;
      continue;
    }
    if (i + 1 >= argc) usage();
    std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      workload = v;
    } else if (a == "--commit") {
      commit = v;
    } else if (a == "--seed") {
      seed = std::strtoll(v.c_str(), &end, 10);
      if (*end != '\0' || seed < 0) usage();
    } else if (a == "--seconds") {
      seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(seconds > 0.0) || seconds > 3600.0) usage();
    } else if (a == "--trace") {
      trace = std::strtoll(v.c_str(), &end, 10);
      if (*end != '\0' || (trace != 0 && trace != 1)) usage();
    } else {
      usage();
    }
  }

  std::printf("# perfbench nproc=%u build_type=%s compiler=\"%s\" "
              "commit=%s timings_trusted=%s\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              __VERSION__, commit.c_str(), kTimingsTrusted ? "yes" : "no");
  if (short_mode) return run_short_mode();
  if (workload.empty() || seed < 0 || seconds <= 0.0 || trace < 0) usage();
  if (!kTimingsTrusted) {
    std::fprintf(stderr,
                 "perfbench: refusing to report timings from a sanitized, "
                 "DCHECK-enabled or unoptimized build; use --short\n");
    return 3;
  }
  std::printf("# perfbench workload=%s seed=%lld seconds=%g trace=%lld\n",
              workload.c_str(), seed, seconds, trace);
  std::fflush(stdout);

  Workload w =
      make_workload(workload, static_cast<std::uint64_t>(seed), false);
  Ledger ledger;
  if (trace == 1) {
    run_traced_mode(w, seconds, ledger);
  } else {
    run_untraced_mode(w, seconds, ledger);
  }
  return 0;
}
