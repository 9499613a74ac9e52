#include "phy/channel.h"

#include <algorithm>

#include "phy/position.h"
#include "phy/spatial_grid.h"
#include "phy/wireless_phy.h"
#include "pkt/packet.h"
#include "sim/assert.h"
#include "sim/sim_time.h"
#include "sim/units.h"

namespace muzha {

void Channel::attach(WirelessPhy& phy) {
  MUZHA_DCHECK(!phy.channel_attached_,
               "Channel::attach: PHY attached twice (would receive every "
               "frame twice)");
  phy.channel_attached_ = true;
  phy.channel_order_ = next_order_++;
  phys_.push_back(&phy);
  if (mode_ == ChannelMode::kSpatialIndex) {
    grid_.insert(&phy, phy.position(), phy.channel_order_, &phy.grid_item_);
  }
}

void Channel::detach(WirelessPhy& phy) {
  if (!phy.channel_attached_) return;
  phy.channel_attached_ = false;
  grid_.remove(&phy.grid_item_);
  auto it = std::find(phys_.begin(), phys_.end(), &phy);
  MUZHA_ASSERT(it != phys_.end(), "Channel::detach: PHY not in phys_");
  phys_.erase(it);  // keeps the survivors in attach order
}

void Channel::phy_moved(WirelessPhy& phy) {
  if (phy.channel_attached_ && mode_ == ChannelMode::kSpatialIndex) {
    grid_.move(&phy.grid_item_, phy.position());
  }
}

void Channel::transmit(const WirelessPhy& src, const Packet& pkt,
                       SimTime duration) {
  ++frames_transmitted_;
  Position sp = src.position();
  if (mode_ == ChannelMode::kBruteForce) {
    for (WirelessPhy* rx : phys_) {
      if (rx == &src) continue;
      deliver(rx, sp, rx->position(), pkt, duration);
    }
  } else {
    // Cell side == cs_range, so the 3x3 neighborhood is a superset of the
    // delivery disc; deliver() re-applies the exact range check. Sorting by
    // the attach-order key restores brute-force scan order, which fixes both
    // the schedule_in order and the error-model RNG draw order.
    scratch_.clear();
    grid_.gather(sp, scratch_);
    std::sort(scratch_.begin(), scratch_.end(),
              [](const SpatialGrid::Entry& a, const SpatialGrid::Entry& b) {
                return a.order < b.order;
              });
    for (const SpatialGrid::Entry& e : scratch_) {
      if (e.phy == &src) continue;
      deliver(e.phy, sp, e.pos, pkt, duration);
    }
  }
}

void Channel::deliver(WirelessPhy* rx, Position src_pos, Position rx_pos,
                      const Packet& pkt, SimTime duration) {
  Meters dist = distance(src_pos, rx_pos);
  if (dist > params_.cs_range) return;
  bool decodable = dist <= params_.rx_range;
  bool pre_corrupted = false;
  PacketPtr copy;
  if (decodable) {
    copy = clone_packet(pkt);
    pre_corrupted =
        error_model_->should_corrupt(pkt, dist, sim_.now(), sim_.rng());
    if (pre_corrupted) ++frames_corrupted_by_error_;
  }
  SimTime prop = to_sim_time(dist / params_.propagation);
  sim_.schedule_in(prop, [rx, copy = std::move(copy), pre_corrupted, duration,
                          dist]() mutable {
    rx->signal_start(std::move(copy), pre_corrupted, duration, dist);
  });
}

}  // namespace muzha
