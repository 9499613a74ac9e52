// Shared wireless channel.
//
// The channel knows every attached PHY and its position. A transmission is
// delivered as a (signal_start, signal_end) event pair to every PHY within
// carrier-sense range, after per-receiver propagation delay. Receivers within
// decode range additionally get the frame contents; receivers between decode
// and CS range only sense energy (which still interferes). The receiving
// PHY, not the channel, decides collision outcomes, because they depend on
// receiver state (half-duplex, already decoding, ...).
//
// Receiver lookup runs in one of two modes:
//  - kSpatialIndex (default): a uniform grid keyed on cs_range limits the
//    scan to the 3x3 cell neighborhood of the transmitter — O(neighbors).
//    Candidates are sorted by attach-order key before delivery, so the event
//    schedule (and every RNG draw in the error model) is bit-identical to
//    the brute-force scan.
//  - kBruteForce: the original linear scan over every attached PHY. Kept as
//    the oracle for the differential tests in test_channel_index.cc.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "phy/error_model.h"
#include "phy/phy_params.h"
#include "phy/position.h"
#include "phy/spatial_grid.h"
#include "pkt/packet.h"
#include "sim/sim_time.h"
#include "sim/simulator.h"

namespace muzha {

class WirelessPhy;

enum class ChannelMode : std::uint8_t { kSpatialIndex, kBruteForce };

class Channel {
 public:
  Channel(Simulator& sim, PhyParams params,
          ChannelMode mode = ChannelMode::kSpatialIndex)
      : sim_(sim),
        params_(params),
        mode_(mode),
        error_model_(new NoErrorModel),
        grid_(params.cs_range) {}
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  const PhyParams& params() const { return params_; }
  Simulator& sim() { return sim_; }
  ChannelMode mode() const { return mode_; }
  // Read-only index access for WirelessPhy::set_position's same-cell test.
  const SpatialGrid& grid() const { return grid_; }

  // Registers a PHY for delivery. Attaching a PHY twice is a bug (it would
  // receive every frame twice); MUZHA_DCHECKed.
  void attach(WirelessPhy& phy);

  // Unregisters a PHY (no-op when not attached). Called by ~WirelessPhy, so
  // a PHY may die before the channel without leaving a dangling pointer in
  // phys_ or the grid. Relative attach order of the survivors is preserved.
  void detach(WirelessPhy& phy);

  // Called by WirelessPhy::set_position to keep the spatial index current.
  void phy_moved(WirelessPhy& phy);

  std::size_t attached_count() const { return phys_.size(); }

  void set_error_model(std::unique_ptr<ErrorModel> em) {
    error_model_ = std::move(em);
  }

  // Called by a transmitting PHY at TX start. `duration` is on-air time.
  void transmit(const WirelessPhy& src, const Packet& pkt, SimTime duration);

  // Statistics.
  std::uint64_t frames_transmitted() const { return frames_transmitted_; }
  std::uint64_t frames_corrupted_by_error() const {
    return frames_corrupted_by_error_;
  }

 private:
  // Shared per-receiver delivery tail of both transmit modes. `rx_pos` is
  // the receiver position as the active lookup structure saw it; both modes
  // feed the exact same doubles, so distance() is bit-identical. The signal
  // lands one propagation delay from now.
  void deliver(WirelessPhy* rx, Position src_pos, Position rx_pos,
               const Packet& pkt, SimTime duration);

  Simulator& sim_;
  PhyParams params_;
  ChannelMode mode_;
  std::unique_ptr<ErrorModel> error_model_;
  std::vector<WirelessPhy*> phys_;  // attach order; erase preserves order
  SpatialGrid grid_;
  std::vector<SpatialGrid::Entry> scratch_;  // gather buffer, reused
  std::uint64_t next_order_ = 0;
  std::uint64_t frames_transmitted_ = 0;
  std::uint64_t frames_corrupted_by_error_ = 0;
};

}  // namespace muzha
