// m-party message-passing model (the model of [BEO+13, PVZ12], Section 4).
//
// Any player may message any other. Multi-party protocols in this library
// are compositions of two-party sub-protocols, each run on its own Channel;
// the Network aggregates their costs per player and tracks rounds in
// "parallel batches": sub-protocols declared part of one batch run
// concurrently, so the batch contributes the MAX of their round counts.
// The Network only bills costs: fault and chaos plans reach the pair
// channels through multiparty::MultipartyParams.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "sim/transcript.h"

namespace setint::obs {
class Tracer;
}  // namespace setint::obs

namespace setint::sim {

struct PlayerCost {
  std::uint64_t bits_sent = 0;
  std::uint64_t bits_received = 0;
  std::uint64_t bits_touched() const { return bits_sent + bits_received; }
};

class Network {
 public:
  explicit Network(std::size_t players) : players_(players) {
    if (players == 0) throw std::invalid_argument("Network: zero players");
    costs_.resize(players);
  }

  std::size_t players() const { return players_; }

  // Bill a completed two-party sub-protocol between players a (the channel's
  // Alice) and b (Bob).
  void bill_pairwise(std::size_t a, std::size_t b, const CostStats& cost);

  // Parallel-batch round accounting: protocols call begin_batch(), bill the
  // pairwise conversations that ran concurrently via bill_pairwise_in_batch,
  // then end_batch() adds the widest conversation's rounds to the network
  // round count.
  void begin_batch();
  void bill_pairwise_in_batch(std::size_t a, std::size_t b,
                              const CostStats& cost);
  void end_batch();

  const PlayerCost& player(std::size_t i) const { return costs_.at(i); }
  std::uint64_t total_bits() const { return total_bits_; }
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t max_player_bits() const;
  double average_player_bits() const;

  // Optional observability: every bill_pairwise is attributed to the
  // tracer's current span and recorded in the "net.*" metrics. Not owned.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

 private:
  void check_ids(std::size_t a, std::size_t b) const;

  std::size_t players_;
  std::vector<PlayerCost> costs_;
  std::uint64_t total_bits_ = 0;
  std::uint64_t rounds_ = 0;
  bool in_batch_ = false;
  std::uint64_t batch_max_rounds_ = 0;
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace setint::sim
