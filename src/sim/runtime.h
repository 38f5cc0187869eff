// Strictly-separated protocol execution.
//
// Each party is an object holding ONLY its own input and randomness view,
// reacting to delivered messages; run_two_party() carries the messages
// over a metered sim::Channel. A protocol written this way provably uses
// no out-of-band knowledge. Equality, Basic-Intersection, one-round
// hashing (core/parties.h) and the verification tree
// (core/tree_parties.h) exist only in this form: their public entry
// points build two parties and call run_two_party().
//
// The runner owns everything that is not protocol logic, so no party
// repeats it: transcript labels and tracer phases (from each Outgoing),
// crash resume at the boundaries parties flag, and the message budget.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>

#include "sim/channel.h"
#include "util/arena.h"
#include "util/bitio.h"

namespace setint::core {
class Checkpoint;
}  // namespace setint::core

namespace setint::sim {

// One message a party hands to the runner.
struct Outgoing {
  util::BitBuffer bits;
  std::string_view label;  // transcript / flight-recorder label
  // Tracer span path the send is metered under, '/'-separated below the
  // caller's current span (empty: that span itself); consecutive messages
  // share every leading segment they have in common. Must outlive the run.
  std::string_view phase = {};
  // Once delivered, the protocol has crossed a checkpoint boundary.
  bool boundary = false;
};

// What a party may borrow from the session that runs it: the decode
// limits every received frame is read under, and the session's scratch.
// Never the channel itself: a party sees only the messages handed to it.
// Both parties of a run share one arena, so the caller opens the
// util::ScratchArena::Frame around the whole run.
struct PartyEnv {
  explicit PartyEnv(Channel& channel)
      : limits(channel.limits()),
        pool(&channel.buffer_pool()),
        arena(&channel.scratch()) {}
  PartyEnv(const core::ResourceLimits* limits, util::BufferPool& pool,
           util::ScratchArena& arena)
      : limits(limits), pool(&pool), arena(&arena) {}

  util::BitReader reader(const util::BitBuffer& message) const {
    return util::BitReader(message, limits);
  }

  const core::ResourceLimits* limits;
  util::BufferPool* pool;
  util::ScratchArena* arena;
};

// One endpoint of a two-party protocol. The runner calls start() once on
// the opening party, then alternates on_message() with each delivered
// payload; a party returning std::nullopt yields the floor without
// speaking (the protocol ends when both parties are done()).
class Party {
 public:
  virtual ~Party() = default;

  // First message, for the party that opens the protocol.
  virtual std::optional<Outgoing> start() { return std::nullopt; }

  // React to a delivered message; optionally reply.
  virtual std::optional<Outgoing> on_message(
      const util::BitBuffer& message) = 0;

  virtual bool done() const = 0;
};

// Runs alice (the opener) against bob through `channel` until both report
// done. Throws std::runtime_error if the conversation stalls (neither
// party speaks while one is unfinished) or exceeds max_messages.
//
// With a checkpoint, every delivered message flagged `boundary` saves a
// snapshot under `tag` (phase = boundaries crossed so far, state = every
// message delivered so far). A run that finds a snapshot with its tag
// resumes from it: the parties are fed the recorded messages — the bytes
// that were actually delivered, not regenerated ones — and only the rest
// goes over the channel.
void run_two_party(Channel& channel, Party& alice, Party& bob,
                   std::size_t max_messages = 1u << 20,
                   core::Checkpoint* ckpt = nullptr,
                   std::string_view tag = {});

}  // namespace setint::sim
