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
// crash resume at the boundaries parties flag, the message budget, and
// message storage — once a receiver's on_message returns (and, within a
// turn, the sender's next message is built), the runner releases the
// delivered message to the channel's BufferPool, where a later message
// is built. A party must not hold a delivered message (or a
// view into it) past on_message.
// A run steps one stage at a time, so a sans-IO machine (core/engine.h)
// advances the object a blocking entry point steps to completion.
#pragma once

#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

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
  // Once delivered, the protocol has crossed a checkpoint boundary. Only
  // a message that ends its sender's turn may be one.
  bool boundary = false;
  // The sender keeps the floor: its peer reads this message without
  // replying, and the runner then asks the sender for its next message
  // (Party::next()). A turn's messages all travel one way, so the channel
  // meters them as one round.
  bool keep_floor = false;
};

// What a party may borrow from the session that runs it: the decode
// limits every received frame is read under, and the session's scratch —
// the buffer pool its messages are built in and the word arena. Never the
// channel itself: a party sees only the messages handed to it. Both
// parties of a run share one arena, so the caller opens the
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
// the opening party, then hands each delivered message to its receiver's
// on_message(). A turn is one or more messages from one party: every
// message but the last is flagged keep_floor, its receiver returns
// std::nullopt for it, and the runner fetches the sender's next() one.
// The reply to a turn's last message opens the receiver's turn; a party
// returning std::nullopt there yields the floor without speaking (the
// protocol ends when both parties are done()).
class Party {
 public:
  virtual ~Party() = default;

  // First message, for the party that opens the protocol.
  virtual std::optional<Outgoing> start() { return std::nullopt; }

  // React to a delivered message; optionally reply. The message is valid
  // only during the call: the runner recycles its storage afterwards.
  virtual std::optional<Outgoing> on_message(
      const util::BitBuffer& message) = 0;

  // The next message of a turn whose last message was flagged
  // keep_floor, called once the peer has read that message.
  virtual std::optional<Outgoing> next() { return std::nullopt; }

  virtual bool done() const = 0;
};

// Alice run against bob through `channel`, one stage at a time; `opener`
// names the party whose start() opens the conversation (Alice unless a
// protocol rides the turn of a run before it): step() delivers messages up to and including the next live one
// flagged `boundary` (returning false) or to the end (true). The boundary
// message reaches its receiver at the start of the next step. Throws
// std::runtime_error if the conversation stalls (neither party speaks
// while one is unfinished) or exceeds max_messages, and std::logic_error
// if a party breaks the turn rules: replies to a keep_floor message, has
// no next() message after one, or flags a boundary that does not end its
// turn.
//
// With a checkpoint, every delivered message flagged `boundary` saves a
// snapshot under `tag` (phase = boundaries crossed so far, state = every
// message delivered so far). A run that finds a snapshot with its tag
// resumes from it: the parties are fed the recorded messages — the bytes
// that were actually delivered, not regenerated ones — and only the rest
// goes over the channel. The parties, checkpoint and tag must outlive the
// run.
class TwoPartyRun {
 public:
  TwoPartyRun(Channel& channel, Party& alice, Party& bob,
              std::size_t max_messages = 1u << 20,
              core::Checkpoint* ckpt = nullptr, std::string_view tag = {},
              PartyId opener = PartyId::kAlice);
  ~TwoPartyRun() { enter({}); }
  TwoPartyRun(const TwoPartyRun&) = delete;
  TwoPartyRun& operator=(const TwoPartyRun&) = delete;

  bool step();

 private:
  // Moves the tracer to the phase path of the next live message.
  void enter(std::string_view phase);
  void hand_over();

  Channel& channel_;
  Party& alice_;
  Party& bob_;
  std::size_t max_messages_;
  core::Checkpoint* ckpt_;
  std::string_view tag_;
  std::string_view phase_;
  std::vector<util::BitBuffer> replay_;
  util::BitBuffer log_;
  std::uint64_t boundaries_ = 0;
  std::size_t messages_ = 0;
  std::optional<Outgoing> out_;
  PartyId sender_ = PartyId::kAlice;
  bool keep_floor_ = false;  // delivered_ does not end its sender's turn
  util::BitBuffer delivered_;
  bool pending_ = false;  // delivered_ not yet handed to its receiver
};

// Constructs a TwoPartyRun and steps it to completion.
void run_two_party(Channel& channel, Party& alice, Party& bob,
                   std::size_t max_messages = 1u << 20,
                   core::Checkpoint* ckpt = nullptr,
                   std::string_view tag = {},
                   PartyId opener = PartyId::kAlice);

}  // namespace setint::sim
