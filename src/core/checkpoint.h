// Phase-boundary session checkpointing.
//
// The chaos layer (sim/chaos.h) can crash a player or partition a link in
// the middle of a session. Without checkpoints the only recovery is a
// full-session retry: every bit already spent is spent again. A
// core::Checkpoint is the alternative: the checkpointable protocols —
// verification tree (per stage), bucket-EQ^k (size exchange, then per
// level), amortized EQ (per level), Basic-Intersection (per round pair) —
// are party pairs under sim::TwoPartyRun, which saves a snapshot at each
// boundary the parties flag. A run rebuilt after a crash restores the
// newest snapshot and replays it into fresh parties, sending only the
// bits since the last boundary. The recovery layer meters that difference
// as `bits_replayed` (bench/exp_chaos asserts checkpointed recovery
// replays strictly fewer bits than full-session retry).
//
// The snapshot is single-slot by design: a session is a linear execution,
// so only the newest boundary matters, and a nested protocol (e.g. the
// Basic-Intersection exchange inside a verification-tree stage) simply
// runs un-checkpointed under its parent's coarser granularity. A snapshot
// is (tag, phase, state, bits_at_boundary): `tag` names the protocol that
// wrote it, `phase` the boundaries crossed so far, `state` the log of
// messages delivered so far (the one snapshot format), and
// `bits_at_boundary` the channel's bits_total at save time (what
// bits_replayed is measured against).
//
// Checkpoints are for crash recovery only. Stepping a session one stage at
// a time (core/engine.h) and enforcing session budgets at stage boundaries
// (core/budget.h) do not need one: both use the run's boundaries directly.
//
// Determinism contract (pinned in tests/transcript_digest_test.cc):
// snapshot -> restore -> finish on the same channel produces a transcript
// bit-identical to an uninterrupted run. interrupt_after() is the test
// knob that forces an interruption at an exact boundary.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>

#include "util/bitio.h"

namespace setint::core {

// Thrown by Checkpoint::save when the interrupt_after test knob fires.
// The snapshot IS stored before the throw — the interruption lands
// exactly on the boundary, losing nothing, which is what lets the resume
// tests pin the same transcript digests as uninterrupted runs.
class CheckpointInterrupt : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Checkpoint {
 public:
  Checkpoint() = default;

  // Stores a snapshot, replacing any previous one (any tag).
  void save(std::string_view tag, std::uint64_t phase, util::BitBuffer state,
            std::uint64_t bits_at_boundary);

  bool empty() const { return tag_.empty(); }
  bool has(std::string_view tag) const { return !empty() && tag_ == tag; }
  const std::string& tag() const { return tag_; }
  std::uint64_t phase() const { return phase_; }
  const util::BitBuffer& state() const { return state_; }
  std::uint64_t bits_at_boundary() const { return bits_at_boundary_; }

  void clear();

  // Protocols call this when they actually resume from the stored
  // snapshot, so the recovery layer can report checkpoint.restores.
  void note_restore() { restores_ += 1; }

  std::uint64_t snapshots() const { return snapshots_; }
  std::uint64_t restores() const { return restores_; }

  // Test knob: the next save() with this tag and phase >= `phase` stores
  // the snapshot, disarms the knob, and throws CheckpointInterrupt —
  // simulating a crash landing exactly on a phase boundary.
  void interrupt_after(std::string_view tag, std::uint64_t phase);

 private:
  std::string tag_;
  std::uint64_t phase_ = 0;
  util::BitBuffer state_;
  std::uint64_t bits_at_boundary_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t restores_ = 0;
  std::string interrupt_tag_;
  std::uint64_t interrupt_phase_ = 0;
  bool interrupt_armed_ = false;
};

}  // namespace setint::core
