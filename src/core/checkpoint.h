// Phase-boundary session checkpointing.
//
// The chaos layer (sim/chaos.h) can crash a player or partition a link in
// the middle of a session. Without checkpoints the only recovery is a
// full-session retry: every bit already spent is spent again. A
// core::Checkpoint is the alternative: the checkpointable protocols —
// verification tree (per stage), bucket-EQ^k / amortized EQ (per level),
// Basic-Intersection (per round pair) — save a snapshot at each phase
// boundary they cross, and on re-entry after a crash they restore the
// newest snapshot and skip everything before it, replaying only the bits
// since the last boundary. The recovery layer meters that difference as
// `bits_replayed` (bench/exp_chaos asserts checkpointed recovery replays
// strictly fewer bits than full-session retry).
//
// The snapshot is single-slot by design: a session is a linear execution,
// so only the newest boundary matters, and a nested protocol (e.g. the
// Basic-Intersection exchange inside a verification-tree stage) simply
// runs un-checkpointed under its parent's coarser granularity. A snapshot
// is (tag, phase, state blob, bits_at_boundary): `tag` names the protocol
// that wrote it, `phase` the first phase still to run, `state` a
// self-contained BitBuffer the protocol can rebuild its live state from,
// and `bits_at_boundary` the channel's bits_total at save time (what
// bits_replayed is measured against). For the separated-party protocols
// (verification tree, Basic-Intersection) sim::run_two_party writes the
// snapshot: the state is the log of messages delivered so far, which a
// resumed run replays into fresh parties.
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

class SessionBudget;

// Thrown by Checkpoint::save when the interrupt_after test knob fires.
// The snapshot IS stored before the throw — the interruption lands
// exactly on the boundary, losing nothing, which is what lets the resume
// tests pin the same transcript digests as uninterrupted runs.
class CheckpointInterrupt : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Thrown by Checkpoint::save when park-at-boundaries mode is armed
// (set_park_at_boundaries) — the cooperative-yield signal of the sans-IO
// engine (core/engine.h). Like CheckpointInterrupt, the snapshot IS
// stored before the throw, so a parked session re-enters the protocol,
// restores the boundary it parked on, and runs exactly one phase further.
// Unlike the interrupt knob it is tag-agnostic and persistent: while
// armed, EVERY save parks, whatever protocol wrote it.
class CheckpointPark : public CheckpointInterrupt {
 public:
  using CheckpointInterrupt::CheckpointInterrupt;
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
  // snapshot, so the recovery layer can report checkpoint.restores. A
  // re-entry that resumes a deliberately PARKED boundary (CheckpointPark)
  // is engine bookkeeping, not crash recovery: it lands in park_resumes()
  // instead, keeping checkpoint.restores bit-identical between the
  // blocking path and the stepped sans-IO path.
  void note_restore() {
    if (park_pending_) {
      park_pending_ = false;
      park_resumes_ += 1;
    } else {
      restores_ += 1;
    }
  }

  std::uint64_t snapshots() const { return snapshots_; }
  std::uint64_t restores() const { return restores_; }
  std::uint64_t park_resumes() const { return park_resumes_; }

  // Test knob: the next save() with this tag and phase >= `phase` stores
  // the snapshot, disarms the knob, and throws CheckpointInterrupt —
  // simulating a crash landing exactly on a phase boundary.
  void interrupt_after(std::string_view tag, std::uint64_t phase);

  // Sans-IO stepping (core/engine.h): while armed, every save() stores
  // its snapshot, runs the budget hook, and then throws CheckpointPark.
  // The park lands LAST so per-boundary budget.checks counts — and the
  // precedence of BudgetExhaustedError over a park — are identical to the
  // blocking path.
  void set_park_at_boundaries(bool armed) { park_at_boundaries_ = armed; }
  bool park_at_boundaries() const { return park_at_boundaries_; }

  // Overload governance (core/budget.h): when a budget is attached, every
  // save() runs budget->check() AFTER storing the snapshot, making phase
  // boundaries the cooperative budget-enforcement points. The snapshot
  // lands first so a budget trip loses nothing — a later (cheaper) rung
  // can still resume from it. Not owned; null detaches.
  void set_budget(SessionBudget* budget) { budget_ = budget; }
  SessionBudget* budget() const { return budget_; }

 private:
  std::string tag_;
  std::uint64_t phase_ = 0;
  util::BitBuffer state_;
  std::uint64_t bits_at_boundary_ = 0;
  std::uint64_t snapshots_ = 0;
  std::uint64_t restores_ = 0;
  std::uint64_t park_resumes_ = 0;
  bool park_at_boundaries_ = false;
  bool park_pending_ = false;
  std::string interrupt_tag_;
  std::uint64_t interrupt_phase_ = 0;
  bool interrupt_armed_ = false;
  SessionBudget* budget_ = nullptr;
};

}  // namespace setint::core
