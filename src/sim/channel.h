// The simulated two-party channel.
//
// Protocol implementations are written driver-style: one function sees both
// parties' private state, but every inter-party data flow MUST pass through
// Channel::send(), which meters bits, messages and rounds. The returned
// buffer is what the peer decodes — reading data that was never sent is
// structurally impossible, which keeps the accounting honest.
//
// An optional obs::Tracer attributes every metered send to the tracer's
// current phase-span stack (see obs/tracer.h); with no tracer installed the
// hook is a single null-pointer test.
//
// An optional sim::FaultPlan makes the transport adversarial: after the
// sender's bits are metered, the plan may corrupt what the receiver
// decodes (flip/truncate/drop) and charge extra cost (duplicate bits,
// latency rounds). It is the only model of in-flight damage — iid knobs,
// bursts and per-link overlays alike, each delivery one apply() on this
// channel's link. Injected faults are attributed to the current tracer
// phase and counted under the fault.* metrics — see docs/ROBUSTNESS.md.
//
// Integrity framing: with an enabled fault plan, every message is framed
// as body ‖ 32-bit content checksum ‖ w-bit syndrome ‖ 1 parity bit, with
// n = |body| + 32 and w = bit_width(n), all charged to the sender like any
// other bits. The syndrome is the XOR of (i + 1) over the set bits i < n
// and the parity bit covers the same n bits (an extended Hamming code,
// SECDED). The receiver reads n from the
// delivered length and repairs a single flipped bit in place: correct
// first, then resend, then retry. A frame the code cannot repair (two
// flips, a flip in the syndrome field, truncation, a drop) is resent at
// the link: the receiver NACKs (1 bit, its own round, label suffix
// " [nack]") and the sender transmits the same frame again (" [resend]",
// another round), both metered, attributed to the current tracer phase
// and checked against the resource limits like any first send. Each
// delivery draws afresh from the fault plan. After kMaxResends
// resends the frame is abandoned and send() throws ChannelIntegrityError
// — the retry layer treats it like any decode failure and starts a fresh
// certified attempt. Whatever the code did, the receiver compares the
// checksum once, against the one body it settled on, and only ever
// decodes a body that passed. This is load-bearing for soundness: without
// it, a corrupted hashed image can knock a true element out of one
// party's candidate at stage i, after which stage i+1's honest
// Basic-Intersection rerun removes it from the OTHER party too, and the
// final certificate passes on equal-but-wrong candidates (Lemma 3.3's
// one-sided invariant breaks). The checksum caps that silent path at
// ~2^-32 per delivery; correction never asks it twice. Unframed (clean)
// channels never frame, copy or resend.
// Byzantine hardening (docs/ROBUSTNESS.md): an optional sim::Adversary
// lets one party substitute crafted frames for its honest messages
// (crafting happens sender-side, BEFORE integrity framing — a Byzantine
// sender checksums its own bytes, so framing cannot catch it), and an
// optional core::ResourceLimits bounds what the honest side will accept:
// per-frame size, per-run bits and rounds at the channel, decoded items
// via Channel::reader(). Breaches throw core::ResourceLimitError, which
// the retry layer treats like any decode failure.
#pragma once

#include <memory>
#include <stdexcept>
#include <string>

#include "core/resource_limits.h"
#include "sim/adversary.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "sim/transcript.h"
#include "util/arena.h"
#include "util/bitio.h"

namespace setint::obs {
class FlightRecorder;
class Tracer;
}  // namespace setint::obs

namespace setint::sim {

// A message's integrity frame failed verification on every delivery
// (corrupted, truncated, or dropped in flight), resends included. Each
// failed delivery counts under "fault.integrity_failures".
struct ChannelIntegrityError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// The extended-Hamming check over the first `n` bits of `frame`: the XOR
// of (i + 1) over every set bit i < n (fits in bit_width(n) bits), and
// the parity of those bits. Computed a word at a time; frame bits at or
// past n are ignored.
struct FrameCode {
  std::uint64_t syndrome = 0;
  bool parity = false;
};
FrameCode frame_code(const util::BitBuffer& frame, std::size_t n);

class Channel {
 public:
  // record_transcript: keep a bit-exact copy of every delivered body
  // (memory-heavy for large runs; tests only). Resends and NACKs are
  // metered but not recorded.
  explicit Channel(bool record_transcript = false);

  // Resends of one damaged frame before send() gives up and throws
  // ChannelIntegrityError, so a frame is delivered at most
  // kMaxResends + 1 times.
  static constexpr unsigned kMaxResends = 3;

  // Delivers `payload` from `from` to the other party and returns it for
  // decoding. Zero-bit payloads are allowed but still count as a message
  // (and advance the round on a direction change) — see the "metering
  // conventions" section of docs/PROTOCOL.md.
  util::BitBuffer send(PartyId from, util::BitBuffer payload,
                       std::string label = {});

  const CostStats& cost() const { return cost_; }

  // Deliveries whose decoded body differs from the body that was sent:
  // damage that passed the checksum (a ~2^-32 collision) and so reached
  // the decoder. Only the simulator can know this; uncertified callers
  // snapshot it around a run to discard candidates a collision may have
  // corrupted. Damage that the code corrected or a resend repaired never
  // counts.
  std::uint64_t undetected_damage() const { return undetected_damage_; }

  // undetected_damage() plus the frames an installed adversary actually
  // substituted: a crafted frame checksums cleanly and can still lie.
  // Callers without a certificate discard candidates when this moved.
  std::uint64_t untrusted_deliveries() const {
    return undetected_damage_ + crafted_frames_;
  }

  // Transcript if recording was enabled, else nullptr.
  const Transcript* transcript() const { return transcript_.get(); }

  // Opt-in streaming transcript digest: folds every delivered body with
  // sim::fold_digest at the exact point a recording channel would store
  // it, so digest() always equals what Transcript::digest() would return
  // — without the O(total bits) storage. This is what lets the sans-IO
  // scheduler hold 10^4-10^6 concurrent sessions and still assert
  // bit-identity against the blocking reference (docs/PROTOCOL.md,
  // "Sans-IO engine"). Off by default: the fingerprint fold costs a pass
  // over each payload, which the exp_cpu hot-path gates must not pay.
  void enable_digest() { digest_enabled_ = true; }
  bool digest_enabled() const { return digest_enabled_; }
  std::uint64_t digest() const { return digest_; }

  // Install (or clear, with nullptr) a tracer; not owned, must outlive the
  // channel's sends.
  void set_tracer(obs::Tracer* tracer) { tracer_ = tracer; }
  obs::Tracer* tracer() const { return tracer_; }

  // Install (or clear) a flight recorder (obs/recorder.h); not owned. Every
  // metered send, injected fault, integrity failure and limit breach is
  // recorded into the ring at O(1) cost; integrity failures and breaches
  // also trigger FlightRecorder::incident(), which auto-dumps the last-N
  // window if a dump path is configured. Same single-thread session
  // affinity as the tracer.
  void set_recorder(obs::FlightRecorder* recorder) { recorder_ = recorder; }

  // Names this channel's endpoints {a, b} in the run's topology (default
  // {0, 1}, the two-party link). The chaos gate asks whether they are up
  // and the link uncut; the fault plan draws the link's burst and overlay.
  void set_link(std::size_t a, std::size_t b) {
    link_a_ = a;
    link_b_ = b;
  }

  // Install (or clear) a fault plan; not owned. The plan is stateful (its
  // Rngs advance per message), so sharing one plan across channels is how
  // multiparty runs keep a single deterministic fault stream.
  void set_fault_plan(FaultPlan* plan) { fault_plan_ = plan; }

  // Install (or clear) a Byzantine-peer model; not owned, stateful like a
  // fault plan. Frames sent by the party the adversary controls are
  // substituted with crafted ones before framing and metering.
  void set_adversary(Adversary* adversary) { adversary_ = adversary; }

  // Install (or clear) a chaos plan (sim/chaos.h); not owned, stateful and
  // shared across channels like a fault plan. Every send first asks the
  // plan whether this channel's link is usable — a crashed endpoint or
  // partitioned link throws PlayerCrashError / LinkPartitionedError
  // BEFORE any bits are metered (the frame never left the sender). The
  // chaos plan never touches a frame's contents.
  void set_chaos(ChaosPlan* plan) { chaos_ = plan; }

  // Install (or clear) resource limits; not owned, must outlive the run.
  // Disabled or absent limits are free (one branch per send).
  void set_limits(const core::ResourceLimits* limits) { limits_ = limits; }
  const core::ResourceLimits* limits() const { return limits_; }

  // Decoder for a delivered buffer with this channel's limits wired in —
  // the one constructor protocol decode sites should use, so a lying
  // length prefix is charged against max_decoded_items.
  util::BitReader reader(const util::BitBuffer& buffer) const {
    return util::BitReader(buffer, limits_);
  }

  // Charge latency that produced no payload (retry backoff, injected
  // delay): adds rounds to the cost and attributes them to the current
  // tracer phase.
  void charge_extra_rounds(std::uint64_t rounds);

  // Per-session scratch-buffer pool. Protocol hot loops acquire encode
  // scratch here so repeated messages reuse word storage instead of
  // re-allocating (util::BufferPool). Single-threaded like the channel
  // itself: one pool per session, never shared across threads — the
  // thread-affinity contract in docs/OBSERVABILITY.md.
  util::BufferPool& buffer_pool() { return buffer_pool_; }

  // Per-session word-array scratch (hashed images, CSR bucket tables,
  // counting-sort cursors). Same single-thread, one-session affinity as
  // buffer_pool(); protocol entry points open a util::ScratchArena::Frame
  // and everything allocated inside rewinds when the stage returns.
  util::ScratchArena& scratch() { return scratch_; }

 private:
  // Adds `bits` to the cost and a message, with no round or limit check.
  void charge_bits(PartyId from, std::uint64_t bits);
  // One transmission: cost, round, tracer, recorder, then the limits.
  void meter(PartyId from, std::uint64_t bits, const std::string& label);
  // Delivers an already metered integrity frame, resending it while it
  // arrives damaged; leaves the verified body in `frame` or throws.
  void deliver_framed(PartyId from, util::BitBuffer& frame,
                      const std::string& label);
  // One pass of `frame` through the fault plan, single-bit correction and
  // the checksum check. Strips the frame's tail and returns nullptr when
  // the body arrives intact or corrected, else names the failure.
  // `pristine` is the frame as sent.
  const char* deliver_once(PartyId from, util::BitBuffer& frame,
                           const util::BitBuffer& pristine,
                           const std::string& label);

  CostStats cost_;
  std::uint64_t undetected_damage_ = 0;
  std::uint64_t crafted_frames_ = 0;
  bool digest_enabled_ = false;
  std::uint64_t digest_ = kTranscriptDigestSeed;
  bool has_last_direction_ = false;
  PartyId last_direction_ = PartyId::kAlice;
  std::unique_ptr<Transcript> transcript_;
  obs::Tracer* tracer_ = nullptr;
  obs::FlightRecorder* recorder_ = nullptr;
  FaultPlan* fault_plan_ = nullptr;
  Adversary* adversary_ = nullptr;
  ChaosPlan* chaos_ = nullptr;
  std::size_t link_a_ = 0;
  std::size_t link_b_ = 1;
  const core::ResourceLimits* limits_ = nullptr;
  util::BufferPool buffer_pool_;
  util::ScratchArena scratch_;
};

}  // namespace setint::sim
