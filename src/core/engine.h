// Sans-IO protocol engine: state machines that step party runs one
// boundary at a time.
//
// Every core protocol in this repo is a party pair under a
// sim::TwoPartyRun, wrapped in a run object (BasicIntersectionRun,
// VerificationTreeRun, BucketEqRun, eq::AmortizedEqRun) whose step()
// advances to the next boundary the parties flag, or to the end. The
// blocking entry point steps that object to completion — the right shape
// for bit-exact accounting — and a ProtocolMachine steps the SAME object
// one boundary per ack — the shape a service multiplexing 10^4-10^6
// concurrent sessions on a few threads needs. There is no second loop to
// drift from the first. The machine owns no sockets and performs no I/O
// ("sans-IO"): it consumes raw bytes (on_bytes) and produces raw bytes to
// transmit, and the caller — runtime/scheduler.h's event loop, or a test
// harness — decides how those bytes move.
//
// Wire model. Per phase boundary the machine emits ONE framed progress
// report (step index, cumulative bits, running transcript digest) and
// then suspends until one complete inbound frame — an ack/credit from the
// service peer — arrives; each complete ack frame advances the machine
// one boundary. A frame is a 4-byte little-endian payload-length header
// followed by the payload. Inbound bytes may be split or merged at ANY
// byte boundary: the FrameAssembler buffers partial frames and the
// machine parks (status kNeedInput, never a throw) until the rest shows
// up — the re-chunking invariance pinned by tests/sansio_test.cc.
//
// Partial-read audit (why suspension lives HERE and nowhere deeper):
// every BitReader::expect_at_least call site in the protocol decoders
// (set_util, parties — equality, Basic-Intersection and one-round
// hashing — join, reconcile) decodes a buffer returned by Channel::send()
// or replayed from a checkpoint of such buffers, which by
// construction is a complete frame — a short read there is corruption,
// and throwing is correct. The ONLY place a legitimately incomplete
// message can exist is this byte-stream boundary, so FrameAssembler is
// the one component that must suspend instead of throw; a truncated
// frame reaching a BitReader would surface as a spurious decode failure
// (and, under a retry layer, a silently burned attempt).
//
// Determinism contract (the differential harness's foundation): a
// machine stepped to completion — under any interleaving with other
// sessions, any ack re-chunking, any suspend/resume schedule — produces a
// channel whose streaming digest equals the blocking run's transcript
// digest for the same seed, bit for bit. This follows from stepping the
// blocking path's own run object plus session isolation, and is pinned in
// tests/sansio_test.cc and gated non-zero-exit in bench/exp_service.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/verification_tree.h"
#include "sim/channel.h"
#include "util/set_util.h"

namespace setint::core {

// ---- Framing ----

inline constexpr std::size_t kFrameHeaderBytes = 4;
// Refuse frames claiming more than this many payload bytes: a lying
// header must fail fast instead of making the assembler buffer without
// bound (the byte-stream analogue of BitReader::expect_at_least).
inline constexpr std::uint32_t kMaxFramePayloadBytes = 1u << 20;

enum class FrameKind : std::uint8_t {
  kProgress = 0,  // one phase boundary crossed, session still live
  kDone = 1,      // protocol returned; digest/cost are final
  kFailed = 2,    // protocol threw; ProtocolMachine::error() has details
  kAck = 3,       // peer->machine credit; content otherwise ignored
};

// Payload of every machine-emitted frame: kind byte + step index +
// cumulative channel bits + running transcript digest (25 bytes).
struct ProgressFrame {
  FrameKind kind = FrameKind::kProgress;
  std::uint64_t step = 0;
  std::uint64_t bits_total = 0;
  std::uint64_t digest = 0;
};

// Appends one complete frame (header + payload) to `out`.
void append_frame(std::vector<std::uint8_t>& out, const ProgressFrame& f);
// An ack/credit frame as the scheduler (or a test peer) sends it.
void append_ack_frame(std::vector<std::uint8_t>& out, std::uint64_t ack_id);
// Decodes a frame payload produced by append_frame; false if malformed.
bool parse_frame_payload(const std::vector<std::uint8_t>& payload,
                         ProgressFrame* out);

// Reassembles complete frames from an arbitrarily chunked byte stream.
class FrameAssembler {
 public:
  void push(const std::uint8_t* data, std::size_t size);

  // Pops the next complete frame's payload into `payload`; returns false
  // when the buffered bytes end mid-header or mid-payload (the caller
  // parks and waits for more). Throws std::length_error on a header
  // declaring more than kMaxFramePayloadBytes.
  bool next(std::vector<std::uint8_t>& payload);

  std::size_t pending_bytes() const { return buf_.size() - pos_; }

 private:
  std::vector<std::uint8_t> buf_;
  std::size_t pos_ = 0;
};

// ---- The machine ----

enum class MachineStatus : std::uint8_t {
  kIdle = 0,       // built, start() not yet called
  kNeedInput = 1,  // parked: waiting for a complete inbound frame
  kDone = 2,       // finished; result/digest/cost are final
  kFailed = 3,     // the protocol threw; error() has the message
};

std::string_view machine_status_name(MachineStatus s);

// What one poke of the machine hands back to the transport: the new
// status plus zero or more complete frames to transmit to the peer.
struct MachineOutput {
  MachineStatus status = MachineStatus::kIdle;
  std::uint32_t frames = 0;  // complete frames appended to `bytes`
  std::vector<std::uint8_t> bytes;
};

class ProtocolMachine {
 public:
  virtual ~ProtocolMachine() = default;

  ProtocolMachine(const ProtocolMachine&) = delete;
  ProtocolMachine& operator=(const ProtocolMachine&) = delete;

  virtual std::string_view kind() const = 0;

  // Runs the session to its first phase boundary (or completion) and
  // returns the first progress frame. Call exactly once, before on_bytes.
  MachineOutput start();

  // Feeds inbound bytes. Complete ack frames advance the machine one
  // boundary each; a trailing partial frame parks it (kNeedInput) until
  // more bytes arrive. Acks arriving after completion are ignored.
  MachineOutput on_bytes(const std::uint8_t* data, std::size_t size);

  MachineStatus status() const { return status_; }
  const std::string& error() const { return error_; }

  // Boundaries crossed (= progress frames emitted), acks consumed, and
  // times a truncated inbound frame left the machine suspended.
  std::uint64_t steps() const { return steps_; }
  std::uint64_t acks() const { return acks_; }
  std::uint64_t frame_parks() const { return frame_parks_; }

  // The session's metered channel (digest-enabled by the engine).
  virtual sim::Channel& channel() = 0;
  const sim::Channel& channel() const {
    return const_cast<ProtocolMachine*>(this)->channel();
  }
  const sim::CostStats& cost() const { return channel().cost(); }
  std::uint64_t digest() const { return channel().digest(); }

  // Order-insensitive hash of the protocol's OUTPUT (candidate sets /
  // verdicts), for differential comparison against a blocking run. Valid
  // once the machine is kDone.
  virtual std::uint64_t result_fingerprint() const = 0;

 protected:
  ProtocolMachine() = default;

  // Advances one phase boundary; returns true when the protocol finished.
  // May throw — the base class converts that into kFailed.
  virtual bool advance() = 0;

 private:
  void step_once(MachineOutput& out);

  FrameAssembler assembler_;
  MachineStatus status_ = MachineStatus::kIdle;
  std::string error_;
  std::uint64_t steps_ = 0;
  std::uint64_t acks_ = 0;
  std::uint64_t frame_parks_ = 0;
};

// ---- Factory over the four core protocols ----

struct MachineConfig {
  std::uint64_t seed = 1;     // shared-randomness master seed
  std::uint64_t nonce = 0;    // per-session protocol nonce
  std::uint64_t universe = std::uint64_t{1} << 20;
  util::Set s;                // Alice's input (owned by the machine)
  util::Set t;                // Bob's input
  double bi_target_failure = 0.01;      // "bi"
  VerificationTreeParams tree;          // "vt"
  int bucket_eq_strength = 3;           // "bucket_eq"
  std::size_t eq_instances = 0;         // "amortized_eq"; 0 = max(|s|, 4)
};

// Kinds: "bi" (Basic-Intersection), "vt" (verification tree),
// "bucket_eq" (Theorem 3.1), "amortized_eq" (EQ^k merge tree). Throws
// std::invalid_argument on anything else.
std::unique_ptr<ProtocolMachine> make_machine(std::string_view kind,
                                              MachineConfig cfg);

inline constexpr std::string_view kMachineKinds[] = {"bi", "vt", "bucket_eq",
                                                     "amortized_eq"};

// Deterministic EQ^k instance generator shared by the "amortized_eq"
// machine and its blocking reference runs: `count` (x, y) buffer pairs,
// roughly half equal, fully determined by (seed, count).
void make_amortized_eq_inputs(std::uint64_t seed, std::size_t count,
                              std::vector<util::BitBuffer>* xs,
                              std::vector<util::BitBuffer>* ys);

// Fingerprint helpers (order-sensitive over sorted sets, so equal outputs
// hash equal) used by machines and the differential tests.
std::uint64_t fingerprint_set(std::uint64_t h, util::SetView s);
std::uint64_t fingerprint_bools(std::uint64_t h, const std::vector<bool>& v);

}  // namespace setint::core
