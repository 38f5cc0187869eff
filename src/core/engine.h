// Sans-IO protocol engine: state machines that step party runs one
// boundary at a time.
//
// Every core protocol in this repo is a party pair under a
// sim::TwoPartyRun, wrapped in a run object (BasicIntersectionRun,
// VerificationTreeRun, BucketEqRun, eq::AmortizedEqRun) whose step()
// advances to the next boundary the parties flag, or to the end. The
// blocking entry point steps that object to completion — the right shape
// for bit-exact accounting — and a ProtocolMachine steps the SAME object
// one boundary per step() — the shape a service multiplexing 10^4-10^6
// concurrent sessions on a few threads needs. There is no second loop to
// drift from the first. The machine owns no sockets and performs no I/O
// ("sans-IO"): the caller — runtime/scheduler.h's event loop, or a test
// harness — decides when each step happens.
//
// Suspension lives only at those boundaries: the protocol decoders
// (BitReader::expect_at_least call sites) only ever see complete buffers
// delivered by Channel::send() or replayed from a checkpoint of such
// buffers, so a short read there is corruption and throwing is correct.
//
// Determinism contract (the differential harness's foundation): a
// machine stepped to completion — under any interleaving with other
// sessions and any step schedule — produces a channel whose streaming
// digest equals the blocking run's transcript digest for the same seed,
// bit for bit. This follows from stepping the blocking path's own run
// object plus session isolation, and is pinned in tests/sansio_test.cc
// and gated non-zero-exit in bench/exp_service.
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

// ---- The machine ----

enum class MachineStatus : std::uint8_t {
  kIdle = 0,     // built, not yet stepped
  kRunning = 1,  // stopped at a phase boundary; step() again to go on
  kDone = 2,     // finished; result/digest/cost are final
  kFailed = 3,   // the protocol threw; error() has the message
};

class ProtocolMachine {
 public:
  virtual ~ProtocolMachine() = default;

  ProtocolMachine(const ProtocolMachine&) = delete;
  ProtocolMachine& operator=(const ProtocolMachine&) = delete;

  virtual std::string_view kind() const = 0;

  // Advances the session one phase boundary (or to its end) and returns
  // the new status. A throw from the protocol becomes kFailed with
  // error() set. Stepping a finished machine changes nothing.
  MachineStatus step();

  MachineStatus status() const { return status_; }
  const std::string& error() const { return error_; }

  // Steps taken (boundaries crossed, the last one included).
  std::uint64_t steps() const { return steps_; }

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
  MachineStatus status_ = MachineStatus::kIdle;
  std::string error_;
  std::uint64_t steps_ = 0;
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
