// The main protocol's party machines, driven directly: correctness,
// transcripts pinned to the former two-sided driver's, the worst-case
// cutoff, decode limits inside a party, the stage ranges and packed node
// contents, and the heap allocations of one run and of a batch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/checkpoint.h"
#include "core/resource_limits.h"
#include "core/tree_parties.h"
#include "core/verification_tree.h"
#include "setint.h"
#include "sim/channel.h"
#include "sim/randomness.h"
#include "sim/runtime.h"
#include "util/arena.h"
#include "util/rng.h"
#include "util/set_util.h"

// Heap accounting for the allocation tests below: every operator new in
// this binary bumps a counter. Every form of new and delete is replaced
// so each allocation is paired with its own deallocation under ASan too.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t& tag) noexcept {
  return ::operator new(n, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace setint {
namespace {

core::VerificationTreeParams params_for(std::size_t buckets, int r) {
  core::VerificationTreeParams params;
  params.bucket_count = buckets;
  params.rounds_r = r;
  return params;
}

struct TreeFsmCase {
  std::size_t k;
  std::size_t shared;
  int r;
};

class TreeFsm : public ::testing::TestWithParam<TreeFsmCase> {};

TEST_P(TreeFsm, ComputesExactIntersection) {
  const TreeFsmCase c = GetParam();
  util::Rng wrng(c.k * 7 + c.shared + static_cast<std::size_t>(c.r));
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 28, c.k, c.shared);
  const auto params = params_for(std::max<std::size_t>(c.k, 2), c.r);
  sim::SharedRandomness shared(c.k + 13);
  sim::Channel ch;
  const sim::PartyEnv env(ch);
  core::TreeParty alice(shared, 5, std::uint64_t{1} << 28, p.s, params, env,
                        sim::PartyId::kAlice);
  core::TreeParty bob(shared, 5, std::uint64_t{1} << 28, p.t, params, env,
                      sim::PartyId::kBob);
  sim::run_two_party(ch, alice, bob);
  EXPECT_EQ(alice.output(), p.expected_intersection);
  EXPECT_EQ(bob.output(), p.expected_intersection);
  EXPECT_LE(ch.cost().rounds, static_cast<std::uint64_t>(3 * c.r + 1));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TreeFsm,
    ::testing::Values(TreeFsmCase{8, 4, 2}, TreeFsmCase{64, 0, 2},
                      TreeFsmCase{64, 64, 3}, TreeFsmCase{256, 128, 3},
                      TreeFsmCase{1024, 512, 4}, TreeFsmCase{4096, 2048, 4},
                      TreeFsmCase{1024, 512, 6}));

// Bits, rounds and transcript digest of each trial, as the two-sided
// driver that preceded the parties produced them. Both the parties on
// their own and the public entry point must reproduce every one.
TEST(TreeFsm, TranscriptMatchesRecordedDriverPins) {
  struct Pin {
    std::uint64_t bits;
    std::uint64_t rounds;
    std::uint64_t digest;
  };
  const Pin pins[] = {
      {18547u, 12u, 0xad14ec81473a7f41ull},  // k=448 r=5
      {17275u, 9u, 0xa9645fc122f7bce3ull},   // k=481 r=4
      {5093u, 9u, 0xb2555e649b7088c5ull},    // k=132 r=4
      {26085u, 5u, 0xc1bb367db69e9fc1ull},   // k=587 r=2
      {15359u, 11u, 0xb85159a075a69eb8ull},  // k=435 r=4
      {6396u, 12u, 0x9ae9746a80728bdbull},   // k=153 r=5
      {11273u, 9u, 0x879fd7d6da305c8cull},   // k=310 r=4
      {9706u, 9u, 0x4902737656f7e7b9ull},    // k=421 r=4
      {10400u, 6u, 0xc42bd10b55ffbdebull},   // k=494 r=3
      {23093u, 14u, 0xfa855dd4d74ac027ull},  // k=566 r=5
      {7122u, 10u, 0x086ed086e8354228ull},   // k=170 r=5
      {27547u, 5u, 0x01c090d95d33986aull},   // k=593 r=2
  };
  util::Rng wrng(9);
  for (std::uint64_t trial = 0; trial < 12; ++trial) {
    const std::size_t k = 8 + wrng.below(600);
    const std::size_t shared_count = wrng.below(k + 1);
    const int r = 2 + static_cast<int>(wrng.below(4));
    const util::SetPair p =
        util::random_set_pair(wrng, std::uint64_t{1} << 26, k, shared_count);
    SCOPED_TRACE(testing::Message()
                 << "trial " << trial << " k=" << k << " r=" << r);
    const auto params =
        params_for(std::max<std::size_t>({p.s.size(), p.t.size(), 2}), r);
    sim::SharedRandomness shared(trial * 31);

    sim::Channel fsm_ch(/*record_transcript=*/true);
    const sim::PartyEnv env(fsm_ch);
    core::TreeParty alice(shared, trial, std::uint64_t{1} << 26, p.s, params,
                          env, sim::PartyId::kAlice);
    core::TreeParty bob(shared, trial, std::uint64_t{1} << 26, p.t, params,
                        env, sim::PartyId::kBob);
    sim::run_two_party(fsm_ch, alice, bob);

    sim::Channel entry_ch(/*record_transcript=*/true);
    const core::IntersectionOutput entry_out =
        core::verification_tree_intersection(entry_ch, shared, trial,
                                             std::uint64_t{1} << 26, p.s,
                                             p.t, params);

    for (const sim::Channel* ch : {&fsm_ch, &entry_ch}) {
      EXPECT_EQ(ch->cost().bits_total, pins[trial].bits);
      EXPECT_EQ(ch->cost().rounds, pins[trial].rounds);
      EXPECT_EQ(ch->transcript()->digest(), pins[trial].digest);
    }
    EXPECT_EQ(entry_out.alice, alice.output());
    EXPECT_EQ(entry_out.bob, bob.output());
  }
}

TEST(TreeFsm, RequiresExplicitPublicParameters) {
  sim::SharedRandomness shared(1);
  sim::Channel ch;
  const sim::PartyEnv env(ch);
  const util::Set one{1};
  core::VerificationTreeParams no_buckets;
  no_buckets.rounds_r = 2;
  EXPECT_THROW(core::TreeParty(shared, 0, 100, one, no_buckets, env,
                               sim::PartyId::kAlice),
               std::invalid_argument);
  core::VerificationTreeParams r1 = params_for(4, 1);
  EXPECT_THROW(
      core::TreeParty(shared, 0, 100, one, r1, env, sim::PartyId::kAlice),
      std::invalid_argument);
}

// With a budget no stage fits in, both parties stop after stage 0 with the
// fallback flagged, the stage's last message is no checkpoint boundary,
// and the public entry point answers exactly through the deterministic
// exchange.
TEST(TreeFsm, WorstCaseCutoffStopsBothParties) {
  util::Rng wrng(14);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 22, 256, 128);
  auto params = params_for(256, 3);
  params.worst_case_cutoff_factor = 0.0001;
  sim::SharedRandomness shared(14);

  sim::Channel ch;
  const sim::PartyEnv env(ch);
  core::TreeParty alice(shared, 0, 1u << 22, p.s, params, env,
                        sim::PartyId::kAlice);
  core::TreeParty bob(shared, 0, 1u << 22, p.t, params, env,
                      sim::PartyId::kBob);
  core::Checkpoint ckpt;
  sim::run_two_party(ch, alice, bob, 18, &ckpt, "vt");
  EXPECT_TRUE(alice.diag().fallback_used);
  EXPECT_TRUE(bob.diag().fallback_used);
  EXPECT_TRUE(alice.done());
  EXPECT_TRUE(bob.done());
  EXPECT_EQ(alice.diag().stage_eq_bits[1], 0u);  // stage 1 never ran
  EXPECT_TRUE(ckpt.empty());

  sim::Channel entry_ch;
  core::VerificationTreeDiag diag;
  const core::IntersectionOutput out = core::verification_tree_intersection(
      entry_ch, shared, 0, 1u << 22, p.s, p.t, params, &diag);
  EXPECT_TRUE(diag.fallback_used);
  EXPECT_EQ(out.alice, p.expected_intersection);
  EXPECT_EQ(out.bob, p.expected_intersection);
  // The fallback's bits come on top of the abandoned stage's.
  EXPECT_GT(entry_ch.cost().bits_total, ch.cost().bits_total);
}

TEST(TreeFsm, EmptyAndDegenerateInputs) {
  sim::SharedRandomness shared(2);
  const auto params = params_for(4, 2);
  const util::Set none;
  const util::Set three{1, 2, 3};
  {
    sim::Channel ch;
    const sim::PartyEnv env(ch);
    core::TreeParty alice(shared, 0, 100, none, params, env,
                          sim::PartyId::kAlice);
    core::TreeParty bob(shared, 0, 100, none, params, env, sim::PartyId::kBob);
    sim::run_two_party(ch, alice, bob);
    EXPECT_TRUE(alice.output().empty());
  }
  {
    sim::Channel ch;
    const sim::PartyEnv env(ch);
    core::TreeParty alice(shared, 1, 100, three, params, env,
                          sim::PartyId::kAlice);
    core::TreeParty bob(shared, 1, 100, none, params, env, sim::PartyId::kBob);
    sim::run_two_party(ch, alice, bob);
    EXPECT_TRUE(alice.output().empty());
    EXPECT_TRUE(bob.output().empty());
  }
}

// A Basic-Intersection image frame whose count fits inside the frame but
// exceeds max_decoded_items is refused inside the tree party too.
TEST(TreeFsm, ImageCountOverDecodeLimitThrows) {
  util::Rng wrng(3);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 20, 64, 16);
  core::ResourceLimits limits;
  limits.max_decoded_items = 32;
  sim::SharedRandomness shared(3);
  util::BufferPool pool;
  util::ScratchArena arena;
  core::TreeParty bob(shared, 0, 1u << 20, p.t, params_for(4, 2),
                      sim::PartyEnv(&limits, pool, arena), sim::PartyId::kBob);
  // Stage 0: all-ones "hashes" (more bits than the stage needs) fail the
  // equality tests, so Bob moves on to Basic-Intersection.
  util::BitBuffer hashes;
  for (int i = 0; i < 64; ++i) hashes.append_bits(~std::uint64_t{0}, 64);
  const auto verdicts = bob.on_message(hashes);
  ASSERT_TRUE(verdicts.has_value());
  bool any_failed = false;
  for (std::size_t v = 0; v < verdicts->bits.size_bits(); ++v) {
    any_failed = any_failed || !verdicts->bits.bit(v);
  }
  ASSERT_TRUE(any_failed);
  // His Basic-Intersection sizes follow the verdicts in the same turn.
  ASSERT_TRUE(verdicts->keep_floor);
  ASSERT_TRUE(bob.next().has_value());
  // Alice claims one element in every failed leaf (surplus codes unread);
  // her images follow in the same turn, so Bob stays silent.
  util::BitBuffer sizes;
  for (int i = 0; i < 4; ++i) sizes.append_gamma64(1);
  ASSERT_FALSE(bob.on_message(sizes).has_value());
  // 40 items of 64 bits each, wider than any image width: the frame holds
  // every item it claims, so only the item cap can refuse it.
  util::BitBuffer images;
  images.append_gamma64(40);
  for (int i = 0; i < 40; ++i) images.append_bits(i, 64);
  EXPECT_THROW(bob.on_message(images), core::ResourceLimitError);
}

// The node ranges a party derives at each stage from its cover sizes are
// the ranges verification_tree_layout cuts top-down: for every k up to
// 2000 at r <= 5 (log* k <= 4 there, so deeper trees only add levels of
// single leaves) and for sampled k at every depth up to kMaxTreeStages.
// One bounds vector serves every call, as a party's serves every stage.
TEST(TreeShape, StageRangesMatchLayout) {
  std::vector<std::size_t> bounds;
  const auto check = [&](std::size_t k, int r) {
    const core::TreeShape shape(k, r);
    const auto layout = core::verification_tree_layout(k, r);
    for (int stage = 0; stage < r; ++stage) {
      shape.level_bounds(stage, bounds);
      const auto& ranges = layout[static_cast<std::size_t>(stage)];
      bool same = bounds.size() == ranges.size() + 1;
      for (std::size_t v = 0; same && v < ranges.size(); ++v) {
        same = bounds[v] == ranges[v].first &&
               bounds[v + 1] == ranges[v].second;
      }
      ASSERT_TRUE(same) << "k=" << k << " r=" << r << " stage " << stage;
    }
  };
  for (std::size_t k = 1; k <= 2000; ++k) {
    for (int r = 2; r <= 5; ++r) check(k, r);
    if (k <= 16 || k % 400 == 0) {
      for (int r = 6; r <= core::kMaxTreeStages; ++r) check(k, r);
    }
  }
}

// At every stage, each party's packed node contents are word for word
// the BitBuffers that per-node append_set calls over its current leaf
// candidates build. Stage 0 sends leaves through Basic-Intersection, so
// later stages pack arena-backed candidates too.
TEST(TreeFsm, PackedNodeContentsMatchAppendSetAtEveryStage) {
  util::Rng wrng(21);
  const util::SetPair p = util::random_set_pair(wrng, 1u << 24, 512, 256);
  const int r = 3;
  const auto params = params_for(512, r);
  const auto layout = core::verification_tree_layout(512, r);
  sim::SharedRandomness shared(21);
  sim::Channel ch;
  const sim::PartyEnv env(ch);
  core::TreeParty alice(shared, 0, 1u << 24, p.s, params, env,
                        sim::PartyId::kAlice);
  core::TreeParty bob(shared, 0, 1u << 24, p.t, params, env,
                      sim::PartyId::kBob);

  std::set<int> stages_checked;
  const auto check = [&](core::TreeParty& party) {
    if (party.done()) return;
    util::ScratchArena::Frame frame(ch.scratch());
    const std::span<const util::BitSpan> packed = party.node_contents();
    const auto& ranges = layout[static_cast<std::size_t>(party.stage())];
    ASSERT_EQ(packed.size(), ranges.size());
    for (std::size_t v = 0; v < ranges.size(); ++v) {
      util::BitBuffer ref;
      for (std::size_t u = ranges[v].first; u < ranges[v].second; ++u) {
        util::append_set(ref, party.assignment()[u]);
      }
      ASSERT_EQ(packed[v].bits, ref.size_bits()) << "node " << v;
      ASSERT_TRUE(std::equal(packed[v].words.begin(), packed[v].words.end(),
                             ref.words().begin(), ref.words().end()))
          << "node " << v;
    }
    stages_checked.insert(party.stage());
  };

  // Drives the parties by hand, as sim::TwoPartyRun does: a message that
  // keeps the floor is followed by its sender's next() one.
  std::optional<sim::Outgoing> msg = alice.start();
  bool to_bob = true;
  while (msg.has_value()) {
    check(alice);
    check(bob);
    sim::Party& sender = to_bob ? static_cast<sim::Party&>(alice) : bob;
    sim::Party& receiver = to_bob ? static_cast<sim::Party&>(bob) : alice;
    std::optional<sim::Outgoing> reply = receiver.on_message(msg->bits);
    if (msg->keep_floor) {
      ASSERT_FALSE(reply.has_value());
      msg = sender.next();
    } else {
      msg = std::move(reply);
      to_bob = !to_bob;
    }
  }
  EXPECT_EQ(stages_checked.size(), static_cast<std::size_t>(r));
  EXPECT_GT(alice.diag().total_bi_runs, 0u);
  EXPECT_EQ(alice.output(), p.expected_intersection);
  EXPECT_EQ(bob.output(), p.expected_intersection);
}

// Node contents and Basic-Intersection candidates live in the session's
// arena, per-stage storage is sized once and reused, and messages are
// built in the channel's recycled buffers, so a k = 4096 run asks the heap
// a few dozen times. The count is deterministic.
TEST(TreeFsm, K4096RunStaysUnderAllocationCeiling) {
  constexpr std::uint64_t kCeiling = 36;  // 33 measured, + 10%
  util::Rng wrng(4096);
  const util::SetPair p =
      util::random_set_pair(wrng, std::uint64_t{1} << 32, 4096, 2048);
  core::VerificationTreeParams params;
  params.bucket_count = 4096;
  sim::SharedRandomness shared(4096);
  const auto run = [&] {
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    {
      sim::Channel ch;
      const sim::PartyEnv env(ch);
      core::TreeParty alice(shared, 1, std::uint64_t{1} << 32, p.s, params,
                            env, sim::PartyId::kAlice);
      core::TreeParty bob(shared, 1, std::uint64_t{1} << 32, p.t, params,
                          env, sim::PartyId::kBob);
      sim::run_two_party(ch, alice, bob);
      EXPECT_EQ(alice.output(), p.expected_intersection);
    }
    return g_news.load(std::memory_order_relaxed) - before;
  };
  run();  // first use builds the phase-path table
  const std::uint64_t news = run();
  std::printf("[ allocations ] k=4096 tree-party run: %llu operator new\n",
              static_cast<unsigned long long>(news));
  EXPECT_LE(news, kCeiling);
  EXPECT_EQ(run(), news);
}

// A session keeps nothing process-wide that allocates, so two same-seed
// batches at two threads ask the heap equally often however the workers
// interleave. The mix has more distinct k than a 256-entry shared cache
// of tree shapes could hold; with one, which shapes were evicted, and so
// the count, would depend on the interleaving.
TEST(TreeFsm, SameSeedBatchesAllocateEqually) {
  util::Rng wrng(27);
  std::vector<util::SetPair> pairs;
  const double lo = std::log(16.0);
  const double hi = std::log(1024.0);
  for (int i = 0; i < 400; ++i) {
    const auto k = static_cast<std::size_t>(
        std::lround(std::exp(lo + (hi - lo) * wrng.unit())));
    pairs.push_back(
        util::random_set_pair(wrng, std::uint64_t{1} << 32, k, k / 2));
  }
  std::vector<Instance> batch;
  for (const util::SetPair& p : pairs) batch.push_back({p.s, p.t});
  IntersectOptions options;
  options.universe = std::uint64_t{1} << 32;
  options.seed = 27;
  const auto news = [&](std::span<const Instance> instances) {
    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    {
      const BatchResult out =
          run_batch(options, instances, {.threads = 2});
      for (std::size_t i = 0; i < out.results.size(); ++i) {
        EXPECT_EQ(out.results[i].intersection,
                  pairs[i].expected_intersection);
      }
    }
    return g_news.load(std::memory_order_relaxed) - before;
  };
  news(std::span(batch).first(8));  // first use builds the phase tables
  const std::uint64_t first = news(batch);
  const std::uint64_t second = news(batch);
  std::printf("[ allocations ] 400-session batch: %.2f operator new per "
              "session\n",
              static_cast<double>(first) / static_cast<double>(batch.size()));
  EXPECT_EQ(first, second);
}

}  // namespace
}  // namespace setint
