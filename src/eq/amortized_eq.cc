#include "eq/amortized_eq.h"

#include <cmath>
#include <stdexcept>

#include "eq/equality.h"
#include "obs/tracer.h"
#include "util/iterated_log.h"
#include "util/rng.h"

namespace setint::eq {

namespace {

using Group = std::vector<std::size_t>;

// Self-delimiting concatenation of one side's contents for a group:
// gamma(length) + payload per item, so distinct item tuples encode
// distinctly. Appends into a caller-owned buffer so word storage is
// reused across tests.
void group_content(const Group& group,
                   const std::vector<util::BitBuffer>& side,
                   util::BitBuffer& out) {
  out.clear();
  for (std::size_t idx : group) {
    out.append_gamma64(side[idx].size_bits());
    out.append_buffer(side[idx]);
  }
}

// Content-encode scratch shared by every test_groups call in one
// amortized_equality run: the level-0 test has the most groups, so later
// (smaller) batches reuse its buffers' word storage instead of
// re-allocating per call.
struct ContentScratch {
  std::vector<util::BitBuffer> a;
  std::vector<util::BitBuffer> b;
};

// One batched hash comparison over `groups` with `bits` bits per group.
// Two rounds. Returns per-group pass flags.
std::vector<bool> test_groups(sim::Channel& channel,
                              const sim::SharedRandomness& shared,
                              std::uint64_t batch_nonce,
                              const std::vector<Group>& groups,
                              const std::vector<util::BitBuffer>& xs,
                              const std::vector<util::BitBuffer>& ys,
                              std::size_t bits, ContentScratch& scratch) {
  if (scratch.a.size() < groups.size()) {
    scratch.a.resize(groups.size());
    scratch.b.resize(groups.size());
  }
  for (std::size_t g = 0; g < groups.size(); ++g) {
    group_content(groups[g], xs, scratch.a[g]);
    group_content(groups[g], ys, scratch.b[g]);
  }
  const auto n = static_cast<std::ptrdiff_t>(groups.size());
  const std::vector<util::BitSpan> a(scratch.a.begin(), scratch.a.begin() + n);
  const std::vector<util::BitSpan> b(scratch.b.begin(), scratch.b.begin() + n);
  return batch_equality_test(channel, shared, batch_nonce, a, b, bits);
}

}  // namespace

std::vector<bool> amortized_equality(sim::Channel& channel,
                                     const sim::SharedRandomness& shared,
                                     std::uint64_t nonce,
                                     const std::vector<util::BitBuffer>& xs,
                                     const std::vector<util::BitBuffer>& ys,
                                     AmortizedEqStats* stats,
                                     core::Checkpoint* ckpt) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("amortized_equality: size mismatch");
  }
  const std::size_t k = xs.size();
  std::vector<bool> equal(k, true);  // overwritten for resolved-unequal items
  if (k == 0) return equal;

  std::vector<Group> groups;
  unsigned start_level = 0;
  if (ckpt != nullptr && ckpt->has("amortized_eq")) {
    // Crash resume: resolved verdicts and surviving groups come out of the
    // snapshot; the protocol continues at the first unfinished level.
    util::BitReader rd(ckpt->state());
    const std::uint64_t saved_k = rd.read_gamma64();
    if (saved_k != k) {
      throw std::logic_error("amortized_equality: checkpoint instance count "
                             "mismatch");
    }
    for (std::size_t i = 0; i < k; ++i) equal[i] = rd.read_bit();
    const std::uint64_t ngroups = rd.read_gamma64();
    groups.reserve(ngroups);
    for (std::uint64_t g = 0; g < ngroups; ++g) {
      Group group(rd.read_gamma64());
      for (std::size_t& idx : group) {
        idx = static_cast<std::size_t>(rd.read_gamma64());
      }
      groups.push_back(std::move(group));
    }
    start_level = static_cast<unsigned>(ckpt->phase());
    ckpt->note_restore();
  } else {
    groups.reserve(k);
    for (std::size_t i = 0; i < k; ++i) groups.push_back(Group{i});
  }

  const unsigned max_level = k >= 2 ? util::ceil_log2(k) : 0;
  ContentScratch scratch;
  AmortizedEqStats local_stats;
  obs::Tracer* tracer = channel.tracer();
  obs::Span protocol_span(tracer, "amortized_eq");
  obs::count(tracer, "eq.amortized_instances", k);

  for (unsigned level = start_level; level <= max_level + 16; ++level) {
    obs::Span level_span(tracer, "level=" + std::to_string(level));
    const auto beta = static_cast<std::size_t>(
        std::max(1.0, std::round(std::pow(2.0, level / 2.0))));
    obs::observe(tracer, "eq.mask_bits", beta);
    std::uint64_t batch = 0;
    const auto batch_nonce = [&](std::uint64_t b) {
      return util::mix64(nonce, util::mix64(level, b));
    };

    const std::vector<bool> pass = test_groups(
        channel, shared, batch_nonce(batch++), groups, xs, ys, beta, scratch);

    std::vector<Group> survivors;
    std::vector<Group> pending;
    for (std::size_t g = 0; g < groups.size(); ++g) {
      (pass[g] ? survivors : pending).push_back(std::move(groups[g]));
    }

    // Binary-search the failed groups down to the unequal culprits. Each
    // BFS wave is one more batched test (two rounds); all failed groups
    // advance together so round cost stays O(level) per level.
    while (!pending.empty()) {
      std::vector<Group> halves;
      for (Group& g : pending) {
        if (g.size() == 1) {
          // The mismatching hash already certifies inequality (one-sided).
          equal[g[0]] = false;
          continue;
        }
        const std::size_t mid = g.size() / 2;
        halves.emplace_back(g.begin(), g.begin() + mid);
        halves.emplace_back(g.begin() + mid, g.end());
      }
      if (halves.empty()) break;
      local_stats.split_tests += halves.size();
      obs::count(tracer, "eq.split_tests", halves.size());
      obs::Span split_span(tracer, "binary_search");
      const std::vector<bool> half_pass =
          test_groups(channel, shared, batch_nonce(batch++), halves, xs, ys,
                      beta, scratch);
      pending.clear();
      for (std::size_t h = 0; h < halves.size(); ++h) {
        (half_pass[h] ? survivors : pending).push_back(std::move(halves[h]));
      }
    }

    groups = std::move(survivors);
    local_stats.levels = level + 1;
    if (groups.empty()) break;
    if (level >= max_level && groups.size() <= 1) break;

    // Merge adjacent survivors pairwise for the next level.
    std::vector<Group> merged;
    merged.reserve((groups.size() + 1) / 2);
    for (std::size_t g = 0; g + 1 < groups.size(); g += 2) {
      Group m = std::move(groups[g]);
      m.insert(m.end(), groups[g + 1].begin(), groups[g + 1].end());
      merged.push_back(std::move(m));
    }
    if (groups.size() % 2 == 1) merged.push_back(std::move(groups.back()));
    groups = std::move(merged);

    // Phase boundary: level complete, both parties agree on the verdicts
    // so far and the merged survivor groups. (Not reached when the run
    // finished above, so a restored snapshot always has live groups.)
    if (ckpt != nullptr) {
      util::BitBuffer blob;
      blob.append_gamma64(k);
      for (std::size_t i = 0; i < k; ++i) blob.append_bit(equal[i]);
      blob.append_gamma64(groups.size());
      for (const Group& g : groups) {
        blob.append_gamma64(g.size());
        for (std::size_t idx : g) blob.append_gamma64(idx);
      }
      ckpt->save("amortized_eq", level + 1, std::move(blob),
                 channel.cost().bits_total);
    }
  }

  obs::observe(tracer, "eq.levels", local_stats.levels);
  if (stats != nullptr) *stats = local_stats;
  return equal;
}

}  // namespace setint::eq
