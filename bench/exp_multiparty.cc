// E5 and E6 — the two multi-party corollaries.
//
// E5, Corollary 4.1 (coordinator protocol): average communication per
// player O(k log^(r) k) independent of m; rounds O(r * max(1, log(m)/log k)).
// Expected shape: the avg-bits/player column stays ~flat as m grows 256x;
// rounds grow only with the number of coordinator-recursion levels.
//
// E6, Corollary 4.2 (tournament protocol): bounded worst-case per-player
// communication, at the price of more rounds. Expected shape: tournament
// max-bits/player is far below the coordinator protocol's (which
// concentrates ~2k conversations on one player), while its round count is
// higher by about the bracket depth.
#include <algorithm>
#include <cstdio>

#include "bench_util.h"
#include "multiparty/coordinator.h"
#include "multiparty/tournament.h"
#include "sim/network.h"
#include "sim/randomness.h"
#include "util/rng.h"
#include "util/set_util.h"

int main(int argc, char** argv) {
  using namespace setint;
  auto rep = bench::Reporter::FromArgs("multiparty", argc, argv);
  const std::uint64_t universe = std::uint64_t{1} << 26;

  const std::vector<std::size_t> avg_ms = bench::sizes<std::size_t>(
      rep.options(), {4, 16, 64, 256, 1024}, {4, 16, 64});
  for (std::size_t k : {16u, 64u}) {
    auto& table =
        rep.table("E5: coordinator protocol, k = " + std::to_string(k) +
                      "  (Corollary 4.1)",
                  {"m", "avg bits/player", "avg/(k) per elem",
                   "max bits/player", "levels", "rounds", "exact"});
    for (std::size_t m : avg_ms) {
      util::Rng wrng(rep.seed_for(m * 7 + k));
      const util::MultiSetInstance inst =
          util::random_multi_sets(wrng, universe, m, k, k / 2);
      sim::Network net(m);
      sim::SharedRandomness shared(rep.seed_for(m + k, 1));
      const auto result =
          multiparty::coordinator_intersection(net, shared, universe, inst.sets);
      const bool exact = result.intersection == inst.expected_intersection;
      table.add_row(
          {bench::fmt_u64(m), bench::fmt_double(net.average_player_bits()),
           bench::fmt_double(net.average_player_bits() /
                             static_cast<double>(k)),
           bench::fmt_u64(net.max_player_bits()),
           bench::fmt_u64(result.levels), bench::fmt_u64(net.rounds()),
           exact ? "yes" : "NO"});
    }
    table.print();
  }
  std::printf(
      "\nShape check: avg bits/player is ~flat in m (the Corollary 4.1\n"
      "guarantee); max bits/player is ~2k times larger — the coordinator\n"
      "bottleneck that Corollary 4.2 (E6) removes.\n");

  const std::size_t k = 32;
  const std::vector<std::size_t> worst_ms = bench::sizes<std::size_t>(
      rep.options(), {4, 16, 64, 256}, {4, 16});
  auto& table = rep.table(
      "E6: worst-case player load, coordinator (Cor 4.1) vs tournament "
      "(Cor 4.2), k = 32",
      {"m", "coord max bits", "tour max bits", "ratio", "coord rounds",
       "tour rounds", "both exact"});
  for (std::size_t m : worst_ms) {
    util::Rng wrng(rep.seed_for(m * 13));
    const util::MultiSetInstance inst =
        util::random_multi_sets(wrng, universe, m, k, k / 2);
    sim::SharedRandomness shared(rep.seed_for(m));

    sim::Network coord_net(m);
    const auto coord = multiparty::coordinator_intersection(
        coord_net, shared, universe, inst.sets);
    sim::Network tour_net(m);
    const auto tour = multiparty::tournament_intersection(
        tour_net, shared, universe, inst.sets);

    const bool exact = coord.intersection == inst.expected_intersection &&
                       tour.intersection == inst.expected_intersection;
    const double ratio =
        static_cast<double>(coord_net.max_player_bits()) /
        static_cast<double>(std::max<std::uint64_t>(1,
                                                    tour_net.max_player_bits()));
    table.add_row({bench::fmt_u64(m),
                   bench::fmt_u64(coord_net.max_player_bits()),
                   bench::fmt_u64(tour_net.max_player_bits()),
                   bench::fmt_double(ratio),
                   bench::fmt_u64(coord_net.rounds()),
                   bench::fmt_u64(tour_net.rounds()),
                   exact ? "yes" : "NO"});
  }
  table.print();
  std::printf(
      "\nShape check: for m >= 2k the ratio column shows the tournament\n"
      "spreading the coordinator's load; tournament rounds grow by the\n"
      "bracket depth (~log2 of the group size) — the Corollary 4.2 trade.\n");
  return rep.finish();
}
