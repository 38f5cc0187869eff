// Multi-party set intersection, tournament variant (Corollary 4.2).
//
// Same group structure as the coordinator protocol, but inside each group
// the players sit at the leaves of a binary tournament: matches run the
// two-party protocol pairwise, the left player of each match carries the
// candidate intersection up a level, and only the final (root) match is
// certified with a 2k-bit equality check. Because every match output is a
// subset of both of its inputs and a superset of the true intersection
// (the protocol's one-sided invariants), a passing root certificate
// certifies the whole tree at once — the paper's "repeat the entire tree"
// is refined here to "retry the root match", which preserves the claimed
// guarantees (see DESIGN.md).
//
// Effect vs. Corollary 4.1: no single player talks to 2k peers; the
// worst-case per-player communication drops to O(depth * k log^(r) k) at
// the price of a depth factor in rounds.
//
// Every match, the root included, runs the pair session of
// multiparty/pair_sessions.h; the matches below the root run it with the
// certificate off. The tournament keeps only its brackets and nonces.
#pragma once

#include "multiparty/coordinator.h"

namespace setint::multiparty {

MultipartyResult tournament_intersection(sim::Network& network,
                                         const sim::SharedRandomness& shared,
                                         std::uint64_t universe,
                                         const std::vector<util::Set>& sets,
                                         const MultipartyParams& params = {});

}  // namespace setint::multiparty
