#include "sim/chaos.h"

#include <algorithm>

namespace setint::sim {

namespace {

void check_probability(double p, const char* field) {
  if (!(p >= 0.0) || !(p <= 1.0)) {
    throw std::invalid_argument(std::string("ChaosSpec: ") + field +
                                " must be in [0, 1]");
  }
}

void check_schedule(const CrashSchedule& sched, const char* field) {
  check_probability(sched.crash_prob, field);
}

std::pair<std::size_t, std::size_t> link_key(std::size_t a, std::size_t b) {
  return {std::min(a, b), std::max(a, b)};
}

bool window_covers(const PartitionWindow& w, std::size_t a, std::size_t b) {
  if (w.a == kAllLinks) return true;
  const auto key = link_key(a, b);
  return link_key(w.a, w.b) == key;
}

}  // namespace

PlayerCrashError::PlayerCrashError(std::size_t player_in,
                                   std::uint64_t revive_tick_in,
                                   bool permanent_in)
    : std::runtime_error(
          permanent_in
              ? "chaos: player " + std::to_string(player_in) +
                    " crashed and never returns"
              : "chaos: player " + std::to_string(player_in) +
                    " crashed (up again at tick " +
                    std::to_string(revive_tick_in) + ")"),
      player(player_in),
      revive_tick(revive_tick_in),
      permanent(permanent_in) {}

LinkPartitionedError::LinkPartitionedError(std::size_t a_in, std::size_t b_in,
                                           std::uint64_t heal_tick_in)
    : std::runtime_error("chaos: link (" + std::to_string(a_in) + ", " +
                         std::to_string(b_in) + ") partitioned (heals at tick " +
                         std::to_string(heal_tick_in) + ")"),
      a(a_in),
      b(b_in),
      heal_tick(heal_tick_in) {}

bool ChaosSpec::enabled() const {
  if (crash.crash_prob > 0.0) return true;
  for (const auto& [player, sched] : crash_overrides) {
    (void)player;
    if (sched.crash_prob > 0.0) return true;
  }
  for (const PartitionWindow& w : partitions) {
    if (w.end_tick > w.start_tick) return true;
  }
  return false;
}

ChaosPlan::ChaosPlan(const ChaosSpec& spec, std::uint64_t protocol_seed)
    : spec_(spec),
      protocol_seed_(protocol_seed),
      plan_seed_(util::mix64(spec.seed, protocol_seed)) {
  if (spec_.players < 2) {
    throw std::invalid_argument("ChaosSpec: players must be >= 2");
  }
  check_schedule(spec_.crash, "crash.crash_prob");
  for (const auto& [player, sched] : spec_.crash_overrides) {
    if (player >= spec_.players) {
      throw std::invalid_argument(
          "ChaosSpec: crash_overrides player out of range");
    }
    check_schedule(sched, "crash_overrides crash_prob");
  }
  for (const PartitionWindow& w : spec_.partitions) {
    if (w.end_tick < w.start_tick) {
      throw std::invalid_argument(
          "ChaosSpec: partition window end_tick < start_tick");
    }
    if (w.a != kAllLinks &&
        (w.a >= spec_.players || w.b >= spec_.players || w.a == w.b)) {
      throw std::invalid_argument("ChaosSpec: partition window names an "
                                  "invalid link");
    }
  }

  players_.reserve(spec_.players);
  for (std::size_t p = 0; p < spec_.players; ++p) {
    CrashSchedule sched = spec_.crash;
    for (const auto& [player, override_sched] : spec_.crash_overrides) {
      if (player == p) sched = override_sched;
    }
    players_.emplace_back(sched,
                          util::mix64(plan_seed_, util::mix64(0xC4A5, p)));
  }
}

void ChaosPlan::advance_to(std::uint64_t tick) {
  now_ = std::max(now_, tick);
}

ChaosPlan::PlayerState& ChaosPlan::player_state(std::size_t p) {
  if (p >= players_.size()) {
    throw std::invalid_argument("ChaosPlan: player id out of range");
  }
  return players_[p];
}

void ChaosPlan::check_crash(std::size_t p) {
  PlayerState& ps = player_state(p);
  if (ps.dead) {
    stats_.blocked_sends += 1;
    throw PlayerCrashError(p, 0, /*permanent=*/true);
  }
  if (ps.down_until > now_) {
    stats_.blocked_sends += 1;
    throw PlayerCrashError(p, ps.down_until, /*permanent=*/false);
  }
  if (ps.sched.crash_prob > 0.0 && ps.rng.unit() < ps.sched.crash_prob) {
    ps.crashes += 1;
    stats_.crashes += 1;
    stats_.blocked_sends += 1;
    if (ps.crashes > ps.sched.max_crashes) {
      ps.dead = true;
      stats_.permanent_losses += 1;
      throw PlayerCrashError(p, 0, /*permanent=*/true);
    }
    ps.down_until = now_ + ps.sched.restart_ticks;
    throw PlayerCrashError(p, ps.down_until, /*permanent=*/false);
  }
}

void ChaosPlan::on_send_attempt(std::size_t a, std::size_t b) {
  now_ += 1;
  stats_.ticks += 1;
  check_crash(a);
  check_crash(b);
  std::uint64_t heal = 0;
  for (const PartitionWindow& w : spec_.partitions) {
    if (window_covers(w, a, b) && w.start_tick <= now_ && now_ < w.end_tick) {
      heal = std::max(heal, w.end_tick);
    }
  }
  if (heal > 0) {
    stats_.partition_blocks += 1;
    stats_.blocked_sends += 1;
    throw LinkPartitionedError(a, b, heal);
  }
}

bool ChaosPlan::player_dead(std::size_t p) const {
  return p < players_.size() && players_[p].dead;
}

}  // namespace setint::sim
