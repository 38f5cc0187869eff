#include "run_spec.h"

#include <concepts>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <string_view>
#include <tuple>

#include "util/parse.h"

namespace setint {

namespace {

// Composite values are records, their members joined by ':' (',' for the
// burst). Lists join records by ';' and numbers by ','. An overlay
// carries no burst (FaultPlan::set_link_faults refuses one).
auto members(sim::GilbertElliott& g) {
  return std::tie(g.p_good_to_bad, g.p_bad_to_good, g.loss_good, g.loss_bad,
                  g.flip_good, g.flip_bad);
}
auto members(sim::LinkFaults& o) {
  return std::tie(o.a, o.b, o.spec.flip_per_bit, o.spec.truncate_prob,
                  o.spec.drop_prob, o.spec.duplicate_prob, o.spec.delay_prob,
                  o.spec.delay_rounds, o.spec.seed);
}
auto members(std::pair<std::size_t, sim::CrashSchedule>& o) {
  return std::tie(o.first, o.second.crash_prob, o.second.restart_ticks,
                  o.second.max_crashes);
}
auto members(sim::PartitionWindow& w) {
  return std::tie(w.a, w.b, w.start_tick, w.end_tick);
}

template <typename T>
concept Record = requires(T& rec) { members(rec); };
template <typename T>
constexpr char kSep = std::same_as<T, sim::GilbertElliott> ? ',' : ':';
template <typename T>
constexpr char kListSep = std::integral<T> ? ',' : ';';

std::vector<std::string_view> split(std::string_view text, char sep) {
  std::vector<std::string_view> out;
  for (std::size_t pos = 0;;) {
    const std::size_t next = text.find(sep, pos);
    out.push_back(text.substr(pos, next - pos));
    if (next == std::string_view::npos) return out;
    pos = next + 1;
  }
}

std::string encode(bool v) { return v ? "1" : "0"; }
std::string encode(double v) {  // %.17g round-trips every double
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
std::string encode(const std::string& v) { return v; }
std::string encode(std::integral auto v) { return std::to_string(v); }
template <Record T>
std::string encode(T rec) {
  std::string out;
  std::apply([&](auto&... f) { ((out += encode(f) + kSep<T>), ...); },
             members(rec));
  out.pop_back();
  return out;
}
template <typename T>
std::string encode(const std::vector<T>& items) {
  std::string out;
  for (const T& item : items) out += encode(item) + kListSep<T>;
  if (!out.empty()) out.pop_back();
  return out;
}

// Each throws on a malformed value.
void decode(std::string_view text, bool& out) {
  if (text != "0" && text != "1") throw std::invalid_argument("not 0/1");
  out = text == "1";
}
void decode(std::string_view text, std::string& out) { out = text; }
template <typename T>
  requires std::integral<T> || std::floating_point<T>
void decode(std::string_view text, T& out) {
  out = util::parse_number<T>("", text);
}
template <Record T>
void decode(std::string_view text, T& rec) {
  const std::vector<std::string_view> parts = split(text, kSep<T>);
  std::apply(
      [&](auto&... f) {
        if (parts.size() != sizeof...(f)) throw std::invalid_argument("");
        std::size_t i = 0;
        (decode(parts[i++], f), ...);
      },
      members(rec));
}
template <typename T>
void decode(std::string_view text, std::vector<T>& items) {
  items.clear();
  if (text.empty()) return;
  for (std::string_view part : split(text, kListSep<T>)) {
    decode(part, items.emplace_back());
  }
}

// Every key but "kind", in written order. `io` writes (Writer, const
// spec) or reads (Reader) each, so the two directions cannot drift.
template <typename Spec, typename Io>
void for_each_key(Spec& spec, Io& io) {
  io.item("seed", spec.seed);
  io.item("universe", spec.universe);
  io.item("rounds_r", spec.rounds_r);
  io.item("s", spec.s);
  io.item("t", spec.t);
  io.item("checkpoint", spec.checkpoint);
  auto& retry = spec.retry;
  io.item("retry.max_attempts", retry.max_attempts);
  io.item("retry.backoff_rounds", retry.backoff_rounds);
  io.item("retry.backoff_multiplier", retry.backoff_multiplier);
  io.item("retry.backoff_cap_rounds", retry.backoff_cap_rounds);
  io.item("retry.backoff_jitter", retry.backoff_jitter);
  io.item("retry.degraded_attempts", retry.degraded_attempts);
  io.item("retry.max_restarts", retry.max_restarts);
  io.item("retry.max_resume_wait_rounds", retry.max_resume_wait_rounds);
  if (io.block(spec.budget != core::SessionBudgetSpec{})) {
    io.item("budget.max_bits", spec.budget.max_bits);
    io.item("budget.max_rounds", spec.budget.max_rounds);
    io.item("budget.deadline_ticks", spec.budget.deadline_ticks);
    io.item("budget.refuse_on_exhaustion", spec.budget.refuse_on_exhaustion);
  }
  if (io.block(spec.limits != core::ResourceLimits{})) {
    io.item("limits.max_message_bits", spec.limits.max_message_bits);
    io.item("limits.max_decoded_items", spec.limits.max_decoded_items);
  }
  if (auto* fault = io.plan(spec.fault, "fault.")) {
    io.item("fault.flip_per_bit", fault->spec.flip_per_bit);
    io.item("fault.truncate_prob", fault->spec.truncate_prob);
    io.item("fault.drop_prob", fault->spec.drop_prob);
    io.item("fault.duplicate_prob", fault->spec.duplicate_prob);
    io.item("fault.delay_prob", fault->spec.delay_prob);
    io.item("fault.delay_rounds", fault->spec.delay_rounds);
    io.item("fault.burst", fault->spec.burst);
    io.item("fault.seed", fault->spec.seed);
    io.nonempty("fault.overlays", fault->overlays);
  }
  if (auto* chaos = io.plan(spec.chaos, "chaos.")) {
    io.item("chaos.players", chaos->spec.players);
    io.item("chaos.seed", chaos->spec.seed);
    io.item("chaos.protocol_seed", chaos->protocol_seed);
    io.item("chaos.crash_prob", chaos->spec.crash.crash_prob);
    io.item("chaos.restart_ticks", chaos->spec.crash.restart_ticks);
    io.item("chaos.max_crashes", chaos->spec.crash.max_crashes);
    io.nonempty("chaos.overrides", chaos->spec.crash_overrides);
    io.nonempty("chaos.partitions", chaos->spec.partitions);
  }
  io.nonempty("non_replayable", spec.non_replayable);
}

struct Writer {
  ReplayContext out;

  void item(const char* key, const auto& v) {
    out.emplace_back(key, encode(v));
  }
  void nonempty(const char* key, const auto& v) {
    if (!v.empty()) item(key, v);
  }
  bool block(bool non_default) { return non_default; }
  auto plan(const auto& p, std::string_view) { return p ? &*p : nullptr; }
};

std::invalid_argument refusal(const std::string& what) {
  return std::invalid_argument("replay context: " + what);
}

struct Reader {
  std::map<std::string, std::string, std::less<>> unread;

  void item(const char* key, auto& out) {
    const auto it = unread.find(key);
    if (it == unread.end()) return;
    try {
      decode(it->second, out);
    } catch (const std::exception&) {
      throw refusal("malformed " + it->first + ": '" + it->second + "'");
    }
    unread.erase(it);
  }
  void nonempty(const char* key, auto& out) { item(key, out); }
  bool block(bool) { return true; }
  auto plan(auto& p, std::string_view prefix) {
    const auto it = unread.lower_bound(prefix);
    const bool any = it != unread.end() && it->first.starts_with(prefix);
    return any ? &p.emplace() : nullptr;
  }
};

}  // namespace

ReplayContext to_context(const RunSpec& spec) {
  Writer writer{{{"kind", "two_party"}}};
  for_each_key(spec, writer);
  return std::move(writer.out);
}

RunSpec parse_context(const obs::Json& context) {
  Reader reader;
  for (const auto& [key, value] : context.object_items()) {
    if (!value.is_string()) throw refusal(key + " is not a string");
    reader.unread.emplace(key, value.as_string());
  }
  for (const std::string key : {"kind", "seed", "universe", "s", "t"}) {
    if (!reader.unread.contains(key)) throw refusal("missing " + key);
  }
  if (reader.unread.extract("kind").mapped() != "two_party") {
    throw refusal("kind is not two_party");
  }
  RunSpec spec;
  for_each_key(spec, reader);
  if (!reader.unread.empty()) {
    throw refusal("unknown key " + reader.unread.begin()->first);
  }
  return spec;
}

RunSpec run_spec_of(util::SetView s, util::SetView t, std::uint64_t universe,
                    const IntersectOptions& options) {
  RunSpec spec{{s.begin(), s.end()}, {t.begin(), t.end()}, options.seed,
               universe, options.rounds_r, options.checkpoint, options.retry,
               options.budget, options.limits, {}, {}, {}};
  const auto mark = [&](const char* reason) {
    spec.non_replayable += spec.non_replayable.empty() ? "" : "; ";
    spec.non_replayable += reason;
  };
  if (options.adversary != nullptr) mark("adversary");
  // run() builds fresh plans: a used one is in a state no spec describes.
  if (const sim::FaultPlan* plan = options.fault_plan) {
    spec.fault = RunSpec::Faults{plan->spec(), plan->overlays()};
    if (plan->stats().messages_seen > 0) mark("fault plan reused");
  }
  if (const sim::ChaosPlan* plan = options.chaos_plan) {
    spec.chaos = RunSpec::Chaos{plan->spec(), plan->protocol_seed()};
    if (plan->now() > 0) mark("chaos plan reused");
  }
  // Its ring, incident count and transcript digest carry the earlier
  // session's events, so its dumps would not match a replay's.
  if (options.recorder != nullptr && options.recorder->recorded() > 0) {
    mark("recorder reused");
  }
  return spec;
}

IntersectResult run(const RunSpec& spec, obs::FlightRecorder* recorder) {
  IntersectOptions options;
  options.universe = spec.universe;
  options.seed = spec.seed;
  options.rounds_r = spec.rounds_r;
  options.recorder = recorder;
  options.limits = spec.limits;
  options.retry = spec.retry;
  options.checkpoint = spec.checkpoint;
  options.budget = spec.budget;
  std::optional<sim::FaultPlan> fault_plan;
  if (spec.fault) {
    fault_plan.emplace(spec.fault->spec);
    for (const sim::LinkFaults& o : spec.fault->overlays) {
      fault_plan->set_link_faults(o.a, o.b, o.spec);
    }
    options.fault_plan = &*fault_plan;
  }
  std::optional<sim::ChaosPlan> chaos_plan;
  if (spec.chaos) {
    options.chaos_plan =
        &chaos_plan.emplace(spec.chaos->spec, spec.chaos->protocol_seed);
  }
  return intersect(spec.s, spec.t, options);
}

}  // namespace setint
