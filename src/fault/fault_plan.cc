#include "fault/fault_plan.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <span>
#include <tuple>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "sim/logging.h"

namespace muxwise::fault {

namespace {

// ---------------------------------------------------------------------------
// The "faults" block's field table: the one place that knows the DSL.
// ---------------------------------------------------------------------------

/**
 * One DSL field of a fault entry: its key, the entry member it fills,
 * and whether it is required. An absent optional field keeps the
 * member's default from the entry struct. A `std::size_t` member is an
 * instance index, a `sim::Time` one a time in seconds.
 */
template <typename Entry>
struct Field {
  const char* key;
  std::variant<std::size_t Entry::*, sim::Time Entry::*, double Entry::*,
               bool Entry::*>
      member;
  bool required = false;
};

/**
 * One fault kind: its array key in the block, the noun its messages use,
 * and its entries' fields.
 */
template <typename Entry>
struct Kind {
  const char* key;
  const char* noun;
  std::vector<Entry> FaultPlan::*entries;
  std::span<const Field<Entry>> fields;
};

constexpr Field<CrashEvent> kCrashFields[] = {
    {"instance", &CrashEvent::instance},
    {"at_seconds", &CrashEvent::at, true},
    {"recover_at_seconds", &CrashEvent::recover_at},
};
constexpr Field<StragglerWindow> kStragglerFields[] = {
    {"instance", &StragglerWindow::instance},
    {"from_seconds", &StragglerWindow::from, true},
    {"to_seconds", &StragglerWindow::to, true},
    {"slowdown", &StragglerWindow::slowdown},
};
constexpr Field<TransferFaultWindow> kTransferFields[] = {
    {"from_seconds", &TransferFaultWindow::from, true},
    {"to_seconds", &TransferFaultWindow::to, true},
    {"probability", &TransferFaultWindow::failure_probability, true},
};
constexpr Field<ZombieWindow> kZombieFields[] = {
    {"instance", &ZombieWindow::instance},
    {"from_seconds", &ZombieWindow::from, true},
    {"to_seconds", &ZombieWindow::to, true},
};
constexpr Field<FlapWindow> kFlapFields[] = {
    {"instance", &FlapWindow::instance},
    {"link", &FlapWindow::link},
    {"from_seconds", &FlapWindow::from, true},
    {"to_seconds", &FlapWindow::to, true},
    {"period_seconds", &FlapWindow::period, true},
    {"duty_up", &FlapWindow::duty_up},
};
constexpr Field<DegradeWindow> kDegradeFields[] = {
    {"instance", &DegradeWindow::instance},
    {"link", &DegradeWindow::link},
    {"from_seconds", &DegradeWindow::from, true},
    {"to_seconds", &DegradeWindow::to, true},
    {"flops_factor", &DegradeWindow::flops_factor},
    {"bandwidth_factor", &DegradeWindow::bandwidth_factor},
};
constexpr Field<PartitionWindow> kPartitionFields[] = {
    {"instance", &PartitionWindow::instance},
    {"from_seconds", &PartitionWindow::from, true},
    {"to_seconds", &PartitionWindow::to, true},
    {"drop_to_replica", &PartitionWindow::drop_to_replica},
    {"drop_from_replica", &PartitionWindow::drop_from_replica},
};

/** Calls `visit` on each kind in block order until it returns false. */
template <typename Visit>
bool ForEachKind(Visit&& visit) {
  using K = FaultPlan;
  return visit(Kind<CrashEvent>{"crashes", "crash", &K::crashes,
                                kCrashFields}) &&
         visit(Kind<StragglerWindow>{"stragglers", "straggler",
                                     &K::stragglers, kStragglerFields}) &&
         visit(Kind<TransferFaultWindow>{"transfer_drops", "transfer-fault",
                                         &K::transfer_faults,
                                         kTransferFields}) &&
         visit(Kind<ZombieWindow>{"zombies", "zombie", &K::zombies,
                                  kZombieFields}) &&
         visit(Kind<FlapWindow>{"flaps", "flap", &K::flaps, kFlapFields}) &&
         visit(Kind<DegradeWindow>{"degrades", "degrade", &K::degrades,
                                   kDegradeFields}) &&
         visit(Kind<PartitionWindow>{"partitions", "partition",
                                     &K::partitions, kPartitionFields});
}

std::string EntryPath(const char* key, std::size_t index) {
  return std::string(key) + "[" + std::to_string(index) + "]";
}

// ---------------------------------------------------------------------------
// Validation rules.
// ---------------------------------------------------------------------------

/** The first rule a plan breaks: the entry's path and the reason. */
struct Defect {
  std::string entry;  // "zombies[0]"; empty when the plan is well-formed.
  std::string reason;
};

// Per-entry rules beyond a window's own [from, to): the reason an
// entry is malformed, or "".

std::string EntryDefect(const CrashEvent& crash) {
  if (crash.at < 0) return "crash before t=0";
  if (crash.recover_at <= crash.at) {
    return "crash at t=" + std::to_string(crash.at) + " recovers at t=" +
           std::to_string(crash.recover_at) +
           " (must be strictly later, or kTimeNever)";
  }
  return "";
}

std::string EntryDefect(const StragglerWindow& w) {
  if (w.slowdown < 1.0) {
    return "straggler slowdown " + std::to_string(w.slowdown) + " < 1";
  }
  return "";
}

std::string EntryDefect(const TransferFaultWindow& w) {
  if (w.failure_probability < 0.0 || w.failure_probability >= 1.0) {
    return "transfer failure probability " +
           std::to_string(w.failure_probability) + " outside [0, 1)";
  }
  return "";
}

std::string EntryDefect(const ZombieWindow&) { return ""; }

std::string EntryDefect(const FlapWindow& w) {
  if (w.period <= 0) {
    return "flap period " + std::to_string(w.period) + " must be > 0";
  }
  if (w.duty_up <= 0.0 || w.duty_up >= 1.0) {
    return "flap duty cycle " + std::to_string(w.duty_up) + " outside (0, 1)";
  }
  return "";
}

std::string EntryDefect(const DegradeWindow& w) {
  if (w.flops_factor <= 0.0 || w.flops_factor > 1.0 ||
      w.bandwidth_factor <= 0.0 || w.bandwidth_factor > 1.0) {
    return "degrade factors (" + std::to_string(w.flops_factor) + ", " +
           std::to_string(w.bandwidth_factor) + ") outside (0, 1]";
  }
  if (w.link && w.flops_factor != 1.0) {
    return "link degrade carries flops_factor " +
           std::to_string(w.flops_factor) +
           " (a wire has no FLOPs; must be 1)";
  }
  return "";
}

std::string EntryDefect(const PartitionWindow& w) {
  if (w.drop_to_replica && w.drop_from_replica) {
    return "partition on instance " + std::to_string(w.instance) +
           " drops both directions (indistinguishable from a crash; use "
           "Crash)";
  }
  if (!w.drop_to_replica && !w.drop_from_replica) {
    return "partition on instance " + std::to_string(w.instance) +
           " drops neither direction (a no-op)";
  }
  return "";
}

/** What a window occupies: the link (true, 0) or an instance. */
using Target = std::pair<bool, std::size_t>;

Target TargetOf(const ZombieWindow& w) { return {false, w.instance}; }
Target TargetOf(const PartitionWindow& w) { return {false, w.instance}; }
Target TargetOf(const FlapWindow& w) {
  return {w.link, w.link ? 0 : w.instance};
}
Target TargetOf(const DegradeWindow& w) {
  return {w.link, w.link ? 0 : w.instance};
}

/**
 * First overlap among [from, to) windows sharing one target. Two
 * overlapping windows on one target would interleave their begin/end
 * edges, leaving the target in whichever state the last edge happened
 * to set — a "valid" plan whose effect is not the one it declares.
 */
template <typename Window>
Defect WindowOverlap(const Kind<Window>& kind,
                     const std::vector<Window>& windows) {
  std::map<Target, std::vector<std::tuple<sim::Time, sim::Time, std::size_t>>>
      by_target;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    by_target[TargetOf(windows[i])].emplace_back(windows[i].from,
                                                 windows[i].to, i);
  }
  for (auto& [target, spans] : by_target) {
    std::sort(spans.begin(), spans.end());
    for (std::size_t i = 1; i < spans.size(); ++i) {
      const auto& [prev_from, prev_to, prev_index] = spans[i - 1];
      const auto& [from, to, index] = spans[i];
      if (from < prev_to) {
        const std::string label =
            target.first ? "the link"
                         : "instance " + std::to_string(target.second);
        return {EntryPath(kind.key, index),
                "overlapping " + std::string(kind.noun) + " windows on " +
                    label + " ([" + std::to_string(prev_from) + ", " +
                    std::to_string(prev_to) + ") and [" +
                    std::to_string(from) + ", " + std::to_string(to) + "))"};
      }
    }
  }
  return {};
}

/**
 * Crash windows must not overlap per instance. A second crash that
 * fires inside (or before) an earlier crash's window interleaves
 * crash/recover events in an order the plan never intended — e.g. an
 * instance silently resurrected by a stale recovery, or left down
 * forever because its recovery landed before a later crash — and the
 * run is "valid" but meaningless.
 */
Defect CrashOverlap(const char* key, const std::vector<CrashEvent>& crashes) {
  std::map<std::size_t, std::vector<std::size_t>> by_instance;
  for (std::size_t i = 0; i < crashes.size(); ++i) {
    by_instance[crashes[i].instance].push_back(i);
  }
  for (auto& [instance, order] : by_instance) {
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::tie(crashes[a].at, a) < std::tie(crashes[b].at, b);
    });
    for (std::size_t i = 1; i < order.size(); ++i) {
      const CrashEvent& prev = crashes[order[i - 1]];
      const CrashEvent& next = crashes[order[i]];
      if (prev.recover_at == sim::kTimeNever) {
        return {EntryPath(key, order[i]),
                "instance " + std::to_string(instance) + " crashes at t=" +
                    std::to_string(next.at) +
                    " after never recovering from its crash at t=" +
                    std::to_string(prev.at)};
      }
      if (next.at < prev.recover_at) {
        return {EntryPath(key, order[i]),
                "instance " + std::to_string(instance) +
                    " crashes again at t=" + std::to_string(next.at) +
                    " before recovering at t=" +
                    std::to_string(prev.recover_at) +
                    " (overlapping crash windows)"};
      }
    }
  }
  return {};
}

/** " on instance N", " on the link", or "" for a window of no target. */
template <typename Window>
std::string OnTarget(const Window& w) {
  if constexpr (requires { w.link; }) {
    if (w.link) return " on the link";
  }
  if constexpr (requires { w.instance; }) {
    return " on instance " + std::to_string(w.instance);
  } else {
    return "";
  }
}

/** One kind's entry rules in entry order, then its cross-entry rule. */
template <typename Entry>
Defect KindDefect(const Kind<Entry>& kind, const std::vector<Entry>& entries) {
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    std::string reason;
    if constexpr (requires { e.from; }) {
      if (e.from < 0 || e.to <= e.from) {
        reason = "inverted " + std::string(kind.noun) + " window [" +
                 std::to_string(e.from) + ", " + std::to_string(e.to) + ")";
      } else if (e.to == sim::kTimeNever) {
        // Every window closes: a fault without an end would, say, freeze
        // a device and strand its work, and no plan file can write it.
        reason = std::string(kind.noun) + " window" + OnTarget(e) +
                 " never ends";
      }
    }
    if (reason.empty()) reason = EntryDefect(e);
    if (!reason.empty()) return {EntryPath(kind.key, i), std::move(reason)};
  }
  if constexpr (std::is_same_v<Entry, CrashEvent>) {
    return CrashOverlap(kind.key, entries);
  } else if constexpr (requires { TargetOf(entries.front()); }) {
    return WindowOverlap(kind, entries);
  } else {
    return {};  // Straggler and transfer-loss windows may overlap.
  }
}

/** The first defect of the plan, kind by kind in block order. */
Defect FirstDefect(const FaultPlan& plan) {
  // PlanToJson writes the seed as a number, which must read back exactly.
  if (plan.seed > static_cast<std::uint64_t>(json::kMaxExactInteger)) {
    return {"seed", "above 2^53 - 1, not exactly representable"};
  }
  Defect defect;
  ForEachKind([&](const auto& kind) {
    defect = KindDefect(kind, plan.*kind.entries);
    return defect.entry.empty();
  });
  return defect;
}

// ---------------------------------------------------------------------------
// Field reads and writes.
// ---------------------------------------------------------------------------

/** A time in seconds as ReadField reads it: the nearest nanosecond. */
double Nanoseconds(double seconds) { return std::round(seconds * 1e9); }

/**
 * The decimal number of seconds with the fewest significant digits that
 * ReadField reads back as `time`. One exists for every time below 2^51
 * ns (26 days); past that, the nearest double, which may read back a
 * nanosecond or two off.
 */
double ShortestSeconds(sim::Time time) {
  const double seconds = sim::ToSeconds(time);
  char text[32];
  for (int digits = 1; digits < 17; ++digits) {
    std::snprintf(text, sizeof(text), "%.*g", digits, seconds);
    const double shorter = std::strtod(text, nullptr);
    if (Nanoseconds(shorter) == static_cast<double>(time)) return shorter;
  }
  return seconds;
}

template <typename Entry>
bool ReadField(const json::Value& object, const std::string& path,
               const Field<Entry>& field, json::FieldReader& in,
               Entry& entry) {
  return std::visit(
      [&](auto member) {
        auto& value = entry.*member;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, std::size_t>) {
          // Range-checked before the cast, which Check() cannot see.
          auto instance = static_cast<std::int64_t>(value);
          if (!in.GetInteger(object, path, field.key, field.required,
                             &instance)) {
            return false;
          }
          if (instance < 0) {
            return in.Fail(path + "." + field.key, "must be >= 0");
          }
          value = static_cast<std::size_t>(instance);
          return true;
        } else if constexpr (std::is_same_v<T, sim::Time>) {
          const bool present = object.Find(field.key) != nullptr;
          double seconds = 0.0;
          if (!in.GetDouble(object, path, field.key, field.required,
                            &seconds)) {
            return false;
          }
          if (!present) return true;
          // A negative time stays negative, so Check() sees it.
          const double ns = Nanoseconds(seconds);
          if (!(ns >= -0x1p63 && ns < 0x1p63)) {
            return in.Fail(path + "." + field.key, "out of range");
          }
          value = static_cast<sim::Time>(ns);
          return true;
        } else if constexpr (std::is_same_v<T, double>) {
          return in.GetDouble(object, path, field.key, field.required,
                              &value);
        } else {
          return in.GetBool(object, path, field.key, field.required, &value);
        }
      },
      field.member);
}

template <typename Entry>
void WriteField(const Entry& entry, const Field<Entry>& field,
                json::Value& out) {
  std::visit(
      [&](auto member) {
        const auto& value = entry.*member;
        using T = std::decay_t<decltype(value)>;
        if constexpr (std::is_same_v<T, bool>) {
          json::SetKey(out, field.key, json::Bool(value));
        } else if constexpr (std::is_same_v<T, sim::Time>) {
          // An optional time at kTimeNever (no recovery) is left out.
          if (!field.required && value == sim::kTimeNever) return;
          json::SetKey(out, field.key, json::Num(ShortestSeconds(value)));
        } else {
          json::SetKey(out, field.key, json::Num(static_cast<double>(value)));
        }
      },
      field.member);
}

}  // namespace

FaultPlan& FaultPlan::Crash(std::size_t instance, sim::Time at,
                            sim::Time recover_at) {
  crashes.push_back({instance, at, recover_at});
  return *this;
}

FaultPlan& FaultPlan::Straggle(std::size_t instance, sim::Time from,
                               sim::Time to, double slowdown) {
  stragglers.push_back({instance, from, to, slowdown});
  return *this;
}

FaultPlan& FaultPlan::DropTransfers(sim::Time from, sim::Time to, double p) {
  transfer_faults.push_back({from, to, p});
  return *this;
}

FaultPlan& FaultPlan::Zombie(std::size_t instance, sim::Time from,
                             sim::Time to) {
  zombies.push_back({instance, from, to});
  return *this;
}

FaultPlan& FaultPlan::Flap(std::size_t instance, sim::Time from, sim::Time to,
                           sim::Duration period, double duty_up) {
  flaps.push_back({instance, false, from, to, period, duty_up});
  return *this;
}

FaultPlan& FaultPlan::FlapLink(sim::Time from, sim::Time to,
                               sim::Duration period, double duty_up) {
  flaps.push_back({0, true, from, to, period, duty_up});
  return *this;
}

FaultPlan& FaultPlan::Degrade(std::size_t instance, sim::Time from,
                              sim::Time to, double flops_factor,
                              double bandwidth_factor) {
  degrades.push_back(
      {instance, false, from, to, flops_factor, bandwidth_factor});
  return *this;
}

FaultPlan& FaultPlan::DegradeLink(sim::Time from, sim::Time to,
                                  double bandwidth_factor) {
  degrades.push_back({0, true, from, to, 1.0, bandwidth_factor});
  return *this;
}

FaultPlan& FaultPlan::Partition(std::size_t instance, sim::Time from,
                                sim::Time to, bool drop_to_replica,
                                bool drop_from_replica) {
  partitions.push_back(
      {instance, from, to, drop_to_replica, drop_from_replica});
  return *this;
}

std::string FaultPlan::Check() const {
  const Defect defect = FirstDefect(*this);
  return defect.entry.empty() ? "" : defect.entry + ": " + defect.reason;
}

void FaultPlan::Validate() const {
  const std::string error = Check();
  if (!error.empty()) sim::Fatal("fault plan: " + error);
}

bool PlanFromJson(const json::Value& value, const std::string& path,
                  json::FieldReader& in, FaultPlan* out) {
  std::vector<std::string> keys = {"seed"};
  ForEachKind([&](const auto& kind) {
    keys.push_back(kind.key);
    return true;
  });
  if (!in.RequireObject(&value, path) || !in.CheckKeys(value, path, keys)) {
    return false;
  }
  FaultPlan plan;
  auto seed = static_cast<std::int64_t>(plan.seed);
  if (!in.GetInteger(value, path, "seed", false, &seed)) return false;
  plan.seed = static_cast<std::uint64_t>(seed);

  const bool read = ForEachKind([&](const auto& kind) {
    const json::Value* array = value.Find(kind.key);
    if (array == nullptr) return true;
    if (!array->IsArray()) {
      return in.Fail(path + "." + kind.key, "expected an array");
    }
    std::vector<std::string> field_keys;
    for (const auto& field : kind.fields) field_keys.push_back(field.key);
    for (std::size_t i = 0; i < array->array.size(); ++i) {
      const std::string entry_path = path + "." + EntryPath(kind.key, i);
      const json::Value& object = array->array[i];
      if (!in.RequireObject(&object, entry_path) ||
          !in.CheckKeys(object, entry_path, field_keys)) {
        return false;
      }
      auto& entry = (plan.*kind.entries).emplace_back();
      for (const auto& field : kind.fields) {
        if (!ReadField(object, entry_path, field, in, entry)) return false;
      }
    }
    return true;
  });
  if (!read) return false;
  // A link has no instance: FlapLink and DegradeLink build it as 0.
  for (FlapWindow& w : plan.flaps) {
    if (w.link) w.instance = 0;
  }
  for (DegradeWindow& w : plan.degrades) {
    if (w.link) w.instance = 0;
  }

  if (plan.Empty()) {
    return in.Fail(path, "declared but contains no fault entries");
  }
  if (const Defect defect = FirstDefect(plan); !defect.entry.empty()) {
    return in.Fail(path + "." + defect.entry, defect.reason);
  }
  *out = std::move(plan);
  return true;
}

json::Value PlanToJson(const FaultPlan& plan) {
  json::Value faults = json::Obj();
  json::SetKey(faults, "seed", json::Num(static_cast<double>(plan.seed)));
  ForEachKind([&](const auto& kind) {
    const auto& entries = plan.*kind.entries;
    if (entries.empty()) return true;
    json::Value array = json::Arr();
    for (const auto& entry : entries) {
      json::Value object = json::Obj();
      for (const auto& field : kind.fields) WriteField(entry, field, object);
      array.array.push_back(std::move(object));
    }
    json::SetKey(faults, kind.key, std::move(array));
    return true;
  });
  return faults;
}

}  // namespace muxwise::fault
