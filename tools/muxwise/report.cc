#include "muxwise/report.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>
#include <utility>

#include "muxwise/cli.h"
#include "sim/hash.h"
#include "sim/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace muxwise::cli {

using json::GetNumber;
using json::GetString;
using sim::HexDigest;

MachineInfo MachineInfo::Detect() {
  MachineInfo info;
#if defined(__unix__) || defined(__APPLE__)
  char host[256] = {0};
  if (gethostname(host, sizeof(host) - 1) == 0) info.host = host;
#endif
#if defined(__clang__)
  info.compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  info.compiler = std::string("gcc ") + __VERSION__;
#else
  info.compiler = "unknown";
#endif
#if defined(NDEBUG)
  info.build_type = "release";
#else
  info.build_type = "debug";
#endif
  info.hw_threads = static_cast<int>(std::thread::hardware_concurrency());
  // Prefer the affinity mask: in a cgroup-limited container,
  // hardware_concurrency() may report the host's full core count while
  // the process is pinned to far fewer — and it may also return 0 when
  // detection fails. Either way `cpus` must reflect what the process
  // can actually use, with a floor of 1.
#if defined(__linux__)
  cpu_set_t affinity;
  CPU_ZERO(&affinity);
  if (sched_getaffinity(0, sizeof(affinity), &affinity) == 0) {
    info.cpus = CPU_COUNT(&affinity);
  }
#endif
  if (info.cpus <= 0) info.cpus = info.hw_threads;
  if (info.cpus <= 0) info.cpus = 1;
  return info;
}

std::string ToJson(const BenchReport& report) {
  using json::Num;
  using json::SetKey;
  using json::Str;
  json::Value machine = json::Obj();
  SetKey(machine, "host", Str(report.machine.host));
  SetKey(machine, "compiler", Str(report.machine.compiler));
  SetKey(machine, "build_type", Str(report.machine.build_type));
  SetKey(machine, "cpus", Num(report.machine.cpus));
  SetKey(machine, "hw_threads", Num(report.machine.hw_threads));
  json::Value benches = json::Arr();
  for (const BenchResult& b : report.benches) {
    json::Value wall = json::Arr();
    for (const double ms : b.wall_ms) wall.array.push_back(Num(ms));
    json::Value entry = json::Obj();
    SetKey(entry, "name", Str(b.name));
    SetKey(entry, "ok", json::Bool(b.ok));
    SetKey(entry, "wall_ms", std::move(wall));
    SetKey(entry, "wall_ms_median", Num(b.wall_ms_median));
    SetKey(entry, "sim_events", Num(static_cast<double>(b.sim_events)));
    SetKey(entry, "events_per_sec", Num(b.events_per_sec));
    SetKey(entry, "digest", Str(HexDigest(b.digest)));
    SetKey(entry, "note", Str(b.note));
    benches.array.push_back(std::move(entry));
  }
  json::Value root = json::Obj();
  SetKey(root, "schema_version", Num(report.schema_version));
  SetKey(root, "suite", Str(report.suite));
  SetKey(root, "repeat", Num(report.repeat));
  SetKey(root, "machine", std::move(machine));
  SetKey(root, "benches", std::move(benches));
  return json::Dump(root) + "\n";
}

bool FromJson(const std::string& text, BenchReport& report,
              std::string& error) {
  json::Value root;
  if (!json::Parse(text, root, error)) return false;
  if (root.type != json::Value::Type::kObject) {
    error = "report root is not an object";
    return false;
  }
  const int version =
      static_cast<int>(GetNumber(root.Find("schema_version"), -1));
  if (version != BenchReport::kSchemaVersion) {
    error = "unsupported schema_version " + std::to_string(version) +
            " (expected " + std::to_string(BenchReport::kSchemaVersion) + ")";
    return false;
  }
  report.schema_version = version;
  report.suite = GetString(root.Find("suite"));
  report.repeat = static_cast<int>(GetNumber(root.Find("repeat")));
  if (const json::Value* machine = root.Find("machine");
      machine != nullptr && machine->type == json::Value::Type::kObject) {
    report.machine.host = GetString(machine->Find("host"));
    report.machine.compiler = GetString(machine->Find("compiler"));
    report.machine.build_type = GetString(machine->Find("build_type"));
    report.machine.cpus = static_cast<int>(GetNumber(machine->Find("cpus")));
    // hw_threads joined the schema after schema_version 1 shipped;
    // older reports simply leave it 0 (absent ≠ schema mismatch).
    report.machine.hw_threads =
        static_cast<int>(GetNumber(machine->Find("hw_threads")));
  }
  report.benches.clear();
  const json::Value* benches = root.Find("benches");
  if (benches == nullptr || benches->type != json::Value::Type::kArray) {
    error = "report has no benches array";
    return false;
  }
  for (const json::Value& entry : benches->array) {
    if (entry.type != json::Value::Type::kObject) {
      error = "bench entry is not an object";
      return false;
    }
    BenchResult b;
    b.name = GetString(entry.Find("name"));
    if (b.name.empty()) {
      error = "bench entry without a name";
      return false;
    }
    const json::Value* ok = entry.Find("ok");
    b.ok = ok == nullptr || ok->type != json::Value::Type::kBool || ok->boolean;
    if (const json::Value* wall = entry.Find("wall_ms");
        wall != nullptr && wall->type == json::Value::Type::kArray) {
      for (const json::Value& v : wall->array) b.wall_ms.push_back(v.number);
    }
    b.wall_ms_median = GetNumber(entry.Find("wall_ms_median"));
    b.sim_events =
        static_cast<std::uint64_t>(GetNumber(entry.Find("sim_events")));
    b.events_per_sec = GetNumber(entry.Find("events_per_sec"));
    const std::string digest = GetString(entry.Find("digest"));
    b.digest = digest.empty()
                   ? 0
                   : static_cast<std::uint64_t>(
                         std::strtoull(digest.c_str(), nullptr, 16));
    b.note = GetString(entry.Find("note"));
    report.benches.push_back(std::move(b));
  }
  return true;
}

bool LoadReport(const std::string& path, BenchReport& report,
                std::string& error) {
  std::string text;
  if (!ReadFile(path, text)) {
    error = "cannot open " + path;
    return false;
  }
  return FromJson(text, report, error);
}

bool SaveReport(const std::string& path, const BenchReport& report) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out << ToJson(report);
  return static_cast<bool>(out);
}

DiffResult DiffReports(const BenchReport& base, const BenchReport& candidate,
                       const DiffOptions& options) {
  DiffResult result;
  std::map<std::string, const BenchResult*> candidates;
  for (const BenchResult& b : candidate.benches) candidates[b.name] = &b;

  for (const BenchResult& b : base.benches) {
    const auto it = candidates.find(b.name);
    if (it == candidates.end()) {
      const std::string msg =
          b.name + ": present in baseline but missing from candidate";
      if (options.require_coverage) {
        result.failures.push_back(msg);
      } else {
        result.notes.push_back(msg);
      }
      continue;
    }
    const BenchResult& c = *it->second;
    candidates.erase(it);

    if (!c.ok) {
      result.failures.push_back(b.name + ": candidate run reported failure" +
                                (c.note.empty() ? "" : " (" + c.note + ")"));
      continue;
    }
    if (b.digest != c.digest) {
      result.failures.push_back(
          b.name + ": event digest drifted (" + HexDigest(b.digest) + " -> " +
          HexDigest(c.digest) + "); the simulated work itself changed");
    }
    if (b.sim_events != c.sim_events) {
      result.failures.push_back(
          b.name + ": simulated event count drifted (" +
          std::to_string(b.sim_events) + " -> " +
          std::to_string(c.sim_events) + ")");
    }
    if (options.check_wall && b.wall_ms_median > 0.0) {
      const double ratio = c.wall_ms_median / b.wall_ms_median;
      if (ratio > 1.0 + options.wall_regression_threshold) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "%s: wall-time regression %.1f%% (%.3f ms -> %.3f ms, "
                      "threshold %.0f%%)",
                      b.name.c_str(), (ratio - 1.0) * 100.0, b.wall_ms_median,
                      c.wall_ms_median,
                      options.wall_regression_threshold * 100.0);
        result.failures.push_back(buf);
      } else if (ratio < 0.9) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s: improved %.1f%% (%.3f -> %.3f ms)",
                      b.name.c_str(), (1.0 - ratio) * 100.0, b.wall_ms_median,
                      c.wall_ms_median);
        result.notes.push_back(buf);
      }
    }
  }
  for (const auto& [name, bench] : candidates) {
    result.notes.push_back(name + ": new bench (no baseline)");
    (void)bench;
  }
  return result;
}

}  // namespace muxwise::cli
