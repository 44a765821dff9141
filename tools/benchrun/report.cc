#include "benchrun/report.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "harness/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <unistd.h>
#endif
#if defined(__linux__)
#include <sched.h>
#endif

namespace muxwise::benchrun {

namespace {

// JSON parsing/escaping comes from the shared harness::json library;
// the aliases keep this file's call sites unchanged.
using JsonValue = harness::json::Value;
using harness::json::GetNumber;
using harness::json::GetString;
const auto& JsonEscape = harness::json::Escape;

std::string HexDigest(std::uint64_t digest) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(digest));
  return buf;
}

std::string FormatDouble(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

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
  std::ostringstream out;
  out << "{\n";
  out << "  \"schema_version\": " << report.schema_version << ",\n";
  out << "  \"suite\": \"" << JsonEscape(report.suite) << "\",\n";
  out << "  \"repeat\": " << report.repeat << ",\n";
  out << "  \"machine\": {\n";
  out << "    \"host\": \"" << JsonEscape(report.machine.host) << "\",\n";
  out << "    \"compiler\": \"" << JsonEscape(report.machine.compiler)
      << "\",\n";
  out << "    \"build_type\": \"" << JsonEscape(report.machine.build_type)
      << "\",\n";
  out << "    \"cpus\": " << report.machine.cpus << ",\n";
  out << "    \"hw_threads\": " << report.machine.hw_threads << "\n";
  out << "  },\n";
  out << "  \"benches\": [";
  for (std::size_t i = 0; i < report.benches.size(); ++i) {
    const BenchResult& b = report.benches[i];
    out << (i == 0 ? "\n" : ",\n");
    out << "    {\n";
    out << "      \"name\": \"" << JsonEscape(b.name) << "\",\n";
    out << "      \"ok\": " << (b.ok ? "true" : "false") << ",\n";
    out << "      \"wall_ms\": [";
    for (std::size_t j = 0; j < b.wall_ms.size(); ++j) {
      out << (j == 0 ? "" : ", ") << FormatDouble(b.wall_ms[j]);
    }
    out << "],\n";
    out << "      \"wall_ms_median\": " << FormatDouble(b.wall_ms_median)
        << ",\n";
    out << "      \"sim_events\": " << b.sim_events << ",\n";
    out << "      \"events_per_sec\": " << FormatDouble(b.events_per_sec)
        << ",\n";
    out << "      \"digest\": \"" << HexDigest(b.digest) << "\",\n";
    out << "      \"note\": \"" << JsonEscape(b.note) << "\"\n";
    out << "    }";
  }
  if (!report.benches.empty()) out << "\n  ";
  out << "]\n}\n";
  return out.str();
}

bool FromJson(const std::string& json, BenchReport& report,
              std::string& error) {
  JsonValue root;
  if (!harness::json::Parse(json, root, error)) return false;
  if (root.type != JsonValue::Type::kObject) {
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
  if (const JsonValue* machine = root.Find("machine");
      machine != nullptr && machine->type == JsonValue::Type::kObject) {
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
  const JsonValue* benches = root.Find("benches");
  if (benches == nullptr || benches->type != JsonValue::Type::kArray) {
    error = "report has no benches array";
    return false;
  }
  for (const JsonValue& entry : benches->array) {
    if (entry.type != JsonValue::Type::kObject) {
      error = "bench entry is not an object";
      return false;
    }
    BenchResult b;
    b.name = GetString(entry.Find("name"));
    if (b.name.empty()) {
      error = "bench entry without a name";
      return false;
    }
    const JsonValue* ok = entry.Find("ok");
    b.ok = ok == nullptr || ok->type != JsonValue::Type::kBool || ok->boolean;
    if (const JsonValue* wall = entry.Find("wall_ms");
        wall != nullptr && wall->type == JsonValue::Type::kArray) {
      for (const JsonValue& v : wall->array) b.wall_ms.push_back(v.number);
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    error = "cannot open " + path;
    return false;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return FromJson(buffer.str(), report, error);
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

}  // namespace muxwise::benchrun
