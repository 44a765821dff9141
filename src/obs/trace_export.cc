#include "obs/trace_export.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "sim/json.h"

namespace muxwise::obs {

namespace {

constexpr char kMagic[4] = {'M', 'U', 'X', 'T'};
constexpr std::uint32_t kVersion = 1;

void AppendU32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

void AppendU64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::uint8_t>((v >> shift) & 0xff));
  }
}

void AppendString(std::vector<std::uint8_t>& out, const std::string& s) {
  AppendU32(out, static_cast<std::uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

/** Nanosecond timestamp rendered as microseconds with 3 decimals. */
std::string MicrosString(sim::Time ns) {
  char buf[48];
  const long long whole = static_cast<long long>(ns / 1000);
  const long long frac = static_cast<long long>(ns % 1000);
  std::snprintf(buf, sizeof(buf), "%lld.%03lld", whole, frac);
  return buf;
}

/** Deterministic JSON number: exact integers plainly, else %.17g. */
std::string ValueString(double v) {
  char buf[48];
  const double r = std::nearbyint(v);
  if (r == v && std::fabs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(r));
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

}  // namespace

std::vector<std::uint8_t> EncodeBinary(const TraceRecorder& recorder) {
  std::vector<std::uint8_t> out;
  const std::vector<TraceEvent> events = recorder.Events();
  out.reserve(64 + events.size() * 29);
  out.insert(out.end(), kMagic, kMagic + 4);
  AppendU32(out, kVersion);
  AppendU32(out, static_cast<std::uint32_t>(recorder.tracks().size()));
  for (const std::string& track : recorder.tracks()) AppendString(out, track);
  AppendU32(out, static_cast<std::uint32_t>(recorder.names().size()));
  for (const std::string& name : recorder.names()) AppendString(out, name);
  AppendU64(out, recorder.dropped());
  AppendU64(out, static_cast<std::uint64_t>(events.size()));
  for (const TraceEvent& e : events) {
    out.push_back(static_cast<std::uint8_t>(e.kind));
    AppendU32(out, e.track);
    AppendU32(out, e.name);
    AppendU64(out, static_cast<std::uint64_t>(e.time));
    AppendU64(out, static_cast<std::uint64_t>(e.id));
    AppendU64(out, std::bit_cast<std::uint64_t>(e.value));
  }
  return out;
}

std::uint64_t TraceDigest(const TraceRecorder& recorder) {
  std::uint64_t hash = 14695981039346656037ull;
  for (std::uint8_t byte : EncodeBinary(recorder)) {
    hash ^= byte;
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string ExportChromeJson(const TraceRecorder& recorder) {
  const std::vector<std::string>& tracks = recorder.tracks();
  const std::vector<std::string>& names = recorder.names();
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  bool first = true;
  auto sep = [&] {
    if (!first) out << ",";
    first = false;
    out << "\n";
  };
  for (std::size_t t = 0; t < tracks.size(); ++t) {
    sep();
    out << R"({"ph":"M","pid":0,"tid":)" << t
        << R"(,"name":"thread_name","args":{"name":")"
        << json::Escape(tracks[t]) << "\"}}";
  }
  for (const TraceEvent& e : recorder.Events()) {
    const std::string& name =
        e.name < names.size() ? names[e.name] : std::string();
    sep();
    switch (e.kind) {
      case EventKind::kSpanBegin:
      case EventKind::kSpanEnd:
        out << R"({"ph":")" << (e.kind == EventKind::kSpanBegin ? 'B' : 'E')
            << R"(","pid":0,"tid":)" << e.track << R"(,"ts":)"
            << MicrosString(e.time) << R"(,"name":")" << json::Escape(name)
            << R"(","args":{"id":)" << e.id << R"(,"value":)"
            << ValueString(e.value) << "}}";
        break;
      case EventKind::kInstant:
        out << R"({"ph":"i","s":"t","pid":0,"tid":)" << e.track
            << R"(,"ts":)" << MicrosString(e.time) << R"(,"name":")"
            << json::Escape(name) << R"(","args":{"id":)" << e.id
            << R"(,"value":)" << ValueString(e.value) << "}}";
        break;
      case EventKind::kCounter:
        out << R"({"ph":"C","pid":0,"tid":)" << e.track << R"(,"ts":)"
            << MicrosString(e.time) << R"(,"name":")" << json::Escape(name)
            << R"(","args":{"value":)" << ValueString(e.value) << "}}";
        break;
      case EventKind::kComplete:
        out << R"({"ph":"X","pid":0,"tid":)" << e.track << R"(,"ts":)"
            << MicrosString(e.time) << R"(,"dur":)"
            << MicrosString(static_cast<sim::Time>(e.value))
            << R"(,"name":")" << json::Escape(name) << R"(","args":{"id":)"
            << e.id << "}}";
        break;
    }
  }
  out << "\n]}\n";
  return out.str();
}

}  // namespace muxwise::obs
