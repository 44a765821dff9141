#include "obs/trace_export.h"

#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
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

/** Bounds-checked little-endian reader over the encoded byte stream. */
class Reader {
 public:
  explicit Reader(const std::vector<std::uint8_t>& bytes) : bytes_(bytes) {}

  bool ReadU32(std::uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<std::uint32_t>(bytes_[pos_++]) << shift;
    }
    return true;
  }

  bool ReadU64(std::uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<std::uint64_t>(bytes_[pos_++]) << shift;
    }
    return true;
  }

  bool ReadU8(std::uint8_t& v) {
    if (pos_ >= bytes_.size()) return false;
    v = bytes_[pos_++];
    return true;
  }

  bool ReadString(std::string& s) {
    std::uint32_t len = 0;
    if (!ReadU32(len)) return false;
    if (pos_ + len > bytes_.size()) return false;
    s.assign(reinterpret_cast<const char*>(bytes_.data()) + pos_, len);
    pos_ += len;
    return true;
  }

  bool AtEnd() const { return pos_ == bytes_.size(); }

 private:
  const std::vector<std::uint8_t>& bytes_;
  std::size_t pos_ = 0;
};

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

std::string RenderChromeJson(const std::vector<std::string>& tracks,
                             const std::vector<std::string>& names,
                             const std::vector<TraceEvent>& events) {
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
  for (const TraceEvent& e : events) {
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

bool DecodeBinary(const std::vector<std::uint8_t>& bytes, DecodedTrace& out) {
  if (bytes.size() < 8 || std::memcmp(bytes.data(), kMagic, 4) != 0) {
    return false;
  }
  Reader reader(bytes);
  std::uint8_t skip = 0;
  for (int i = 0; i < 4; ++i) reader.ReadU8(skip);
  std::uint32_t version = 0;
  if (!reader.ReadU32(version) || version != kVersion) return false;

  out = DecodedTrace{};
  std::uint32_t count = 0;
  if (!reader.ReadU32(count)) return false;
  out.tracks.resize(count);
  for (std::string& track : out.tracks) {
    if (!reader.ReadString(track)) return false;
  }
  if (!reader.ReadU32(count)) return false;
  out.names.resize(count);
  for (std::string& name : out.names) {
    if (!reader.ReadString(name)) return false;
  }
  if (!reader.ReadU64(out.dropped)) return false;
  std::uint64_t num_events = 0;
  if (!reader.ReadU64(num_events)) return false;
  out.events.resize(num_events);
  for (TraceEvent& e : out.events) {
    std::uint8_t kind = 0;
    std::uint64_t time_bits = 0;
    std::uint64_t id_bits = 0;
    std::uint64_t value_bits = 0;
    if (!reader.ReadU8(kind) || kind > 4) return false;
    e.kind = static_cast<EventKind>(kind);
    if (!reader.ReadU32(e.track) || e.track >= out.tracks.size()) return false;
    if (!reader.ReadU32(e.name) || e.name >= out.names.size()) return false;
    if (!reader.ReadU64(time_bits)) return false;
    e.time = static_cast<sim::Time>(time_bits);
    if (!reader.ReadU64(id_bits)) return false;
    e.id = static_cast<std::int64_t>(id_bits);
    if (!reader.ReadU64(value_bits)) return false;
    e.value = std::bit_cast<double>(value_bits);
  }
  return reader.AtEnd();
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
  return RenderChromeJson(recorder.tracks(), recorder.names(),
                          recorder.Events());
}

std::string ExportChromeJson(const DecodedTrace& trace) {
  return RenderChromeJson(trace.tracks, trace.names, trace.events);
}

bool WriteBinaryFile(const std::string& path, const TraceRecorder& recorder) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return false;
  const std::vector<std::uint8_t> bytes = EncodeBinary(recorder);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  return static_cast<bool>(out);
}

bool ReadBinaryFile(const std::string& path, DecodedTrace& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::vector<std::uint8_t> bytes(
      (std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return DecodeBinary(bytes, out);
}

}  // namespace muxwise::obs
