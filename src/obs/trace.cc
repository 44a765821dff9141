#include "obs/trace.h"

#include <utility>

#include "sim/hash.h"

namespace muxwise::obs {

namespace {

std::uint32_t Intern(std::string_view s, std::vector<std::string>& table,
                     std::map<std::string, std::uint32_t, std::less<>>& index) {
  auto it = index.find(s);
  if (it != index.end()) return it->second;
  const auto idx = static_cast<std::uint32_t>(table.size());
  table.emplace_back(s);
  index.emplace(std::string(s), idx);
  return idx;
}

bool IsSpanKind(EventKind kind) {
  return kind == EventKind::kSpanBegin || kind == EventKind::kSpanEnd ||
         kind == EventKind::kComplete;
}

/** Deterministic 1-in-N keep decision over the span's identity only —
 * never its timestamps — so both ends of a span agree. */
bool KeepSpan(const TraceEvent& event, std::uint64_t period) {
  std::uint64_t key = sim::SplitMix64(static_cast<std::uint64_t>(event.track));
  key = sim::SplitMix64(key ^ static_cast<std::uint64_t>(event.name));
  key = sim::SplitMix64(key ^ static_cast<std::uint64_t>(event.id));
  return key % period == 0;
}

}  // namespace

std::uint32_t TraceRecorder::InternTrack(std::string_view track) {
  return Intern(track, tracks_, track_index_);
}

std::uint32_t TraceRecorder::InternName(std::string_view name) {
  return Intern(name, names_, name_index_);
}

void TraceRecorder::Record(const TraceEvent& event) {
  if (options_.span_sample_period > 1 && IsSpanKind(event.kind) &&
      !KeepSpan(event, options_.span_sample_period)) {
    ++sampled_out_;
    return;
  }
  if (options_.ring_capacity == 0) {
    events_.push_back(event);
    return;
  }
  if (events_.size() < options_.ring_capacity) {
    events_.push_back(event);
    return;
  }
  events_[ring_head_] = event;
  ring_head_ = (ring_head_ + 1) % options_.ring_capacity;
  ++dropped_;
}

std::vector<TraceEvent> TraceRecorder::Events() const {
  std::vector<TraceEvent> out;
  out.reserve(events_.size());
  for (std::size_t i = 0; i < events_.size(); ++i) {
    out.push_back(events_[(ring_head_ + i) % events_.size()]);
  }
  return out;
}

void TraceRecorder::Clear() {
  events_.clear();
  ring_head_ = 0;
  dropped_ = 0;
  sampled_out_ = 0;
  tracks_.clear();
  names_.clear();
  track_index_.clear();
  name_index_.clear();
}

void Tracer::Emit(EventKind kind, std::string_view track,
                  std::string_view name, sim::Time time, std::int64_t id,
                  double value) const {
  EmitInterned(kind,
               SpanLabel{recorder_->InternTrack(track),
                         recorder_->InternName(name)},
               time, id, value);
}

void Tracer::EmitInterned(EventKind kind, SpanLabel label, sim::Time time,
                          std::int64_t id, double value) const {
  TraceEvent event;
  event.kind = kind;
  event.track = label.track;
  event.name = label.name;
  event.time = time;
  event.id = id;
  event.value = value;
  recorder_->Record(event);
}

}  // namespace muxwise::obs
