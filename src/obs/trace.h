#ifndef MUXWISE_OBS_TRACE_H_
#define MUXWISE_OBS_TRACE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace muxwise::obs {

/**
 * Typed trace event kinds, modelled after the Chrome trace_event phases
 * they export to: paired duration spans (B/E), instants (i), counter
 * samples (C), and retroactive complete spans (X).
 */
enum class EventKind : std::uint8_t {
  kSpanBegin = 0,
  kSpanEnd = 1,
  kInstant = 2,
  kCounter = 3,
  kComplete = 4,
};

/**
 * One recorded event. Track and name are intern-table indices into the
 * owning TraceRecorder, so the event itself is a fixed-size POD and the
 * full stream digests deterministically. `value` carries the counter
 * sample, a span payload (e.g. batch size, granted SMs), or — for
 * kComplete — the span duration in integer nanoseconds (exact in a
 * double for any simulated duration below 2^53 ns, ~104 days).
 */
struct TraceEvent {
  EventKind kind = EventKind::kInstant;
  std::uint32_t track = 0;
  std::uint32_t name = 0;
  sim::Time time = 0;
  std::int64_t id = 0;
  double value = 0.0;

  friend bool operator==(const TraceEvent&, const TraceEvent&) = default;
};

/**
 * Deterministic in-memory event sink.
 *
 * Strings are interned in first-seen order, so identical instrumented
 * runs produce identical tables and identical event streams byte for
 * byte. With `ring_capacity` 0 the recorder grows unboundedly; a
 * positive capacity bounds memory by overwriting the oldest events
 * (dropped() counts the overwritten ones) — Events() always returns the
 * survivors oldest-first.
 *
 * The recorder never schedules simulator events and is only ever
 * written through Tracer, whose emit paths are no-ops when no recorder
 * is attached; attaching one therefore cannot perturb the simulated
 * event order.
 */
class TraceRecorder {
 public:
  struct Options {
    /** 0 = unbounded; otherwise max events retained (oldest dropped). */
    std::size_t ring_capacity = 0;

    /**
     * 1 = record every span. N > 1 keeps a deterministic 1-in-N subset
     * of span events (kSpanBegin / kSpanEnd / kComplete), selected by a
     * splitmix64 hash of (track, name, id) — a pure function of the
     * span's identity, so a Begin and its End (and re-emissions of the
     * same logical span) survive or drop together with no per-span
     * state, and the sampled stream is bit-reproducible across runs.
     * Instants and counters are always recorded. Layered under the
     * ring: sampled-out spans never enter it (see sampled_out()).
     */
    std::uint64_t span_sample_period = 1;
  };

  TraceRecorder() = default;
  explicit TraceRecorder(Options options) : options_(options) {}

  TraceRecorder(const TraceRecorder&) = delete;
  TraceRecorder& operator=(const TraceRecorder&) = delete;

  /** Index of `track` in the track table, interning on first use. */
  std::uint32_t InternTrack(std::string_view track);

  /** Index of `name` in the name table, interning on first use. */
  std::uint32_t InternName(std::string_view name);

  /** Appends one event (overwriting the oldest when the ring is full). */
  void Record(const TraceEvent& event);

  /** Retained events, oldest first (unwinds the ring). */
  std::vector<TraceEvent> Events() const;

  /** Track strings in intern order (index == TraceEvent::track). */
  const std::vector<std::string>& tracks() const { return tracks_; }

  /** Name strings in intern order (index == TraceEvent::name). */
  const std::vector<std::string>& names() const { return names_; }

  /** Events currently retained. */
  std::size_t size() const { return events_.size(); }

  /** Events overwritten by the bounded ring. */
  std::uint64_t dropped() const { return dropped_; }

  /** Span events skipped by 1-in-N sampling (never entered the ring). */
  std::uint64_t sampled_out() const { return sampled_out_; }

  const Options& options() const { return options_; }

  /** Discards all events and intern tables. */
  void Clear();

 private:
  Options options_;
  std::vector<TraceEvent> events_;
  std::size_t ring_head_ = 0;  // Next overwrite slot once full.
  std::uint64_t dropped_ = 0;
  std::uint64_t sampled_out_ = 0;
  std::vector<std::string> tracks_;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> track_index_;
  std::map<std::string, std::uint32_t, std::less<>> name_index_;
};

/**
 * A pre-interned (track, name) pair. Hot emitters resolve their labels
 * once via Tracer::Intern() and emit by index afterwards, skipping the
 * per-event string build + intern-table lookup on the critical path.
 * Only meaningful for the recorder that interned it.
 */
struct SpanLabel {
  std::uint32_t track = 0;
  std::uint32_t name = 0;
};

/**
 * Cheap, copyable emission handle threaded through the instrumented
 * layers. Default-constructed tracers are disabled: every emit method
 * returns immediately without touching the simulator, so instrumented
 * code pays one null check when tracing is off and cannot change
 * behaviour either way. Events are stamped with the simulator clock —
 * never wall-clock time — keeping traces bit-reproducible.
 */
class Tracer {
 public:
  Tracer() = default;
  Tracer(TraceRecorder* recorder, const sim::Simulator* sim)
      : recorder_(recorder), sim_(sim) {}

  bool enabled() const { return recorder_ != nullptr; }
  TraceRecorder* recorder() const { return recorder_; }

  /**
   * This tracer with its clock held at `time`, for events recorded after
   * the fact, each at its own time (a deferred decode stretch's).
   */
  Tracer At(sim::Time time) const {
    Tracer at = *this;
    at.at_ = time;
    return at;
  }

  /** Opens span `name` with stable `id` on `track` at Now(). */
  void SpanBegin(std::string_view track, std::string_view name,
                 std::int64_t id, double value = 0.0) const {
    if (recorder_ == nullptr) return;
    Emit(EventKind::kSpanBegin, track, name, Now(), id, value);
  }

  /** Closes the matching span at Now(). */
  void SpanEnd(std::string_view track, std::string_view name,
               std::int64_t id, double value = 0.0) const {
    if (recorder_ == nullptr) return;
    Emit(EventKind::kSpanEnd, track, name, Now(), id, value);
  }

  /**
   * Records a retroactive complete span [begin, begin + span). Used for
   * spans whose extent is only known after the fact (request lifecycle
   * phases rebuilt from timestamps, modelled reconfiguration windows).
   */
  void Complete(std::string_view track, std::string_view name,
                std::int64_t id, sim::Time begin, sim::Duration span) const {
    if (recorder_ == nullptr) return;
    Emit(EventKind::kComplete, track, name, begin, id,
         static_cast<double>(span));
  }

  /** Records a point event at Now(). */
  void Instant(std::string_view track, std::string_view name,
               std::int64_t id = 0, double value = 0.0) const {
    if (recorder_ == nullptr) return;
    Emit(EventKind::kInstant, track, name, Now(), id, value);
  }

  /** Samples counter `name` = `value` at Now(). */
  void Counter(std::string_view track, std::string_view name,
               double value) const {
    if (recorder_ == nullptr) return;
    Emit(EventKind::kCounter, track, name, Now(), 0, value);
  }

  // --- Pre-interned fast path -----------------------------------------

  /**
   * Resolves a (track, name) label once for reuse on every later emit.
   * Must only be called on an enabled tracer; the label is bound to
   * this tracer's recorder.
   */
  SpanLabel Intern(std::string_view track, std::string_view name) const {
    return SpanLabel{recorder_->InternTrack(track),
                     recorder_->InternName(name)};
  }

  void SpanBegin(SpanLabel label, std::int64_t id, double value = 0.0) const {
    if (recorder_ == nullptr) return;
    EmitInterned(EventKind::kSpanBegin, label, Now(), id, value);
  }

  void SpanEnd(SpanLabel label, std::int64_t id, double value = 0.0) const {
    if (recorder_ == nullptr) return;
    EmitInterned(EventKind::kSpanEnd, label, Now(), id, value);
  }

  void Instant(SpanLabel label, std::int64_t id = 0,
               double value = 0.0) const {
    if (recorder_ == nullptr) return;
    EmitInterned(EventKind::kInstant, label, Now(), id, value);
  }

  void Counter(SpanLabel label, double value) const {
    if (recorder_ == nullptr) return;
    EmitInterned(EventKind::kCounter, label, Now(), 0, value);
  }

 private:
  void Emit(EventKind kind, std::string_view track, std::string_view name,
            sim::Time time, std::int64_t id, double value) const;

  void EmitInterned(EventKind kind, SpanLabel label, sim::Time time,
                    std::int64_t id, double value) const;

  /** The simulator clock, or the time At() held. */
  sim::Time Now() const { return at_ == sim::kTimeNever ? sim_->Now() : at_; }

  TraceRecorder* recorder_ = nullptr;
  const sim::Simulator* sim_ = nullptr;
  sim::Time at_ = sim::kTimeNever;
};

}  // namespace muxwise::obs

#endif  // MUXWISE_OBS_TRACE_H_
