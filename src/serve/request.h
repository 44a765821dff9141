#ifndef MUXWISE_SERVE_REQUEST_H_
#define MUXWISE_SERVE_REQUEST_H_

#include <cstdint>
#include <vector>

#include "kv/kv_pool.h"
#include "sim/time.h"
#include "workload/request_spec.h"

namespace muxwise::serve {

/** Lifecycle phase of an in-flight request. */
enum class Phase {
  kQueued,   // Accepted by the engine, waiting for prefill.
  kPrefill,  // Prefill (possibly chunked / layer-wise) in progress.
  kDecode,   // Generating tokens.
  kDone,
};

/**
 * Terminal (or recovery) disposition of a request. Engines without
 * fault handling leave the default; the metrics layer treats kRunning
 * at completion as attained, so legacy engines keep their accounting.
 */
enum class Outcome {
  kRunning,    // In flight; no fault has touched it.
  kRetrying,   // Re-enqueued after losing KV state to an instance crash.
  kCompleted,  // Every output token delivered (attained).
  kTimedOut,   // Abandoned: its TTFT/TPOT-derived deadline passed.
  kShed,       // Rejected at admission under overload or outage.
  kFailed,     // Permanently failed (crash-retry budget spent).
};

inline bool IsTerminalOutcome(Outcome outcome) {
  return outcome == Outcome::kCompleted || outcome == Outcome::kTimedOut ||
         outcome == Outcome::kShed || outcome == Outcome::kFailed;
}

inline const char* OutcomeName(Outcome outcome) {
  switch (outcome) {
    case Outcome::kRunning:
      return "running";
    case Outcome::kRetrying:
      return "retrying";
    case Outcome::kCompleted:
      return "completed";
    case Outcome::kTimedOut:
      return "timed-out";
    case Outcome::kShed:
      return "shed";
    case Outcome::kFailed:
      return "failed";
  }
  return "?";
}

/**
 * Runtime state of one request inside a serving engine, wrapping its
 * immutable workload::RequestSpec and collecting the latency stamps the
 * evaluation reports (TTFT, per-token TBT, E2E, TPOT).
 */
struct Request {
  const workload::RequestSpec* spec = nullptr;

  Phase phase = Phase::kQueued;

  sim::Time arrival = 0;          // Reached the engine queue.
  sim::Time prefill_start = -1;   // First prefill compute began.
  sim::Time first_token = -1;     // Prefill completed (TTFT stamp).
  sim::Time completion = -1;

  /** Time each generated token became visible (includes first token). */
  std::vector<sim::Time> token_times;

  /** Tokens generated so far. */
  std::int64_t generated = 0;

  /** Prefix tokens served from the KV cache at admission. */
  std::int64_t cached_tokens = 0;

  /** Prompt tokens this engine actually has to compute. */
  std::int64_t prefill_tokens = 0;

  /** Working-set tokens reserved in the pool for this request. */
  std::int64_t reserved_tokens = 0;

  /** Pin on the reused prefix (held until completion). */
  kv::KvPool::PrefixLease lease;

  // --- Failure-recovery state (see src/fault/) ---
  Outcome outcome = Outcome::kRunning;

  /** Absolute give-up time; kTimeNever when no recovery policy is set. */
  sim::Time deadline = sim::kTimeNever;

  /** Times this request was re-enqueued after an instance crash. */
  int crash_retries = 0;

  // --- Engine scratch (meaning is engine-specific) ---
  std::int64_t progress = 0;  // Prefill tokens or layers completed.

  explicit Request(const workload::RequestSpec* s) : spec(s) {}

  Request(const Request&) = delete;
  Request& operator=(const Request&) = delete;

  std::int64_t output_target() const { return spec->output_tokens; }

  /**
   * Records a token emission at `now`. The first token reserves room
   * for the whole output at once, so decode never regrows the vector.
   */
  void EmitToken(sim::Time now) {
    if (first_token < 0) first_token = now;
    if (token_times.empty() && output_target() > 0) {
      token_times.reserve(static_cast<std::size_t>(output_target()));
    }
    token_times.push_back(now);
    ++generated;
  }

  bool DecodeFinished() const { return generated >= output_target(); }

  sim::Duration Ttft() const { return first_token - arrival; }
  sim::Duration E2e() const { return completion - arrival; }
};

}  // namespace muxwise::serve

#endif  // MUXWISE_SERVE_REQUEST_H_
