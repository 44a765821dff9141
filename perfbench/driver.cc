// perfbench_driver: one repetition of one benchmark workload.
//
//   perfbench_driver --workload stream_short|conv_multiturn|fleet_burst
//                    --seed N [--trace] [--scale F] [--spans-out FILE]
//
// Untraced (the default) times set-up (deployment, offline estimator
// profiling, trace generation) and then the run itself through the
// public harness entry points (RunStreamingWorkload / RunWorkload). It
// prints one JSON line: wall times, peak RSS, the simulated SLO metrics,
// the digests and the correctness checks.
//
// Traced (--trace) drives the same workload event by event. It records
// wall-clock spans around every call it makes into the program, attaches
// obs::TraceRecorder for simulated-time spans, and afterwards replays
// the workload's own KV and planner operations against kv::KvPool,
// llm::SoloRunPredictor, core::ContentionEstimator and
// core::SloAwareDispatcher. Its JSON line adds the per-layer metrics.
//
// perfbench/run.py builds this program, runs it and aggregates the
// repetitions; see perfbench/README.md for the workloads and metrics.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/dispatcher.h"
#include "core/estimator.h"
#include "core/muxwise_engine.h"
#include "harness/runner.h"
#include "harness/streaming.h"
#include "kv/kv_pool.h"
#include "kv/token_seq.h"
#include "llm/model_config.h"
#include "obs/trace.h"
#include "route/fleet_router.h"
#include "serve/deployment.h"
#include "serve/engine.h"
#include "serve/frontend.h"
#include "serve/metrics.h"
#include "serve/quantile_sketch.h"
#include "serve/request.h"
#include "sim/logging.h"
#include "sim/simulator.h"
#include "workload/datasets.h"
#include "workload/request_spec.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER "unknown"
#endif

namespace muxwise::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

constexpr const char* kCompiler = PERFBENCH_COMPILER;

std::int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double SecondsSince(std::int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

double PeakRssMib() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB.
}

std::string Hex(std::uint64_t v) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/** p-quantile (nearest rank) of `values`; NaN when empty. Reorders. */
double Quantile(std::vector<double>& values, double p) {
  if (values.empty()) return std::nan("");
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(values.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class Shape { kStream, kConversation, kFleet };

struct Workload {
  Shape shape = Shape::kStream;
  std::string name;
  std::uint64_t seed = 1;
  double scale = 1.0;  // < 1 shrinks the input (smoke test only).
};

// stream_short: scenarios/nightly/streaming_1e6.json.
constexpr double kStreamRequests = 1e6;
constexpr double kStreamRate = 50.0;

// conv_multiturn: Conversation sessions, closed-loop turns. The rate is
// the generators' session-rate argument (GenerateTrace and MmppOptions
// both start sessions at it divided by the dataset's mean turn count).
constexpr double kConvRequests = 20000;
constexpr double kConvRate = 0.2;

// fleet_burst: ToolAgent MMPP arrivals into a 4-replica fleet.
constexpr double kFleetHorizonSeconds = 36000;
constexpr std::size_t kFleetReplicas = 4;

bool ParseShape(const std::string& name, Shape* shape) {
  if (name == "stream_short") {
    *shape = Shape::kStream;
  } else if (name == "conv_multiturn") {
    *shape = Shape::kConversation;
  } else if (name == "fleet_burst") {
    *shape = Shape::kFleet;
  } else {
    return false;
  }
  return true;
}

harness::StreamingSpec StreamSpec(const Workload& w) {
  harness::StreamingSpec spec;
  spec.total_requests = static_cast<std::uint64_t>(
      std::max(1.0, std::round(kStreamRequests * w.scale)));
  spec.rate_per_second = kStreamRate;
  spec.input = {8, 32.0, 128};
  spec.output = {2, 6.0, 16};
  spec.seed = w.seed;
  spec.exact_subsample_period = 100;
  return spec;
}

workload::Trace MakeTrace(const Workload& w) {
  if (w.shape == Shape::kConversation) {
    return workload::GenerateTrace(
        workload::Dataset::kConversation,
        static_cast<int>(std::max(1.0, std::round(kConvRequests * w.scale))),
        kConvRate, w.seed);
  }
  workload::MmppOptions options;
  options.dataset = workload::Dataset::kToolAgent;
  options.calm_rate_per_second = 0.4;
  options.burst_multiplier = 4.0;
  options.mean_calm_seconds = 30.0;
  options.mean_burst_seconds = 8.0;
  options.duration_seconds = std::max(60.0, kFleetHorizonSeconds * w.scale);
  options.class_mix = {0.3, 0.5, 0.2};
  return workload::GenerateMmppTrace(options, w.seed);
}

harness::RunConfig MakeConfig(const Workload& w) {
  harness::RunConfig config;
  config.threads = 1;
  if (w.shape == Shape::kStream) config.event_budget = 2'000'000'000;
  if (w.shape == Shape::kFleet) {
    config.overload.enabled = true;
    config.fleet.enabled = true;
    config.fleet.replicas = kFleetReplicas;
  }
  return config;
}

// ---------------------------------------------------------------------------
// Set-up: everything before the first simulated event.
// ---------------------------------------------------------------------------

struct Setup {
  serve::Deployment deployment;
  std::unique_ptr<core::ContentionEstimator> estimator;
  workload::Trace trace;  // Empty for the lazily generated stream.
  double deployment_s = 0.0;
  double estimator_s = 0.0;
  double trace_s = 0.0;
};

Setup BuildSetup(const Workload& w) {
  Setup setup;
  const std::int64_t t0 = NowNs();
  setup.deployment =
      serve::Deployment::Make(llm::ModelConfig::ByName("Llama-70B"),
                              gpu::GpuSpec::ByName("A100"), 8);
  const std::int64_t t1 = NowNs();
  setup.estimator = std::make_unique<core::ContentionEstimator>(
      core::ContentionEstimator::BuildOffline(setup.deployment));
  const std::int64_t t2 = NowNs();
  if (w.shape != Shape::kStream) setup.trace = MakeTrace(w);
  const std::int64_t t3 = NowNs();
  setup.deployment_s = static_cast<double>(t1 - t0) * 1e-9;
  setup.estimator_s = static_cast<double>(t2 - t1) * 1e-9;
  setup.trace_s = static_cast<double>(t3 - t2) * 1e-9;
  return setup;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

/** Minimal JSON object writer; NaN numbers print as null ("n/a"). */
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double value) {
    char buf[40];
    if (std::isfinite(value)) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    return Raw(key, buf);
  }
  JsonObject& Int(const std::string& key, std::uint64_t value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Bool(const std::string& key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    std::string quoted = "\"";
    for (char c : value) {
      if (c == '"' || c == '\\') quoted += '\\';
      if (static_cast<unsigned char>(c) < 0x20) c = ' ';
      quoted += c;
    }
    return Raw(key, quoted + "\"");
  }
  JsonObject& Obj(const std::string& key, const JsonObject& value) {
    return Raw(key, value.str());
  }
  JsonObject& Raw(const std::string& key, const std::string& value) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + value;
    return *this;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

/** Named pass/fail checks; a failure makes the whole run incorrect. */
struct Checks {
  JsonObject json;
  std::vector<std::string> failures;

  void Add(const std::string& name, bool ok, const std::string& detail) {
    json.Obj(name, JsonObject().Bool("ok", ok).Str("detail", detail));
    if (!ok) failures.push_back(name + ": " + detail);
  }
};

std::string Format(const char* fmt, double a, double b) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b);
  return buf;
}

/** The correctness gate shared by traced and untraced runs. */
void CheckRun(Checks& checks, bool stable, const std::string& diagnostic,
              std::uint64_t sent, std::uint64_t terminal) {
  checks.Add("stable", stable, stable ? "ok" : diagnostic);
  checks.Add("terminal_equals_sent", terminal == sent,
             std::to_string(terminal) + " terminal of " +
                 std::to_string(sent) + " sent");
}

/** Sketch p50/p99 against the exact 1-in-100 subsample (scenariorun's
 * default tolerances: 5% and 10%). */
void CheckSketch(Checks& checks, const serve::QuantileSketch& sketch,
                 std::vector<double> exact) {
  if (exact.empty()) {
    checks.Add("sketch_vs_exact", false, "no exact subsample");
    return;
  }
  const double exact_p50 = serve::Percentile(exact, 0.5);
  const double exact_p99 = serve::Percentile(exact, 0.99);
  const double p50 = sketch.Quantile(0.5);
  const double p99 = sketch.Quantile(0.99);
  const double err50 = std::abs(p50 - exact_p50) / std::max(exact_p50, 1e-9);
  const double err99 = std::abs(p99 - exact_p99) / std::max(exact_p99, 1e-9);
  checks.Add("sketch_vs_exact", err50 <= 0.05 && err99 <= 0.10,
             Format("p50 error %.4f (<= 0.05), p99 error %.4f (<= 0.10)",
                    err50, err99));
}

struct SimMetrics {
  serve::LatencySummary ttft;
  serve::LatencySummary tbt;
  double goodput_frac = 0.0;
};

JsonObject SimJson(const SimMetrics& m) {
  return JsonObject()
      .Num("ttft_p50_ms", m.ttft.p50_ms)
      .Num("ttft_p99_ms", m.ttft.p99_ms)
      .Int("ttft_count", m.ttft.count)
      .Num("tbt_p99_ms", m.tbt.p99_ms)
      .Int("tbt_count", m.tbt.count)
      .Num("goodput_frac", m.goodput_frac);
}

JsonObject SplitJson(std::uint64_t sent, const serve::GoodputSplit& split) {
  return JsonObject()
      .Int("sent", sent)
      .Int("attained", split.attained)
      .Int("timed_out", split.timed_out)
      .Int("shed", split.shed)
      .Int("failed", split.failed);
}

// ---------------------------------------------------------------------------
// Untraced run: the public harness entry points, timed as a whole.
// ---------------------------------------------------------------------------

JsonObject RunUntraced(const Workload& w, const Setup& setup,
                       double* run_s) {
  const harness::RunConfig config = MakeConfig(w);
  Checks checks;
  JsonObject out;
  SimMetrics sim_metrics;
  std::uint64_t sent = 0;
  serve::GoodputSplit split;
  if (w.shape == Shape::kStream) {
    const harness::StreamingSpec spec = StreamSpec(w);
    const std::int64_t t0 = NowNs();
    const harness::StreamingOutcome outcome = harness::RunStreamingWorkload(
        harness::EngineKind::kMuxWise, setup.deployment, spec,
        setup.estimator.get(), config);
    *run_s = SecondsSince(t0);
    sent = outcome.total;
    // The streaming outcome has no goodput split: `stable` already means
    // every request reached a terminal state (the traced run checks the
    // split), and `completed` counts the attained.
    split.attained = outcome.completed;
    checks.Add("stable", outcome.stable,
               outcome.stable ? "ok" : outcome.diagnostic);
    CheckSketch(checks, outcome.ttft_sketch, outcome.ttft_subsample_ms);
    sim_metrics.ttft = outcome.ttft;
    sim_metrics.tbt = outcome.tbt;
    out.Str("event_digest", Hex(outcome.event_digest))
        .Str("outcome_digest", Hex(outcome.event_digest))
        .Int("executed_events", outcome.executed_events);
  } else {
    const std::int64_t t0 = NowNs();
    const harness::RunOutcome outcome = harness::RunWorkload(
        harness::EngineKind::kMuxWise, setup.deployment, setup.trace,
        setup.estimator.get(), config);
    *run_s = SecondsSince(t0);
    sent = setup.trace.requests.size();
    split = outcome.split;
    CheckRun(checks, outcome.stable, outcome.diagnostic, sent,
             split.total());
    sim_metrics.ttft = outcome.ttft;
    sim_metrics.tbt = outcome.tbt;
    out.Str("event_digest", Hex(outcome.event_digest))
        .Str("outcome_digest", Hex(harness::OutcomeDigest(outcome)))
        .Int("executed_events", outcome.executed_events);
  }
  sim_metrics.goodput_frac =
      sent == 0 ? 0.0
                : static_cast<double>(split.attained) /
                      static_cast<double>(sent);
  out.Obj("requests", SplitJson(sent, split))
      .Obj("sim", SimJson(sim_metrics))
      .Obj("checks", checks.json)
      .Bool("correct", checks.failures.empty());
  return out;
}

// ---------------------------------------------------------------------------
// Traced run: wall-clock spans recorded by this file.
// ---------------------------------------------------------------------------

enum SpanName : int {
  kSpanRun,
  kSpanStep,
  kSpanEnqueue,
  kSpanDispatch,
  kSpanOnComplete,
  kSpanReplay,
  kSpanKvAcquire,
  kSpanKvReserve,
  kSpanKvCommit,
  kSpanKvRelease,
  kSpanPredictPrefill,
  kSpanPredictDecode,
  kSpanWorstCaseDecode,
  kSpanChooseDecodeSms,
  kNumSpanNames,
};

constexpr const char* kSpanNames[kNumSpanNames] = {
    "run",
    "sim.step",
    "engine.enqueue",
    "route.dispatch",
    "serve.on_complete",
    "replay",
    "kv.acquire",
    "kv.reserve",
    "kv.commit",
    "kv.release",
    "llm.predict_prefill",
    "llm.predict_decode",
    "core.worst_case_decode",
    "core.choose_decode_sms",
};

/**
 * In-memory span log. Every span contributes its self time (duration
 * minus the time its child spans cover) to a per-name sample vector;
 * the first kMaxRecords spans are also kept whole (name, start, end,
 * parent, request id) and written out at the end.
 */
class SpanLog {
 public:
  struct Record {
    int name = 0;
    std::int64_t start_ns = 0;  // Relative to the log's creation.
    std::int64_t end_ns = 0;
    std::int64_t parent = -1;   // Index into the records; -1 for a root.
    std::int64_t request = -1;  // Request id where known.
  };

  static constexpr std::size_t kMaxRecords = 200000;

  SpanLog() : base_ns_(NowNs()) {}

  void Begin(SpanName name, std::int64_t request = -1) {
    Open open;
    open.name = name;
    open.parent = stack_.empty() ? -1 : stack_.back().record;
    if (records_.size() < kMaxRecords) {
      open.record = static_cast<std::int64_t>(records_.size());
      records_.push_back(Record{name, 0, 0, open.parent, request});
    }
    open.start_ns = NowNs();
    stack_.push_back(open);
  }

  void End() {
    const std::int64_t end = NowNs();
    const Open open = stack_.back();
    stack_.pop_back();
    const std::int64_t duration = end - open.start_ns;
    self_ns_[open.name].push_back(
        static_cast<double>(duration - open.child_ns));
    if (!stack_.empty()) stack_.back().child_ns += duration;
    if (open.record >= 0) {
      Record& record = records_[static_cast<std::size_t>(open.record)];
      record.start_ns = open.start_ns - base_ns_;
      record.end_ns = end - base_ns_;
    }
  }

  std::vector<double>& self_ns(SpanName name) { return self_ns_[name]; }

  bool WriteTo(const std::string& path) const {
    std::ofstream out(path, std::ios::binary);
    if (!out) return false;
    out << "{\"fields\":[\"name\",\"start_ns\",\"end_ns\",\"parent\","
           "\"request\"],\"spans\":[";
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      out << (i == 0 ? "" : ",") << "[\"" << kSpanNames[r.name] << "\","
          << r.start_ns << "," << r.end_ns << "," << r.parent << ","
          << r.request << "]";
    }
    out << "]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Open {
    SpanName name = kSpanRun;
    std::int64_t start_ns = 0;
    std::int64_t child_ns = 0;
    std::int64_t record = -1;
    std::int64_t parent = -1;
  };

  std::int64_t base_ns_;
  std::vector<Open> stack_;
  std::vector<Record> records_;
  std::vector<double> self_ns_[kNumSpanNames];
};

/**
 * Counts span events in an obs::TraceRecorder with bounded memory: the
 * recorder keeps a ring, and Poll() consumes the new tail before the
 * ring can overwrite it. Counts kernel spans and collects the fleet's
 * dispatch instants (request id -> replica).
 */
class RecorderTap {
 public:
  static constexpr std::size_t kRing = 1 << 16;

  RecorderTap() : recorder_(obs::TraceRecorder::Options{kRing, 1}) {}

  obs::TraceRecorder& recorder() { return recorder_; }

  void Poll(bool force) {
    const std::uint64_t total = recorder_.size() + recorder_.dropped();
    const std::uint64_t fresh = total - seen_;
    if (fresh == 0 || (!force && fresh < kRing / 2)) return;
    const std::vector<obs::TraceEvent> events = recorder_.Events();
    // Poll() runs after every event, far more often than the ring fills.
    MUX_CHECK(fresh <= events.size());
    for (std::size_t i = events.size() - fresh; i < events.size(); ++i) {
      Consume(events[i]);
    }
    seen_ = total;
  }

  std::uint64_t kernel_spans() const { return kernel_spans_; }
  std::uint64_t events() const { return seen_; }
  const std::unordered_map<std::int64_t, std::size_t>& replica_of() const {
    return replica_of_;
  }

 private:
  enum class Kind { kOther, kKernel, kDispatch };

  void Consume(const obs::TraceEvent& event) {
    while (kinds_.size() < recorder_.names().size()) {
      const std::string& name = recorder_.names()[kinds_.size()];
      kinds_.push_back(name == "kernel"     ? Kind::kKernel
                       : name == "dispatch" ? Kind::kDispatch
                                            : Kind::kOther);
    }
    const Kind kind = kinds_[event.name];
    if (kind == Kind::kKernel && event.kind == obs::EventKind::kSpanBegin) {
      ++kernel_spans_;
    } else if (kind == Kind::kDispatch &&
               event.kind == obs::EventKind::kInstant) {
      replica_of_[event.id] = static_cast<std::size_t>(event.value);
    }
  }

  obs::TraceRecorder recorder_;
  std::uint64_t seen_ = 0;
  std::vector<Kind> kinds_;
  std::uint64_t kernel_spans_ = 0;
  std::unordered_map<std::int64_t, std::size_t> replica_of_;
};

/**
 * Observes arrivals and completions during the traced run and records
 * the operation streams the replays re-issue afterwards: per request its
 * token sequences and terminal outcome (KV replay), and per arrival the
 * prefill work plus the contexts then in flight (planner replay).
 */
class OpLog {
 public:
  /** Requests whose operations are recorded (the first ones to arrive). */
  static constexpr std::size_t kMaxRequests = 200000;

  /** Decode-batch cap, as MuxWiseEngine::Options::max_decode_batch. */
  static constexpr std::size_t kMaxDecodeBatch = 256;

  struct KvRequest {
    std::int64_t id = 0;
    kv::TokenSeq prompt;
    kv::TokenSeq full_seq;
    std::int64_t input = 0;
    std::int64_t output = 0;
    bool attained = false;
  };

  struct KvOp {
    bool commit = false;
    std::uint32_t request = 0;  // Index into requests().
    sim::Time now = 0;
  };

  struct PlannerOp {
    llm::SeqWork prefill;
    std::size_t ctx_begin = 0;  // Range in decode_contexts().
    std::size_t ctx_end = 0;
  };

  void OnArrival(const serve::Request& request, sim::Time now) {
    const workload::RequestSpec& spec = *request.spec;
    if (requests_.size() < kMaxRequests && !index_.count(spec.id)) {
      index_[spec.id] = static_cast<std::uint32_t>(requests_.size());
      requests_.push_back(KvRequest{spec.id, spec.prompt, spec.full_seq,
                                    spec.input_tokens, spec.output_tokens,
                                    false});
      kv_ops_.push_back(KvOp{false, index_[spec.id], now});

      PlannerOp op;
      op.prefill = llm::SeqWork{spec.NewTokens(), spec.reused_tokens};
      op.ctx_begin = contexts_.size();
      for (const auto& [id, ctx] : in_flight_) {
        if (contexts_.size() - op.ctx_begin >= kMaxDecodeBatch) break;
        contexts_.push_back(ctx);
      }
      op.ctx_end = contexts_.size();
      planner_ops_.push_back(op);
    }
    in_flight_[spec.id] = spec.input_tokens;
  }

  void OnComplete(const serve::Request& request, sim::Time now) {
    const std::int64_t id = request.spec->id;
    in_flight_.erase(id);
    const auto it = index_.find(id);
    if (it == index_.end()) return;
    requests_[it->second].attained =
        request.outcome == serve::Outcome::kCompleted ||
        request.outcome == serve::Outcome::kRunning;
    kv_ops_.push_back(KvOp{true, it->second, now});
  }

  const std::vector<KvRequest>& requests() const { return requests_; }
  const std::vector<KvOp>& kv_ops() const { return kv_ops_; }
  const std::vector<PlannerOp>& planner_ops() const { return planner_ops_; }
  const std::vector<std::int64_t>& decode_contexts() const {
    return contexts_;
  }

 private:
  std::vector<KvRequest> requests_;
  std::unordered_map<std::int64_t, std::uint32_t> index_;
  std::vector<KvOp> kv_ops_;
  std::vector<PlannerOp> planner_ops_;
  std::vector<std::int64_t> contexts_;
  std::map<std::int64_t, std::int64_t> in_flight_;  // id -> prompt tokens.
};

/**
 * The exact TTFT and TBT populations of the attained requests, kept in
 * full. The collector's sketches quantise past 32768 samples (to ~1.6%),
 * so a bucket midpoint can read the same for every seed; the simulated
 * SLO metrics are therefore taken from these exact populations, and the
 * sketch is checked against them.
 */
struct ExactLatencies {
  std::vector<double> ttft_ms;
  std::vector<double> tbt_ms;
  std::vector<double> queue_ms;  // All SLO classes, as MetricsCollector.

  void Add(const serve::Request& request) {
    if (request.outcome != serve::Outcome::kCompleted &&
        request.outcome != serve::Outcome::kRunning) {
      return;
    }
    ttft_ms.push_back(sim::ToMilliseconds(request.Ttft()));
    if (request.prefill_start >= request.arrival) {
      queue_ms.push_back(
          sim::ToMilliseconds(request.prefill_start - request.arrival));
    }
    for (std::size_t i = 1; i < request.token_times.size(); ++i) {
      tbt_ms.push_back(sim::ToMilliseconds(request.token_times[i] -
                                           request.token_times[i - 1]));
    }
  }
};

/** R-7 percentile (serve::Percentile's definition) without a full sort. */
double PercentileR7(std::vector<double>& values, double p) {
  if (values.empty()) return 0.0;
  const double rank = p * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(lo),
                   values.end());
  const double lo_value = values[lo];
  if (lo + 1 >= values.size()) return lo_value;
  const double hi_value = *std::min_element(
      values.begin() + static_cast<std::ptrdiff_t>(lo) + 1, values.end());
  return lo_value + (rank - static_cast<double>(lo)) * (hi_value - lo_value);
}

/** Exact simulated SLO metrics, plus the check that the collector's
 * sketch summaries (what the program reports) agree with them. */
JsonObject ExactSim(ExactLatencies& exact, const SimMetrics& sketch,
                    Checks& checks) {
  SimMetrics m;
  m.ttft.count = exact.ttft_ms.size();
  m.ttft.p50_ms = PercentileR7(exact.ttft_ms, 0.50);
  m.ttft.p99_ms = PercentileR7(exact.ttft_ms, 0.99);
  m.tbt.count = exact.tbt_ms.size();
  m.tbt.p99_ms = PercentileR7(exact.tbt_ms, 0.99);
  m.goodput_frac = sketch.goodput_frac;
  double worst = 0.0;
  for (const auto& [a, b] : {std::pair{sketch.ttft.p50_ms, m.ttft.p50_ms},
                             std::pair{sketch.ttft.p99_ms, m.ttft.p99_ms},
                             std::pair{sketch.tbt.p99_ms, m.tbt.p99_ms}}) {
    worst = std::max(worst, std::abs(a - b) / std::max(std::abs(b), 1e-9));
  }
  checks.Add("sketch_vs_exact_population", worst <= 0.02 &&
                                                 m.ttft.count ==
                                                     sketch.ttft.count &&
                                                 m.tbt.count ==
                                                     sketch.tbt.count,
             Format("worst relative error %.4f (<= 0.02) over %.0f "
                    "TTFT samples",
                    worst, static_cast<double>(m.ttft.count)));
  return SimJson(m);
}

/** Everything the traced run's hooks write into. */
struct TraceState {
  explicit TraceState(const sim::Simulator* sim) : simulator(sim) {}

  const sim::Simulator* simulator;
  SpanLog spans;
  OpLog ops;
  RecorderTap tap;
  ExactLatencies exact;
  sim::Time last_completion = 0;
};

/**
 * Pass-through engine between the Frontend and the engine MakeEngine
 * built. It times each Enqueue (route.dispatch for the fleet router,
 * engine.enqueue otherwise) and each completion, and feeds the op log.
 * It schedules nothing, so the simulated event stream is unchanged.
 * Completions also go through a shadow MetricsCollector whose
 * OnRequestComplete is timed (serve.on_complete), since the Frontend's
 * own collector call is not separable from its bookkeeping.
 */
class ProbeEngine : public serve::Engine {
 public:
  ProbeEngine(serve::Engine* inner, SpanName enqueue_span,
              const workload::SloTargets& slo, TraceState* state)
      : inner_(inner),
        enqueue_span_(enqueue_span),
        shadow_(slo),
        state_(state) {
    inner_->set_on_complete([this](std::unique_ptr<serve::Request> request) {
      OnInnerComplete(std::move(request));
    });
  }

  const char* name() const override { return inner_->name(); }

  void Enqueue(std::unique_ptr<serve::Request> request) override {
    const std::int64_t id = request->spec->id;
    state_->ops.OnArrival(*request, state_->simulator->Now());
    state_->spans.Begin(enqueue_span_, id);
    inner_->Enqueue(std::move(request));
    state_->spans.End();
  }

  std::size_t InFlight() const override { return inner_->InFlight(); }

  const serve::MetricsCollector& shadow() const { return shadow_; }

 private:
  void OnInnerComplete(std::unique_ptr<serve::Request> request) {
    const sim::Time now = state_->simulator->Now();
    state_->ops.OnComplete(*request, now);
    state_->exact.Add(*request);
    state_->last_completion = std::max(state_->last_completion, now);
    state_->spans.Begin(kSpanOnComplete, request->spec->id);
    shadow_.OnRequestComplete(*request);
    state_->spans.End();
    NotifyComplete(std::move(request));
  }

  serve::Engine* inner_;
  SpanName enqueue_span_;
  serve::MetricsCollector shadow_;
  TraceState* state_;
};

// --- The stream's lazy arrival process (mirrors harness/streaming.cc) -----

std::uint64_t SplitMix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double U01(std::uint64_t seed, std::uint64_t tag, std::uint64_t index) {
  const std::uint64_t bits = SplitMix64(SplitMix64(seed ^ tag) ^ index);
  return (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
}

std::int64_t SampleLength(const harness::StreamingLengths& lengths,
                          std::uint64_t seed, std::uint64_t tag,
                          std::uint64_t index) {
  const double excess =
      std::max(0.0, lengths.mean - static_cast<double>(lengths.min));
  const double draw = -std::log(U01(seed, tag, index)) * excess;
  const std::int64_t value = lengths.min + static_cast<std::int64_t>(draw);
  return std::clamp<std::int64_t>(value,
                                  std::max<std::int64_t>(1, lengths.min),
                                  std::max<std::int64_t>(1, lengths.max));
}

/**
 * The streaming driver of harness::RunStreamingWorkload, re-implemented
 * so the traced run can time its calls: the same counter-based draws and
 * the same one-pending-arrival scheduling, hence the same event stream
 * (the traced-vs-untraced digest check proves it on every run).
 */
class TracedStream {
 public:
  TracedStream(sim::Simulator* simulator, serve::Engine* engine,
               serve::MetricsCollector* metrics,
               const harness::StreamingSpec& spec, TraceState* state)
      : sim_(simulator),
        engine_(engine),
        metrics_(metrics),
        spec_(spec),
        state_(state) {
    engine_->set_on_complete([this](std::unique_ptr<serve::Request> request) {
      OnComplete(std::move(request));
    });
  }

  void Start() {
    if (spec_.total_requests == 0) return;
    AdvanceArrival();
    ScheduleNext();
  }

  std::uint64_t terminal() const { return terminal_; }
  std::vector<double>& subsample() { return subsample_; }

 private:
  static constexpr std::uint64_t kArrivalTag = 0x61727269;
  static constexpr std::uint64_t kInputTag = 0x696e7075;
  static constexpr std::uint64_t kOutputTag = 0x6f757470;

  void AdvanceArrival() {
    const double u = U01(spec_.seed, kArrivalTag, next_index_);
    next_arrival_seconds_ += -std::log(u) / spec_.rate_per_second;
  }

  void ScheduleNext() {
    const sim::Time when =
        std::max(sim_->Now(), sim::Seconds(next_arrival_seconds_));
    sim_->ScheduleAt(when, [this] { Inject(); });
  }

  void Inject() {
    const std::uint64_t index = next_index_++;
    auto spec = std::make_unique<workload::RequestSpec>();
    spec->id = static_cast<std::int64_t>(index) + 1;
    spec->arrival_seconds = next_arrival_seconds_;
    spec->session = spec->id;
    spec->session_seq = 0;
    const std::int64_t stream = spec->id;
    const std::int64_t input =
        SampleLength(spec_.input, spec_.seed, kInputTag, index);
    const std::int64_t output =
        SampleLength(spec_.output, spec_.seed, kOutputTag, index);
    spec->prompt = {kv::TokenSpan{stream, 0, input}};
    spec->full_seq = {kv::TokenSpan{stream, 0, input + output}};
    spec->input_tokens = input;
    spec->reused_tokens = 0;
    spec->output_tokens = output;

    auto request = std::make_unique<serve::Request>(spec.get());
    request->arrival = sim_->Now();
    state_->ops.OnArrival(*request, sim_->Now());
    const std::int64_t id = spec->id;
    in_flight_.emplace(id, std::move(spec));
    state_->spans.Begin(kSpanEnqueue, id);
    engine_->Enqueue(std::move(request));
    state_->spans.End();

    if (next_index_ < spec_.total_requests) {
      AdvanceArrival();
      ScheduleNext();
    }
  }

  void OnComplete(std::unique_ptr<serve::Request> request) {
    const std::int64_t id = request->spec->id;
    ++terminal_;
    state_->ops.OnComplete(*request, sim_->Now());
    state_->exact.Add(*request);
    state_->last_completion = std::max(state_->last_completion, sim_->Now());
    state_->spans.Begin(kSpanOnComplete, id);
    metrics_->OnRequestComplete(*request);
    state_->spans.End();
    if (spec_.exact_subsample_period > 0 && request->first_token >= 0 &&
        static_cast<std::uint64_t>(id - 1) % spec_.exact_subsample_period ==
            0) {
      subsample_.push_back(sim::ToMilliseconds(request->Ttft()));
    }
    request.reset();
    in_flight_.erase(id);
  }

  sim::Simulator* sim_;
  serve::Engine* engine_;
  serve::MetricsCollector* metrics_;
  const harness::StreamingSpec spec_;
  TraceState* state_;

  std::uint64_t next_index_ = 0;
  double next_arrival_seconds_ = 0.0;
  std::uint64_t terminal_ = 0;
  std::vector<double> subsample_;
  std::unordered_map<std::int64_t, std::unique_ptr<workload::RequestSpec>>
      in_flight_;
};

/** One timed Simulator::Step per event, until `keep_going` says stop. */
template <typename KeepGoing>
void DriveTraced(sim::Simulator& simulator, TraceState& state,
                 std::size_t event_budget, std::size_t* pending_peak,
                 KeepGoing keep_going) {
  std::size_t executed = 0;
  while (executed < event_budget && keep_going()) {
    state.spans.Begin(kSpanStep);
    simulator.Step();
    state.spans.End();
    ++executed;
    *pending_peak = std::max(*pending_peak, simulator.PendingEvents());
    state.tap.Poll(false);
  }
  state.tap.Poll(true);
}

/** Adds `<prefix>_p50`, `<prefix>_p99` and `<prefix>_calls` for a span. */
void AddSpanStats(JsonObject& layers, SpanLog& spans, SpanName name,
                  const std::string& prefix) {
  std::vector<double>& samples = spans.self_ns(name);
  const double calls = samples.empty()
                           ? std::nan("")
                           : static_cast<double>(samples.size());
  layers.Num(prefix + "_p50", Quantile(samples, 0.50))
      .Num(prefix + "_p99", Quantile(samples, 0.99))
      .Num(prefix + "_calls", calls);
}

/** KV replay: the recorded requests through fresh pools (one per replica)
 * with the engine's admission arithmetic (serve/admission.cc). */
void ReplayKv(const OpLog& ops, const RecorderTap& tap, std::size_t pools,
              std::int64_t capacity, SpanLog& spans, JsonObject& layers) {
  std::vector<std::unique_ptr<kv::KvPool>> pool;
  for (std::size_t i = 0; i < pools; ++i) {
    pool.push_back(std::make_unique<kv::KvPool>(capacity));
  }
  struct Live {
    kv::KvPool::PrefixLease lease;
    std::int64_t reserved = 0;
    std::size_t pool = 0;
    bool admitted = false;
  };
  const std::vector<OpLog::KvRequest>& requests = ops.requests();
  std::vector<Live> live(requests.size());
  std::size_t nodes_peak = 0;
  std::uint64_t reserve_failures = 0;
  for (const OpLog::KvOp& op : ops.kv_ops()) {
    const OpLog::KvRequest& request = requests[op.request];
    if (!request.attained) continue;  // Shed or timed out: never cached.
    Live& state = live[op.request];
    if (!op.commit) {
      if (pools > 1) {
        const auto it = tap.replica_of().find(request.id);
        state.pool = it == tap.replica_of().end() ? 0 : it->second % pools;
      }
      kv::KvPool& p = *pool[state.pool];
      spans.Begin(kSpanKvAcquire, request.id);
      state.lease = p.AcquirePrefix(request.prompt, op.now);
      spans.End();
      const std::int64_t cached =
          std::min(state.lease.matched_tokens, request.input - 1);
      const std::int64_t need = (request.input - cached) + request.output;
      spans.Begin(kSpanKvReserve, request.id);
      const bool reserved = p.TryReserve(need);
      spans.End();
      if (!reserved) {
        p.ReleasePrefix(state.lease);
        ++reserve_failures;
        continue;
      }
      state.reserved = need;
      state.admitted = true;
    } else {
      if (!state.admitted) continue;
      kv::KvPool& p = *pool[state.pool];
      spans.Begin(kSpanKvCommit, request.id);
      p.ReleaseReserved(state.reserved);
      p.CommitSequence(request.full_seq, op.now);
      spans.End();
      spans.Begin(kSpanKvRelease, request.id);
      p.ReleasePrefix(state.lease);
      spans.End();
      state.admitted = false;
    }
    std::size_t nodes = 0;
    for (const auto& p : pool) nodes += p->tree().node_count();
    nodes_peak = std::max(nodes_peak, nodes);
  }
  std::int64_t hit = 0;
  std::int64_t requested = 0;
  for (const auto& p : pool) {
    hit += p->hit_tokens();
    requested += p->requested_tokens();
  }
  layers.Num("kv.replay_hit_ratio",
             requested > 0 ? static_cast<double>(hit) /
                                 static_cast<double>(requested)
                           : std::nan(""));
  layers.Int("kv.nodes_peak", nodes_peak);
  layers.Int("kv.replay_reserve_failures", reserve_failures);
  AddSpanStats(layers, spans, kSpanKvAcquire, "kv.acquire_ns");
  AddSpanStats(layers, spans, kSpanKvReserve, "kv.reserve_ns");
  AddSpanStats(layers, spans, kSpanKvCommit, "kv.commit_ns");
  AddSpanStats(layers, spans, kSpanKvRelease, "kv.release_ns");
}

/** Planner replay: each recorded arrival as a prefill batch against the
 * contexts then in flight as the decode batch. */
void ReplayPlanner(const OpLog& ops, const serve::Deployment& deployment,
                   const core::ContentionEstimator& estimator,
                   SpanLog& spans, JsonObject& layers) {
  const core::SloAwareDispatcher dispatcher(
      deployment, &estimator, core::SloAwareDispatcher::Options());
  const std::vector<int> options = deployment.SmPartitionOptions();
  const int full = deployment.gpu.sm_count;
  const llm::SoloRunPredictor& predictor = estimator.predictor();
  const std::vector<std::int64_t>& contexts = ops.decode_contexts();
  for (const OpLog::PlannerOp& op : ops.planner_ops()) {
    const std::vector<std::int64_t> ctx(
        contexts.begin() + static_cast<std::ptrdiff_t>(op.ctx_begin),
        contexts.begin() + static_cast<std::ptrdiff_t>(op.ctx_end));
    const std::vector<llm::SeqWork> batch = {op.prefill};
    const core::PrefillDesc desc{op.prefill.new_tokens,
                                 op.prefill.reused_tokens};
    int prefill_sms = full;
    if (!ctx.empty()) {
      spans.Begin(kSpanChooseDecodeSms);
      const int decode_sms = dispatcher.ChooseDecodeSms(ctx, true, desc);
      spans.End();
      spans.Begin(kSpanWorstCaseDecode);
      estimator.WorstCaseDecode(ctx, decode_sms, desc);
      spans.End();
      spans.Begin(kSpanPredictDecode);
      predictor.PredictDecode(ctx, decode_sms);
      spans.End();
      prefill_sms = std::max(full - decode_sms, options.front());
    }
    spans.Begin(kSpanPredictPrefill);
    predictor.PredictPrefill(batch, prefill_sms);
    spans.End();
  }
  AddSpanStats(layers, spans, kSpanPredictPrefill, "llm.predict_prefill_ns");
  AddSpanStats(layers, spans, kSpanPredictDecode, "llm.predict_decode_ns");
  AddSpanStats(layers, spans, kSpanWorstCaseDecode,
               "core.worst_case_decode_ns");
  AddSpanStats(layers, spans, kSpanChooseDecodeSms,
               "core.choose_decode_sms_ns");
}

std::size_t SketchBytes(const serve::MetricsCollector& metrics) {
  std::size_t bytes = metrics.ttft_sketch().MemoryBytes() +
                      metrics.ttft_per_token_sketch().MemoryBytes() +
                      metrics.tbt_sketch().MemoryBytes() +
                      metrics.tpot_sketch().MemoryBytes() +
                      metrics.e2e_sketch().MemoryBytes();
  for (int rank = 0; rank < workload::kNumSloClasses; ++rank) {
    const serve::ClassMetrics& slice =
        metrics.ClassSlice(static_cast<workload::SloClass>(rank));
    bytes += slice.queue_delay.MemoryBytes() + slice.ttft.MemoryBytes();
  }
  return bytes;
}

/** Engine-side counts read after the traced run. */
void AddEngineCounts(const harness::EngineInstance& instance,
                     const serve::MetricsCollector& metrics,
                     const RecorderTap& tap, std::uint64_t sent,
                     sim::Time end, JsonObject& layers) {
  std::vector<core::MuxWiseEngine*> engines;
  if (instance.fleet != nullptr) {
    for (std::size_t r = 0; r < instance.fleet->num_replicas(); ++r) {
      engines.push_back(&instance.fleet->replica(r));
    }
  } else {
    engines.push_back(instance.muxwise);
  }
  const double span = static_cast<double>(std::max<sim::Time>(end, 1));
  double util = 0.0;
  double bubble = 0.0;
  std::uint64_t decode_iterations = 0;
  std::uint64_t preemptions = 0;
  std::uint64_t guard_raises = 0;
  std::uint64_t spills = 0;
  std::uint64_t mode_transitions = 0;
  std::int64_t hit = 0;
  std::int64_t requested = 0;
  for (core::MuxWiseEngine* engine : engines) {
    util += 100.0 * engine->mux().device().SmUtilizationIntegral() / span;
    bubble += engine->mux().AverageBubbleRatio();
    decode_iterations += engine->decode_iterations();
    preemptions += engine->preemptions();
    guard_raises += engine->estimator().guard_raises();
    spills += engine->kv_spills();
    mode_transitions += engine->overload_controller().mode_transitions();
    hit += engine->pool().hit_tokens();
    requested += engine->pool().requested_tokens();
  }
  const double n = static_cast<double>(engines.size());
  const double requests =
      static_cast<double>(std::max<std::uint64_t>(sent, 1));
  layers.Num("gpu.sm_util_pct", util / n)
      .Num("gpu.kernels_per_req",
           static_cast<double>(tap.kernel_spans()) / requests)
      .Num("kv.hit_ratio", requested > 0 ? static_cast<double>(hit) /
                                               static_cast<double>(requested)
                                         : std::nan(""))
      .Int("core.decode_iterations", decode_iterations)
      .Int("core.preemptions", preemptions)
      .Num("core.bubble_ratio", bubble / n)
      .Int("core.guard_raises", guard_raises)
      .Int("serve.metric_bytes", SketchBytes(metrics));

  // Per-class queue delays are printed for information (a class a trace
  // does not carry reads n/a); the metric is the all-class exact p99.
  constexpr const char* kClassNames[workload::kNumSloClasses] = {
      "interactive", "standard", "batch"};
  for (int rank = 0; rank < workload::kNumSloClasses; ++rank) {
    const serve::ClassMetrics& slice =
        metrics.ClassSlice(static_cast<workload::SloClass>(rank));
    layers.Num(std::string("serve.queue_delay_p99_ms.") + kClassNames[rank],
               slice.queue_delay.empty() ? std::nan("")
                                         : slice.QueueDelayP99());
  }

  const serve::GoodputSplit split = metrics.Split();
  const double nan = std::nan("");
  if (instance.fleet != nullptr) {
    const route::FleetStats stats = instance.fleet->Stats();
    std::size_t routed = 0;
    std::size_t most = 0;
    for (std::size_t count : stats.routed_per_replica) {
      routed += count;
      most = std::max(most, count);
    }
    const double mean =
        static_cast<double>(routed) /
        static_cast<double>(
            std::max<std::size_t>(stats.routed_per_replica.size(), 1));
    layers.Num("route.affinity_hit_ratio",
               routed > 0 ? static_cast<double>(stats.affinity_hits) /
                                static_cast<double>(routed)
                          : nan)
        .Num("route.imbalance",
             mean > 0 ? static_cast<double>(most) / mean : nan);
    mode_transitions += stats.mode_transitions;
  } else {
    // One engine and no router: every request goes to the one replica
    // (imbalance exactly 1) and there is no affinity table to hit.
    layers.Num("route.affinity_hit_ratio", nan).Num("route.imbalance", 1.0);
  }
  // Measured on every engine, whether or not overload control is on.
  layers.Num("overload.shed_frac", static_cast<double>(split.shed) / requests)
      .Int("overload.mode_transitions", mode_transitions)
      .Int("overload.spills", spills);
}

JsonObject RunTraced(const Workload& w, const Setup& setup, double* run_s,
                     const std::string& spans_out) {
  const harness::RunConfig config = MakeConfig(w);
  sim::Simulator simulator;
  TraceState state(&simulator);
  state.spans.Begin(kSpanRun);
  const std::int64_t t0 = NowNs();

  harness::EngineInstance instance =
      harness::MakeEngine(harness::EngineKind::kMuxWise, &simulator,
                          setup.deployment, setup.estimator.get(), config);
  const obs::Tracer tracer(&state.tap.recorder(), &simulator);
  instance.engine->AttachTracer(tracer);
  if (instance.fleet != nullptr) {
    // The router keeps its tracer to itself; attach each replica too so
    // their kernel spans are counted.
    for (std::size_t r = 0; r < instance.fleet->num_replicas(); ++r) {
      instance.fleet->replica(r).AttachTracer(tracer);
    }
  }

  Checks checks;
  std::uint64_t sent = 0;
  std::size_t pending_peak = 0;
  serve::MetricsCollector metrics(setup.deployment.slo);
  SimMetrics sim_metrics;
  bool stable = false;
  std::string diagnostic;
  std::uint64_t terminal = 0;
  std::unique_ptr<ProbeEngine> probe;

  if (w.shape == Shape::kStream) {
    const harness::StreamingSpec spec = StreamSpec(w);
    sent = spec.total_requests;
    instance.muxwise->set_partition_trace_capacity(4096);
    TracedStream stream(&simulator, instance.engine.get(), &metrics, spec,
                        &state);
    stream.Start();
    DriveTraced(simulator, state, config.event_budget, &pending_peak,
                [&simulator] { return !simulator.Empty(); });
    terminal = metrics.Split().total();
    stable = simulator.Empty() && stream.terminal() == sent;
    if (!stable) diagnostic = "stream did not drain";
    *run_s = SecondsSince(t0);
    CheckSketch(checks, metrics.ttft_sketch(), stream.subsample());
  } else {
    sent = setup.trace.requests.size();
    probe = std::make_unique<ProbeEngine>(
        instance.engine.get(),
        instance.fleet != nullptr ? kSpanDispatch : kSpanEnqueue,
        setup.deployment.slo, &state);
    serve::Frontend frontend(&simulator, probe.get(), &setup.trace,
                             &metrics);
    frontend.Start();
    // The horizon of harness::DriveScenario: the drain timeout past the
    // last arrival.
    const double last_arrival =
        setup.trace.requests.empty()
            ? 0.0
            : setup.trace.requests.back().arrival_seconds;
    const sim::Time horizon =
        sim::Seconds(last_arrival + config.drain_timeout_seconds);
    DriveTraced(simulator, state, config.event_budget, &pending_peak,
                [&simulator, horizon] {
                  return simulator.NextEventTime() <= horizon;
                });
    stable = frontend.AllCompleted();
    if (!stable) diagnostic = "requests still in flight at the drain horizon";
    *run_s = SecondsSince(t0);
    terminal = metrics.Split().total();
    const serve::GoodputSplit shadow = probe->shadow().Split();
    checks.Add("shadow_collector_agrees",
               shadow.total() == terminal &&
                   shadow.attained == metrics.Split().attained,
               std::to_string(shadow.total()) + " vs " +
                   std::to_string(terminal));
  }
  state.spans.End();  // run
  CheckRun(checks, stable, diagnostic, sent, terminal);

  const serve::GoodputSplit split = metrics.Split();
  sim_metrics.ttft = metrics.Ttft();
  sim_metrics.tbt = metrics.Tbt();
  const double requests =
      static_cast<double>(std::max<std::uint64_t>(sent, 1));
  sim_metrics.goodput_frac = static_cast<double>(split.attained) / requests;

  JsonObject layers;
  const std::size_t executed = simulator.ExecutedEvents();
  layers.Int("sim.events", executed)
      .Num("sim.events_per_req", static_cast<double>(executed) / requests)
      .Num("sim.events_per_s", static_cast<double>(executed) / *run_s)
      .Int("sim.pending_peak", pending_peak);
  std::vector<double>& steps = state.spans.self_ns(kSpanStep);
  layers.Num("sim.step_ns_p50", Quantile(steps, 0.50))
      .Num("sim.step_ns_p99", Quantile(steps, 0.99));
  AddEngineCounts(instance, metrics, state.tap, sent, state.last_completion,
                  layers);
  layers.Num("serve.queue_delay_p99_ms",
             state.exact.queue_ms.empty()
                 ? std::nan("")
                 : PercentileR7(state.exact.queue_ms, 0.99));
  AddSpanStats(layers, state.spans, kSpanOnComplete, "serve.on_complete_ns");
  // The hand-off into the serving system: FleetRouter::Enqueue, or the
  // engine's Enqueue where there is no router.
  AddSpanStats(layers, state.spans,
               instance.fleet != nullptr ? kSpanDispatch : kSpanEnqueue,
               "route.dispatch_ns");

  const kv::KvPool& engine_pool = instance.fleet != nullptr
                                      ? instance.fleet->replica(0).pool()
                                      : instance.muxwise->pool();
  const std::int64_t capacity = engine_pool.capacity_tokens();
  const std::size_t pools =
      instance.fleet != nullptr ? instance.fleet->num_replicas() : 1;
  state.spans.Begin(kSpanReplay);
  ReplayKv(state.ops, state.tap, pools, capacity, state.spans, layers);
  ReplayPlanner(state.ops, setup.deployment, *setup.estimator, state.spans,
                layers);
  state.spans.End();
  layers.Int("obs.trace_events", state.tap.events());

  if (!spans_out.empty() && !state.spans.WriteTo(spans_out)) {
    checks.Add("spans_written", false, "cannot write " + spans_out);
  }

  const JsonObject exact = ExactSim(state.exact, sim_metrics, checks);
  JsonObject out;
  out.Str("event_digest", Hex(simulator.EventDigest()))
      .Int("executed_events", executed)
      .Obj("requests", SplitJson(sent, split))
      .Obj("sim", SimJson(sim_metrics))
      .Obj("sim_exact", exact)
      .Obj("layers", layers)
      .Obj("checks", checks.json)
      .Bool("correct", checks.failures.empty());
  return out;
}

// ---------------------------------------------------------------------------

/** Set-ups per process; each set-up phase reports its median. */
constexpr int kSetupReps = 15;

struct Args {
  Workload workload;
  bool trace = false;
  std::string spans_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  std::string name;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--trace") {
      args.trace = true;
    } else if (arg == "--workload" && has_value) {
      name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      args.workload.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--scale" && has_value) {
      args.workload.scale = std::atof(argv[++i]);
    } else if (arg == "--spans-out" && has_value) {
      args.spans_out = argv[++i];
    } else {
      std::fprintf(stderr, "perfbench_driver: bad argument %s\n", arg.c_str());
      return false;
    }
  }
  if (!ParseShape(name, &args.workload.shape)) {
    std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                 name.c_str());
    return false;
  }
  if (args.workload.scale <= 0.0 || args.workload.scale > 1.0) {
    std::fprintf(stderr, "perfbench_driver: --scale must be in (0, 1]\n");
    return false;
  }
  args.workload.name = name;
  return true;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) return 2;
  const Workload& w = args.workload;

  // The run uses a set-up built first, untimed. Set-up is then timed
  // kSetupReps times after the run, in a process that has settled on its
  // core (set-ups timed right after start read up to 2x slow for the first
  // ~100 ms), and each phase reports its median.
  double run_s = 0.0;
  JsonObject out;
  {
    const Setup setup = BuildSetup(w);
    out = args.trace ? RunTraced(w, setup, &run_s, args.spans_out)
                     : RunUntraced(w, setup, &run_s);
  }
  std::vector<double> deployment_s, estimator_s, trace_s, total_s;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Setup setup = BuildSetup(w);
    deployment_s.push_back(setup.deployment_s);
    estimator_s.push_back(setup.estimator_s);
    trace_s.push_back(setup.trace_s);
    total_s.push_back(setup.deployment_s + setup.estimator_s + setup.trace_s);
  }
  out.Str("workload", w.name)
      .Int("seed", w.seed)
      .Num("scale", w.scale)
      .Bool("traced", args.trace)
      .Num("setup_s", Quantile(total_s, 0.5))
      .Num("setup_deployment_s", Quantile(deployment_s, 0.5))
      .Num("setup_estimator_s", Quantile(estimator_s, 0.5))
      .Num("setup_trace_s", Quantile(trace_s, 0.5))
      .Num("run_s", run_s)
      .Num("peak_rss_mib", PeakRssMib())
      .Obj("build", JsonObject()
                        .Str("compiler", kCompiler)
                        .Str("build_type", PERFBENCH_BUILD_TYPE));
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace muxwise::perfbench

int main(int argc, char** argv) { return muxwise::perfbench::Main(argc, argv); }
