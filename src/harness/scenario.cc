#include "harness/scenario.h"

#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <utility>

#include "baselines/loongserve.h"
#include "baselines/static_disagg.h"
#include "gpu/gpu_spec.h"
#include "llm/model_config.h"
#include "sim/json.h"
#include "sim/logging.h"

namespace muxwise::harness {

namespace {

// ---------------------------------------------------------------------------
// Strict field extraction. Every helper returns false after recording a
// path-qualified error, so a malformed scenario names its own defect
// instead of silently running something else.
// ---------------------------------------------------------------------------

struct ParseContext {
  std::string source;
  std::string error;

  bool Fail(const std::string& path, const std::string& what) {
    error = source + ": " + path + ": " + what;
    return false;
  }
};

bool CheckKeys(const json::Value& object, const std::string& path,
               std::initializer_list<const char*> allowed,
               ParseContext& ctx) {
  for (const auto& [key, value] : object.object) {
    bool known = false;
    for (const char* name : allowed) {
      if (key == name) {
        known = true;
        break;
      }
    }
    if (!known) return ctx.Fail(path, "unknown key \"" + key + "\"");
  }
  return true;
}

bool RequireObject(const json::Value* v, const std::string& path,
                   ParseContext& ctx) {
  if (v == nullptr || !v->IsObject()) {
    return ctx.Fail(path, "expected an object");
  }
  return true;
}

bool GetDouble(const json::Value& object, const std::string& path,
               const std::string& key, bool required, double fallback,
               double* out, ParseContext& ctx) {
  const json::Value* v = object.Find(key);
  if (v == nullptr) {
    if (required) return ctx.Fail(path, "missing required \"" + key + "\"");
    *out = fallback;
    return true;
  }
  if (v->type != json::Value::Type::kNumber) {
    return ctx.Fail(path + "." + key, "expected a number");
  }
  *out = v->number;
  return true;
}

bool GetInteger(const json::Value& object, const std::string& path,
                const std::string& key, bool required, std::int64_t fallback,
                std::int64_t* out, ParseContext& ctx) {
  double value = 0.0;
  if (!GetDouble(object, path, key, required,
                 static_cast<double>(fallback), &value, ctx)) {
    return false;
  }
  if (value != std::floor(value)) {
    return ctx.Fail(path + "." + key, "expected an integer");
  }
  *out = static_cast<std::int64_t>(value);
  return true;
}

bool ParseEngine(const std::string& name, EngineKind* out) {
  static const std::map<std::string, EngineKind> kEngines = {
      {"muxwise", EngineKind::kMuxWise},
      {"chunked", EngineKind::kChunked},
      {"nanoflow", EngineKind::kNanoFlow},
      {"sglang-pd", EngineKind::kSglangPd},
      {"loongserve", EngineKind::kLoongServe},
      {"windserve", EngineKind::kWindServe},
      {"temporal", EngineKind::kTemporal},
  };
  const auto it = kEngines.find(name);
  if (it == kEngines.end()) return false;
  *out = it->second;
  return true;
}

bool ParseDataset(const std::string& name, workload::Dataset* out) {
  static const std::map<std::string, workload::Dataset> kDatasets = {
      {"sharegpt", workload::Dataset::kShareGpt},
      {"loogle", workload::Dataset::kLoogle},
      {"openthoughts", workload::Dataset::kOpenThoughts},
      {"conversation", workload::Dataset::kConversation},
      {"toolagent", workload::Dataset::kToolAgent},
  };
  const auto it = kDatasets.find(name);
  if (it == kDatasets.end()) return false;
  *out = it->second;
  return true;
}

bool KnownModel(const std::string& name) {
  return name == "Llama-8B" || name == "Llama-70B" ||
         name == "Qwen3-235B-A22B" || name == "Qwen-235B" ||
         name == "CodeLlama-34B";
}

bool KnownGpu(const std::string& name) {
  return name == "A100" || name == "H100" || name == "H200";
}

bool ParseDeployment(const json::Value& root, ScenarioSpec& spec,
                     ParseContext& ctx) {
  const json::Value* v = root.Find("deployment");
  if (v == nullptr) return true;
  if (!RequireObject(v, "deployment", ctx)) return false;
  if (!CheckKeys(*v, "deployment", {"model", "gpu", "num_gpus"}, ctx)) {
    return false;
  }
  spec.model = json::GetString(v->Find("model"), spec.model);
  spec.gpu = json::GetString(v->Find("gpu"), spec.gpu);
  if (!KnownModel(spec.model)) {
    return ctx.Fail("deployment.model", "unknown model \"" + spec.model + "\"");
  }
  if (!KnownGpu(spec.gpu)) {
    return ctx.Fail("deployment.gpu", "unknown GPU \"" + spec.gpu + "\"");
  }
  std::int64_t num_gpus = spec.num_gpus;
  if (!GetInteger(*v, "deployment", "num_gpus", false, num_gpus, &num_gpus,
                  ctx)) {
    return false;
  }
  if (num_gpus < 1 || num_gpus > 64) {
    return ctx.Fail("deployment.num_gpus", "out of range [1, 64]");
  }
  // The disaggregated baselines need room for their instances.
  int min_gpus = 1;
  if (spec.engine == EngineKind::kSglangPd) {
    min_gpus = baselines::StaticDisaggEngine::kMinGpus;
  } else if (spec.engine == EngineKind::kLoongServe) {
    min_gpus = baselines::LoongServeEngine::kMinGpus;
  }
  if (num_gpus < min_gpus) {
    return ctx.Fail("deployment.num_gpus",
                    std::string(EngineKindName(spec.engine)) +
                        " needs at least " + std::to_string(min_gpus));
  }
  spec.num_gpus = static_cast<int>(num_gpus);
  return true;
}

bool ParseLengths(const json::Value* v, const std::string& path,
                  StreamingLengths* out, ParseContext& ctx) {
  if (v == nullptr) return true;
  if (!RequireObject(v, path, ctx)) return false;
  if (!CheckKeys(*v, path, {"min", "mean", "max"}, ctx)) return false;
  std::int64_t min = out->min;
  std::int64_t max = out->max;
  if (!GetInteger(*v, path, "min", false, min, &min, ctx)) return false;
  if (!GetInteger(*v, path, "max", false, max, &max, ctx)) return false;
  if (!GetDouble(*v, path, "mean", false, out->mean, &out->mean, ctx)) {
    return false;
  }
  if (min < 1 || max < min || out->mean < static_cast<double>(min) ||
      out->mean > static_cast<double>(max)) {
    return ctx.Fail(path, "requires 1 <= min <= mean <= max");
  }
  out->min = min;
  out->max = max;
  return true;
}

bool ParseTrace(const json::Value& root, ScenarioSpec& spec,
                ParseContext& ctx) {
  const json::Value* trace = root.Find("trace");
  if (!RequireObject(trace, "trace", ctx)) return false;
  if (!CheckKeys(*trace, "trace", {"mix", "mmpp", "streaming"}, ctx)) {
    return false;
  }
  const json::Value* mix = trace->Find("mix");
  const json::Value* mmpp = trace->Find("mmpp");
  const json::Value* streaming = trace->Find("streaming");
  const int shapes = (mix != nullptr) + (mmpp != nullptr) +
                     (streaming != nullptr);
  if (shapes != 1) {
    return ctx.Fail(
        "trace", "exactly one of \"mix\", \"mmpp\", \"streaming\" required");
  }

  if (mix != nullptr) {
    if (!mix->IsArray() || mix->array.empty()) {
      return ctx.Fail("trace.mix", "expected a non-empty array");
    }
    for (std::size_t i = 0; i < mix->array.size(); ++i) {
      const std::string path = "trace.mix[" + std::to_string(i) + "]";
      const json::Value& part = mix->array[i];
      if (!RequireObject(&part, path, ctx)) return false;
      if (!CheckKeys(part, path,
                     {"dataset", "requests", "rate_per_second", "seed"},
                     ctx)) {
        return false;
      }
      TraceMixPart out;
      const std::string dataset =
          json::GetString(part.Find("dataset"), "sharegpt");
      if (!ParseDataset(dataset, &out.dataset)) {
        return ctx.Fail(path + ".dataset",
                        "unknown dataset \"" + dataset + "\"");
      }
      std::int64_t requests = 0;
      std::int64_t seed = 1;
      if (!GetInteger(part, path, "requests", true, 0, &requests, ctx) ||
          !GetDouble(part, path, "rate_per_second", true, 0.0,
                     &out.rate_per_second, ctx) ||
          !GetInteger(part, path, "seed", false, 1, &seed, ctx)) {
        return false;
      }
      if (requests < 1) return ctx.Fail(path + ".requests", "must be >= 1");
      if (out.rate_per_second <= 0.0) {
        return ctx.Fail(path + ".rate_per_second", "must be > 0");
      }
      out.requests = static_cast<int>(requests);
      out.seed = static_cast<std::uint64_t>(seed);
      spec.mix.push_back(out);
    }
    return true;
  }

  if (mmpp != nullptr) {
    const std::string path = "trace.mmpp";
    if (!RequireObject(mmpp, path, ctx)) return false;
    if (!CheckKeys(*mmpp, path,
                   {"dataset", "calm_rate_per_second", "burst_multiplier",
                    "mean_calm_seconds", "mean_burst_seconds",
                    "duration_seconds", "class_mix", "seed"},
                   ctx)) {
      return false;
    }
    workload::MmppOptions options;
    const std::string dataset =
        json::GetString(mmpp->Find("dataset"), "sharegpt");
    if (!ParseDataset(dataset, &options.dataset)) {
      return ctx.Fail(path + ".dataset", "unknown dataset \"" + dataset + "\"");
    }
    std::int64_t seed = 1;
    if (!GetDouble(*mmpp, path, "calm_rate_per_second", true, 0.0,
                   &options.calm_rate_per_second, ctx) ||
        !GetDouble(*mmpp, path, "burst_multiplier", false,
                   options.burst_multiplier, &options.burst_multiplier, ctx) ||
        !GetDouble(*mmpp, path, "mean_calm_seconds", false,
                   options.mean_calm_seconds, &options.mean_calm_seconds,
                   ctx) ||
        !GetDouble(*mmpp, path, "mean_burst_seconds", false,
                   options.mean_burst_seconds, &options.mean_burst_seconds,
                   ctx) ||
        !GetDouble(*mmpp, path, "duration_seconds", false,
                   options.duration_seconds, &options.duration_seconds, ctx) ||
        !GetInteger(*mmpp, path, "seed", false, 1, &seed, ctx)) {
      return false;
    }
    if (options.calm_rate_per_second <= 0.0) {
      return ctx.Fail(path + ".calm_rate_per_second", "must be > 0");
    }
    if (const json::Value* class_mix = mmpp->Find("class_mix");
        class_mix != nullptr) {
      if (!class_mix->IsArray() ||
          class_mix->array.size() != workload::kNumSloClasses) {
        return ctx.Fail(path + ".class_mix",
                        "expected [interactive, standard, batch] weights");
      }
      for (int i = 0; i < workload::kNumSloClasses; ++i) {
        options.class_mix[i] = class_mix->array[i].number;
      }
    }
    spec.mmpp = options;
    spec.mmpp_seed = static_cast<std::uint64_t>(seed);
    return true;
  }

  const std::string path = "trace.streaming";
  if (!RequireObject(streaming, path, ctx)) return false;
  if (!CheckKeys(*streaming, path,
                 {"requests", "rate_per_second", "input_tokens",
                  "output_tokens", "seed", "exact_subsample_period"},
                 ctx)) {
    return false;
  }
  StreamingSpec out;
  std::int64_t requests = 0;
  std::int64_t seed = 1;
  std::int64_t period = static_cast<std::int64_t>(out.exact_subsample_period);
  if (!GetInteger(*streaming, path, "requests", true, 0, &requests, ctx) ||
      !GetDouble(*streaming, path, "rate_per_second", true, 0.0,
                 &out.rate_per_second, ctx) ||
      !GetInteger(*streaming, path, "seed", false, 1, &seed, ctx) ||
      !GetInteger(*streaming, path, "exact_subsample_period", false, period,
                  &period, ctx)) {
    return false;
  }
  if (requests < 1) return ctx.Fail(path + ".requests", "must be >= 1");
  if (out.rate_per_second <= 0.0) {
    return ctx.Fail(path + ".rate_per_second", "must be > 0");
  }
  if (period < 0) {
    return ctx.Fail(path + ".exact_subsample_period", "must be >= 0");
  }
  out.total_requests = static_cast<std::uint64_t>(requests);
  out.seed = static_cast<std::uint64_t>(seed);
  out.exact_subsample_period = static_cast<std::uint64_t>(period);
  if (!ParseLengths(streaming->Find("input_tokens"), path + ".input_tokens",
                    &out.input, ctx) ||
      !ParseLengths(streaming->Find("output_tokens"), path + ".output_tokens",
                    &out.output, ctx)) {
    return false;
  }
  spec.streaming = out;
  return true;
}

bool ParseSlo(const json::Value& root, ScenarioSpec& spec, ParseContext& ctx) {
  const json::Value* v = root.Find("slo");
  if (v == nullptr) return true;
  if (!RequireObject(v, "slo", ctx)) return false;
  if (!CheckKeys(*v, "slo",
                 {"ttft_ms", "tbt_ms", "ttft_per_token_us", "percentile"},
                 ctx)) {
    return false;
  }
  // Start from the model's defaults so a partial override keeps the
  // rest (matching SloTargets::ForModel in the hand-coded scenarios).
  workload::SloTargets slo = workload::SloTargets::ForModel(spec.model);
  double ttft_ms = sim::ToMilliseconds(slo.ttft);
  double tbt_ms = sim::ToMilliseconds(slo.tbt);
  double per_token_us = static_cast<double>(slo.ttft_per_token) / 1e3;
  if (!GetDouble(*v, "slo", "ttft_ms", false, ttft_ms, &ttft_ms, ctx) ||
      !GetDouble(*v, "slo", "tbt_ms", false, tbt_ms, &tbt_ms, ctx) ||
      !GetDouble(*v, "slo", "ttft_per_token_us", false, per_token_us,
                 &per_token_us, ctx) ||
      !GetDouble(*v, "slo", "percentile", false, slo.percentile,
                 &slo.percentile, ctx)) {
    return false;
  }
  if (ttft_ms <= 0 || tbt_ms <= 0 || per_token_us < 0 ||
      slo.percentile <= 0.0 || slo.percentile > 1.0) {
    return ctx.Fail("slo", "targets must be positive, percentile in (0, 1]");
  }
  slo.ttft = sim::Milliseconds(ttft_ms);
  slo.tbt = sim::Milliseconds(tbt_ms);
  slo.ttft_per_token = sim::Microseconds(per_token_us);
  spec.slo = slo;
  return true;
}

bool ParseRun(const json::Value& root, ScenarioSpec& spec, ParseContext& ctx) {
  const json::Value* v = root.Find("run");
  if (v == nullptr) return true;
  if (!RequireObject(v, "run", ctx)) return false;
  if (!CheckKeys(*v, "run",
                 {"drain_timeout_seconds", "steady_state", "event_budget",
                  "token_budget"},
                 ctx)) {
    return false;
  }
  std::int64_t event_budget =
      static_cast<std::int64_t>(spec.config.event_budget);
  std::int64_t token_budget = spec.config.token_budget;
  if (!GetDouble(*v, "run", "drain_timeout_seconds", false,
                 spec.config.drain_timeout_seconds,
                 &spec.config.drain_timeout_seconds, ctx) ||
      !GetInteger(*v, "run", "event_budget", false, event_budget,
                  &event_budget, ctx) ||
      !GetInteger(*v, "run", "token_budget", false, token_budget,
                  &token_budget, ctx)) {
    return false;
  }
  spec.config.steady_state =
      json::GetBool(v->Find("steady_state"), spec.config.steady_state);
  if (spec.config.drain_timeout_seconds <= 0.0) {
    return ctx.Fail("run.drain_timeout_seconds", "must be > 0");
  }
  if (event_budget < 1) return ctx.Fail("run.event_budget", "must be >= 1");
  if (token_budget < 0) return ctx.Fail("run.token_budget", "must be >= 0");
  spec.config.event_budget = static_cast<std::size_t>(event_budget);
  spec.config.token_budget = static_cast<int>(token_budget);
  return true;
}

bool ParseOverload(const json::Value& root, ScenarioSpec& spec,
                   ParseContext& ctx) {
  const json::Value* v = root.Find("overload");
  if (v == nullptr) return true;
  if (!RequireObject(v, "overload", ctx)) return false;
  if (!CheckKeys(*v, "overload", {"enabled", "preemption", "spill"}, ctx)) {
    return false;
  }
  spec.config.overload.enabled = json::GetBool(v->Find("enabled"), false);
  spec.config.overload.preemption =
      json::GetBool(v->Find("preemption"), spec.config.overload.preemption);
  spec.config.overload.spill =
      json::GetBool(v->Find("spill"), spec.config.overload.spill);
  return true;
}

bool ParseFleet(const json::Value& root, ScenarioSpec& spec,
                ParseContext& ctx) {
  const json::Value* v = root.Find("fleet");
  if (v == nullptr) return true;
  if (!RequireObject(v, "fleet", ctx)) return false;
  if (!CheckKeys(*v, "fleet",
                 {"enabled", "replicas", "failover", "migration",
                  "heartbeat_ms", "suspect_after_misses", "down_after_misses",
                  "recovery_probation_beats", "suspect_exit_beats",
                  "zombie_detection", "zombie_after_beats",
                  "zombie_down_beats", "partition_detection"},
                 ctx)) {
    return false;
  }
  spec.config.fleet.enabled = json::GetBool(v->Find("enabled"), false);
  std::int64_t replicas =
      static_cast<std::int64_t>(spec.config.fleet.replicas);
  if (!GetInteger(*v, "fleet", "replicas", false, replicas, &replicas, ctx)) {
    return false;
  }
  if (replicas < 1 || replicas > 64) {
    return ctx.Fail("fleet.replicas", "out of range [1, 64]");
  }
  spec.config.fleet.replicas = static_cast<std::size_t>(replicas);
  spec.config.fleet.failover =
      json::GetBool(v->Find("failover"), spec.config.fleet.failover);
  spec.config.fleet.migration =
      json::GetBool(v->Find("migration"), spec.config.fleet.migration);

  route::HealthPolicy& health = spec.config.fleet.health;
  double heartbeat_ms = sim::ToMilliseconds(health.heartbeat_interval);
  std::int64_t suspect = health.suspect_after_misses;
  std::int64_t down = health.down_after_misses;
  std::int64_t probation = health.recovery_probation_beats;
  std::int64_t exit_beats = health.suspect_exit_beats;
  std::int64_t zombie_after = health.zombie_after_beats;
  std::int64_t zombie_down = health.zombie_down_beats;
  if (!GetDouble(*v, "fleet", "heartbeat_ms", false, heartbeat_ms,
                 &heartbeat_ms, ctx) ||
      !GetInteger(*v, "fleet", "suspect_after_misses", false, suspect,
                  &suspect, ctx) ||
      !GetInteger(*v, "fleet", "down_after_misses", false, down, &down,
                  ctx) ||
      !GetInteger(*v, "fleet", "recovery_probation_beats", false, probation,
                  &probation, ctx) ||
      !GetInteger(*v, "fleet", "suspect_exit_beats", false, exit_beats,
                  &exit_beats, ctx) ||
      !GetInteger(*v, "fleet", "zombie_after_beats", false, zombie_after,
                  &zombie_after, ctx) ||
      !GetInteger(*v, "fleet", "zombie_down_beats", false, zombie_down,
                  &zombie_down, ctx)) {
    return false;
  }
  if (heartbeat_ms <= 0.0) return ctx.Fail("fleet.heartbeat_ms", "must be > 0");
  if (suspect < 1) return ctx.Fail("fleet.suspect_after_misses", "must be >= 1");
  if (down < suspect) {
    return ctx.Fail("fleet.down_after_misses",
                    "must be >= suspect_after_misses");
  }
  if (probation < 0) {
    return ctx.Fail("fleet.recovery_probation_beats", "must be >= 0");
  }
  if (exit_beats < 1) {
    return ctx.Fail("fleet.suspect_exit_beats", "must be >= 1");
  }
  if (zombie_after < 1) {
    return ctx.Fail("fleet.zombie_after_beats", "must be >= 1");
  }
  if (zombie_down < zombie_after) {
    return ctx.Fail("fleet.zombie_down_beats",
                    "must be >= zombie_after_beats");
  }
  health.heartbeat_interval = sim::Milliseconds(heartbeat_ms);
  health.suspect_after_misses = static_cast<int>(suspect);
  health.down_after_misses = static_cast<int>(down);
  health.recovery_probation_beats = static_cast<int>(probation);
  health.suspect_exit_beats = static_cast<int>(exit_beats);
  health.zombie_after_beats = static_cast<int>(zombie_after);
  health.zombie_down_beats = static_cast<int>(zombie_down);
  health.zombie_detection =
      json::GetBool(v->Find("zombie_detection"), health.zombie_detection);
  health.partition_detection =
      json::GetBool(v->Find("partition_detection"), health.partition_detection);
  return true;
}

bool ParseFaults(const json::Value& root, ScenarioSpec& spec,
                 ParseContext& ctx) {
  const json::Value* v = root.Find("faults");
  if (v == nullptr) return true;
  if (!RequireObject(v, "faults", ctx)) return false;
  if (!CheckKeys(*v, "faults",
                 {"seed", "crashes", "stragglers", "transfer_drops", "zombies",
                  "flaps", "degrades", "partitions"},
                 ctx)) {
    return false;
  }
  fault::FaultPlan plan;
  std::int64_t seed = static_cast<std::int64_t>(plan.seed);
  if (!GetInteger(*v, "faults", "seed", false, seed, &seed, ctx)) {
    return false;
  }
  plan.seed = static_cast<std::uint64_t>(seed);

  if (const json::Value* crashes = v->Find("crashes"); crashes != nullptr) {
    if (!crashes->IsArray()) {
      return ctx.Fail("faults.crashes", "expected an array");
    }
    for (std::size_t i = 0; i < crashes->array.size(); ++i) {
      const std::string path = "faults.crashes[" + std::to_string(i) + "]";
      const json::Value& entry = crashes->array[i];
      if (!RequireObject(&entry, path, ctx)) return false;
      if (!CheckKeys(entry, path,
                     {"instance", "at_seconds", "recover_at_seconds"}, ctx)) {
        return false;
      }
      std::int64_t inst = 0;
      double at = 0.0;
      if (!GetInteger(entry, path, "instance", false, 0, &inst, ctx) ||
          !GetDouble(entry, path, "at_seconds", true, 0.0, &at, ctx)) {
        return false;
      }
      sim::Time recover = sim::kTimeNever;
      if (entry.Find("recover_at_seconds") != nullptr) {
        double recover_at = 0.0;
        if (!GetDouble(entry, path, "recover_at_seconds", true, 0.0,
                       &recover_at, ctx)) {
          return false;
        }
        if (recover_at <= at) {
          return ctx.Fail(path, "recover_at_seconds must exceed at_seconds");
        }
        recover = sim::Seconds(recover_at);
      }
      if (inst < 0 || at < 0.0) {
        return ctx.Fail(path, "instance and at_seconds must be >= 0");
      }
      plan.Crash(static_cast<std::size_t>(inst), sim::Seconds(at), recover);
    }
  }

  if (const json::Value* stragglers = v->Find("stragglers");
      stragglers != nullptr) {
    if (!stragglers->IsArray()) {
      return ctx.Fail("faults.stragglers", "expected an array");
    }
    for (std::size_t i = 0; i < stragglers->array.size(); ++i) {
      const std::string path = "faults.stragglers[" + std::to_string(i) + "]";
      const json::Value& entry = stragglers->array[i];
      if (!RequireObject(&entry, path, ctx)) return false;
      if (!CheckKeys(entry, path,
                     {"instance", "from_seconds", "to_seconds", "slowdown"},
                     ctx)) {
        return false;
      }
      std::int64_t inst = 0;
      double from = 0.0, to = 0.0, slowdown = 2.0;
      if (!GetInteger(entry, path, "instance", false, 0, &inst, ctx) ||
          !GetDouble(entry, path, "from_seconds", true, 0.0, &from, ctx) ||
          !GetDouble(entry, path, "to_seconds", true, 0.0, &to, ctx) ||
          !GetDouble(entry, path, "slowdown", false, 2.0, &slowdown, ctx)) {
        return false;
      }
      if (inst < 0 || from < 0.0 || to <= from || slowdown < 1.0) {
        return ctx.Fail(path,
                        "requires 0 <= from < to and slowdown >= 1");
      }
      plan.Straggle(static_cast<std::size_t>(inst), sim::Seconds(from),
                    sim::Seconds(to), slowdown);
    }
  }

  if (const json::Value* drops = v->Find("transfer_drops"); drops != nullptr) {
    if (!drops->IsArray()) {
      return ctx.Fail("faults.transfer_drops", "expected an array");
    }
    for (std::size_t i = 0; i < drops->array.size(); ++i) {
      const std::string path =
          "faults.transfer_drops[" + std::to_string(i) + "]";
      const json::Value& entry = drops->array[i];
      if (!RequireObject(&entry, path, ctx)) return false;
      if (!CheckKeys(entry, path,
                     {"from_seconds", "to_seconds", "probability"}, ctx)) {
        return false;
      }
      double from = 0.0, to = 0.0, probability = 0.0;
      if (!GetDouble(entry, path, "from_seconds", true, 0.0, &from, ctx) ||
          !GetDouble(entry, path, "to_seconds", true, 0.0, &to, ctx) ||
          !GetDouble(entry, path, "probability", true, 0.0, &probability,
                     ctx)) {
        return false;
      }
      if (from < 0.0 || to <= from || probability < 0.0 ||
          probability > 1.0) {
        return ctx.Fail(path,
                        "requires 0 <= from < to and probability in [0, 1]");
      }
      plan.DropTransfers(sim::Seconds(from), sim::Seconds(to), probability);
    }
  }

  if (const json::Value* zombies = v->Find("zombies"); zombies != nullptr) {
    if (!zombies->IsArray()) {
      return ctx.Fail("faults.zombies", "expected an array");
    }
    for (std::size_t i = 0; i < zombies->array.size(); ++i) {
      const std::string path = "faults.zombies[" + std::to_string(i) + "]";
      const json::Value& entry = zombies->array[i];
      if (!RequireObject(&entry, path, ctx)) return false;
      if (!CheckKeys(entry, path, {"instance", "from_seconds", "to_seconds"},
                     ctx)) {
        return false;
      }
      std::int64_t inst = 0;
      double from = 0.0, to = 0.0;
      if (!GetInteger(entry, path, "instance", false, 0, &inst, ctx) ||
          !GetDouble(entry, path, "from_seconds", true, 0.0, &from, ctx) ||
          !GetDouble(entry, path, "to_seconds", true, 0.0, &to, ctx)) {
        return false;
      }
      if (inst < 0 || from < 0.0 || to <= from) {
        return ctx.Fail(path, "requires instance >= 0 and 0 <= from < to");
      }
      plan.Zombie(static_cast<std::size_t>(inst), sim::Seconds(from),
                  sim::Seconds(to));
    }
  }

  if (const json::Value* flaps = v->Find("flaps"); flaps != nullptr) {
    if (!flaps->IsArray()) {
      return ctx.Fail("faults.flaps", "expected an array");
    }
    for (std::size_t i = 0; i < flaps->array.size(); ++i) {
      const std::string path = "faults.flaps[" + std::to_string(i) + "]";
      const json::Value& entry = flaps->array[i];
      if (!RequireObject(&entry, path, ctx)) return false;
      if (!CheckKeys(entry, path,
                     {"instance", "link", "from_seconds", "to_seconds",
                      "period_seconds", "duty_up"},
                     ctx)) {
        return false;
      }
      std::int64_t inst = 0;
      double from = 0.0, to = 0.0, period = 0.0, duty_up = 0.5;
      if (!GetInteger(entry, path, "instance", false, 0, &inst, ctx) ||
          !GetDouble(entry, path, "from_seconds", true, 0.0, &from, ctx) ||
          !GetDouble(entry, path, "to_seconds", true, 0.0, &to, ctx) ||
          !GetDouble(entry, path, "period_seconds", true, 0.0, &period,
                     ctx) ||
          !GetDouble(entry, path, "duty_up", false, 0.5, &duty_up, ctx)) {
        return false;
      }
      const bool link = json::GetBool(entry.Find("link"), false);
      if (inst < 0 || from < 0.0 || to <= from || period <= 0.0 ||
          duty_up <= 0.0 || duty_up >= 1.0) {
        return ctx.Fail(path,
                        "requires 0 <= from < to, period > 0, and duty_up "
                        "in (0, 1)");
      }
      if (link) {
        plan.FlapLink(sim::Seconds(from), sim::Seconds(to),
                      sim::Seconds(period), duty_up);
      } else {
        plan.Flap(static_cast<std::size_t>(inst), sim::Seconds(from),
                  sim::Seconds(to), sim::Seconds(period), duty_up);
      }
    }
  }

  if (const json::Value* degrades = v->Find("degrades"); degrades != nullptr) {
    if (!degrades->IsArray()) {
      return ctx.Fail("faults.degrades", "expected an array");
    }
    for (std::size_t i = 0; i < degrades->array.size(); ++i) {
      const std::string path = "faults.degrades[" + std::to_string(i) + "]";
      const json::Value& entry = degrades->array[i];
      if (!RequireObject(&entry, path, ctx)) return false;
      if (!CheckKeys(entry, path,
                     {"instance", "link", "from_seconds", "to_seconds",
                      "flops_factor", "bandwidth_factor"},
                     ctx)) {
        return false;
      }
      std::int64_t inst = 0;
      double from = 0.0, to = 0.0, ff = 1.0, bf = 1.0;
      if (!GetInteger(entry, path, "instance", false, 0, &inst, ctx) ||
          !GetDouble(entry, path, "from_seconds", true, 0.0, &from, ctx) ||
          !GetDouble(entry, path, "to_seconds", true, 0.0, &to, ctx) ||
          !GetDouble(entry, path, "flops_factor", false, 1.0, &ff, ctx) ||
          !GetDouble(entry, path, "bandwidth_factor", false, 1.0, &bf, ctx)) {
        return false;
      }
      const bool link = json::GetBool(entry.Find("link"), false);
      if (inst < 0 || from < 0.0 || to <= from || ff <= 0.0 || ff > 1.0 ||
          bf <= 0.0 || bf > 1.0) {
        return ctx.Fail(path,
                        "requires 0 <= from < to and factors in (0, 1]");
      }
      if (link) {
        if (ff != 1.0) {
          return ctx.Fail(path,
                          "a link degrade cannot carry a flops_factor");
        }
        plan.DegradeLink(sim::Seconds(from), sim::Seconds(to), bf);
      } else {
        plan.Degrade(static_cast<std::size_t>(inst), sim::Seconds(from),
                     sim::Seconds(to), ff, bf);
      }
    }
  }

  if (const json::Value* partitions = v->Find("partitions");
      partitions != nullptr) {
    if (!partitions->IsArray()) {
      return ctx.Fail("faults.partitions", "expected an array");
    }
    for (std::size_t i = 0; i < partitions->array.size(); ++i) {
      const std::string path = "faults.partitions[" + std::to_string(i) + "]";
      const json::Value& entry = partitions->array[i];
      if (!RequireObject(&entry, path, ctx)) return false;
      if (!CheckKeys(entry, path,
                     {"instance", "from_seconds", "to_seconds",
                      "drop_to_replica", "drop_from_replica"},
                     ctx)) {
        return false;
      }
      std::int64_t inst = 0;
      double from = 0.0, to = 0.0;
      if (!GetInteger(entry, path, "instance", false, 0, &inst, ctx) ||
          !GetDouble(entry, path, "from_seconds", true, 0.0, &from, ctx) ||
          !GetDouble(entry, path, "to_seconds", true, 0.0, &to, ctx)) {
        return false;
      }
      const bool drop_to = json::GetBool(entry.Find("drop_to_replica"), false);
      const bool drop_from =
          json::GetBool(entry.Find("drop_from_replica"), false);
      if (inst < 0 || from < 0.0 || to <= from) {
        return ctx.Fail(path, "requires instance >= 0 and 0 <= from < to");
      }
      if (drop_to && drop_from) {
        return ctx.Fail(path,
                        "dropping both directions is a crash, not a "
                        "partition; use faults.crashes");
      }
      if (!drop_to && !drop_from) {
        return ctx.Fail(path, "must drop at least one direction");
      }
      plan.Partition(static_cast<std::size_t>(inst), sim::Seconds(from),
                     sim::Seconds(to), drop_to, drop_from);
    }
  }

  if (plan.Empty()) {
    return ctx.Fail("faults", "declared but contains no fault entries");
  }
  const std::string plan_error = plan.Check();
  if (!plan_error.empty()) return ctx.Fail("faults", plan_error);
  spec.config.fault_plan = std::move(plan);
  return true;
}

bool ParseRecovery(const json::Value& root, ScenarioSpec& spec,
                   ParseContext& ctx) {
  const json::Value* v = root.Find("recovery");
  if (v == nullptr) return true;
  if (!RequireObject(v, "recovery", ctx)) return false;
  if (!CheckKeys(*v, "recovery", {"enabled"}, ctx)) return false;
  spec.config.recovery.enabled = json::GetBool(v->Find("enabled"), false);
  return true;
}

// ---------------------------------------------------------------------------
// Deployment + estimator plumbing for the run entry points.
// ---------------------------------------------------------------------------

serve::Deployment MakeDeployment(const ScenarioSpec& spec) {
  serve::Deployment deployment = serve::Deployment::Make(
      llm::ModelConfig::ByName(spec.model), gpu::GpuSpec::ByName(spec.gpu),
      spec.num_gpus);
  if (spec.slo.has_value()) deployment.slo = *spec.slo;
  return deployment;
}

/**
 * Offline contention profiling is by far the most expensive step of a
 * scenario, and it depends only on the hardware/model shape — never on
 * SLO overrides (estimators are built from the pristine deployment) —
 * so matrix runs share one estimator across repeats. Entries are never
 * erased and the map is node-based, so a returned reference stays valid
 * after the lock is released; runs only read the estimator (engines
 * copy it).
 */
const core::ContentionEstimator& CachedEstimator(const ScenarioSpec& spec) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<core::ContentionEstimator>>
      cache;
  const std::string key =
      spec.model + "|" + spec.gpu + "|" + std::to_string(spec.num_gpus);
  const std::lock_guard<std::mutex> lock(mu);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const serve::Deployment pristine = serve::Deployment::Make(
        llm::ModelConfig::ByName(spec.model), gpu::GpuSpec::ByName(spec.gpu),
        spec.num_gpus);
    it = cache
             .emplace(key, std::make_unique<core::ContentionEstimator>(
                               core::ContentionEstimator::BuildOffline(
                                   pristine)))
             .first;
  }
  return *it->second;
}

}  // namespace

ScenarioParseResult ParseScenarioJson(const std::string& text,
                                      const std::string& source) {
  ScenarioParseResult result;
  ParseContext ctx;
  ctx.source = source;

  json::Value root;
  std::string json_error;
  if (!json::Parse(text, root, json_error)) {
    result.error = source + ": " + json_error;
    return result;
  }
  if (!root.IsObject()) {
    result.error = source + ": scenario root is not an object";
    return result;
  }

  ScenarioSpec spec;
  if (!CheckKeys(root, "(root)",
                 {"name", "engine", "deployment", "trace", "slo", "run",
                  "overload", "fleet", "faults", "recovery"},
                 ctx)) {
    result.error = ctx.error;
    return result;
  }

  spec.name = json::GetString(root.Find("name"));
  if (spec.name.empty()) {
    result.error = source + ": (root): missing required \"name\"";
    return result;
  }

  const std::string engine = json::GetString(root.Find("engine"), "muxwise");
  if (!ParseEngine(engine, &spec.engine)) {
    result.error = source + ": engine: unknown engine \"" + engine + "\"";
    return result;
  }

  if (!ParseDeployment(root, spec, ctx) || !ParseTrace(root, spec, ctx) ||
      !ParseSlo(root, spec, ctx) || !ParseRun(root, spec, ctx) ||
      !ParseOverload(root, spec, ctx) || !ParseFleet(root, spec, ctx) ||
      !ParseFaults(root, spec, ctx) || !ParseRecovery(root, spec, ctx)) {
    result.error = ctx.error;
    return result;
  }

  result.spec = std::move(spec);
  return result;
}

ScenarioParseResult LoadScenarioFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    ScenarioParseResult result;
    result.error = path + ": cannot open scenario file";
    return result;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseScenarioJson(buffer.str(), path);
}

workload::Trace BuildScenarioTrace(const ScenarioSpec& spec) {
  MUX_CHECK(!spec.IsStreaming());
  if (spec.mmpp.has_value()) {
    return workload::GenerateMmppTrace(*spec.mmpp, spec.mmpp_seed);
  }
  MUX_CHECK(!spec.mix.empty());
  if (spec.mix.size() == 1) {
    // A single leg bypasses MergeTraces (which renumbers ids), so a
    // one-part mix reproduces the hand-coded GenerateTrace call
    // bit-for-bit.
    const TraceMixPart& part = spec.mix.front();
    return workload::GenerateTrace(part.dataset, part.requests,
                                   part.rate_per_second, part.seed);
  }
  std::vector<workload::Trace> parts;
  parts.reserve(spec.mix.size());
  for (const TraceMixPart& part : spec.mix) {
    parts.push_back(workload::GenerateTrace(part.dataset, part.requests,
                                            part.rate_per_second, part.seed));
  }
  return workload::MergeTraces(spec.name, std::move(parts));
}

RunOutcome RunScenario(const ScenarioSpec& spec, obs::TraceRecorder* trace) {
  const serve::Deployment deployment = MakeDeployment(spec);
  RunConfig config = spec.config;
  if (trace != nullptr) config.trace = trace;
  if (spec.IsStreaming()) {
    return RunStreamingWorkload(spec.engine, deployment, *spec.streaming,
                                &CachedEstimator(spec), config);
  }
  return RunWorkload(spec.engine, deployment, BuildScenarioTrace(spec),
                     &CachedEstimator(spec), config);
}

}  // namespace muxwise::harness
