#include "io/scheduler_json.hpp"

#include <cmath>

#include "support/errors.hpp"
#include "support/json.hpp"

namespace unicon::io {

namespace {

Json encode_decision(std::uint64_t tr) {
  if (tr == kNoTransition) return Json(-1);
  return Json(tr);
}

JsonArray encode_row(const std::vector<std::uint64_t>& row) {
  JsonArray out;
  out.reserve(row.size());
  for (const std::uint64_t tr : row) out.push_back(encode_decision(tr));
  return out;
}

std::uint64_t decode_decision(const Json& v, const char* what) {
  if (!v.is_number()) throw ParseError(std::string(what) + ": decision entry is not a number");
  const double d = v.as_number();
  if (d == -1.0) return kNoTransition;
  if (d < 0.0 || d != std::floor(d) || d >= 9007199254740992.0) {
    throw ParseError(std::string(what) + ": decision entry is not -1 or a transition index");
  }
  return static_cast<std::uint64_t>(d);
}

std::vector<std::uint64_t> decode_row(const Json& v, std::uint64_t states, const char* what) {
  if (!v.is_array()) throw ParseError(std::string(what) + ": decision row is not an array");
  const JsonArray& arr = v.as_array();
  if (arr.size() != states) {
    throw ParseError(std::string(what) + ": decision row has " + std::to_string(arr.size()) +
                     " entries, expected " + std::to_string(states));
  }
  std::vector<std::uint64_t> out;
  out.reserve(arr.size());
  for (const Json& e : arr) out.push_back(decode_decision(e, what));
  return out;
}

const Json& require(const Json& root, const std::string& key) {
  const Json* v = root.find(key);
  if (v == nullptr) throw ParseError("scheduler artifact: missing field \"" + key + "\"");
  return *v;
}

}  // namespace

SchedulerArtifact scheduler_artifact_from_result(const TimedReachabilityResult& result,
                                                 Objective objective, double time,
                                                 double epsilon, double value) {
  if (result.decisions.empty()) {
    throw ModelError(
        "scheduler artifact: result has no decision table (enable extract_scheduler and check "
        "max_decision_entries)");
  }
  SchedulerArtifact artifact;
  artifact.objective = objective;
  artifact.time = time;
  artifact.epsilon = epsilon;
  artifact.uniform_rate = result.uniform_rate;
  artifact.lambda = result.lambda;
  artifact.states = result.values.size();
  artifact.steps = result.decisions.size();
  for (const auto& row : result.decisions) {
    if (row.size() != artifact.states) {
      throw ModelError("scheduler artifact: decision row has " + std::to_string(row.size()) +
                       " entries, expected " + std::to_string(artifact.states) +
                       " (early termination leaves the rows below its stop step empty)");
    }
  }
  artifact.value = value;
  artifact.initial_decision = result.initial_decision;
  artifact.decisions = result.decisions;
  return artifact;
}

std::string scheduler_to_json(const SchedulerArtifact& artifact) {
  Json root;
  root.set("schema", "unicon-scheduler-v1");
  root.set("objective", artifact.objective == Objective::Maximize ? "max" : "min");
  root.set("time", artifact.time);
  root.set("epsilon", artifact.epsilon);
  root.set("uniform_rate", artifact.uniform_rate);
  root.set("lambda", artifact.lambda);
  root.set("states", artifact.states);
  root.set("steps", artifact.steps);
  root.set("value", artifact.value);
  root.set("initial_decision", Json(encode_row(artifact.initial_decision)));
  JsonArray rows;
  rows.reserve(artifact.decisions.size());
  for (const auto& row : artifact.decisions) rows.push_back(Json(encode_row(row)));
  root.set("decisions", Json(std::move(rows)));
  return root.dump() + "\n";
}

SchedulerArtifact scheduler_from_json(const std::string& text) {
  const Json root = Json::parse(text);
  if (!root.is_object()) throw ParseError("scheduler artifact: top level is not an object");
  const std::string schema = root.get_string("schema", "");
  if (schema != "unicon-scheduler-v1") {
    throw ParseError("scheduler artifact: unsupported schema \"" + schema + "\"");
  }
  SchedulerArtifact artifact;
  const std::string objective = require(root, "objective").as_string();
  if (objective == "max") {
    artifact.objective = Objective::Maximize;
  } else if (objective == "min") {
    artifact.objective = Objective::Minimize;
  } else {
    throw ParseError("scheduler artifact: objective must be \"max\" or \"min\"");
  }
  artifact.time = require(root, "time").as_number();
  artifact.epsilon = require(root, "epsilon").as_number();
  artifact.uniform_rate = require(root, "uniform_rate").as_number();
  artifact.lambda = require(root, "lambda").as_number();
  artifact.states = static_cast<std::uint64_t>(require(root, "states").as_number());
  artifact.steps = static_cast<std::uint64_t>(require(root, "steps").as_number());
  artifact.value = require(root, "value").as_number();
  artifact.initial_decision =
      decode_row(require(root, "initial_decision"), artifact.states, "initial_decision");
  const Json& rows = require(root, "decisions");
  if (!rows.is_array()) throw ParseError("scheduler artifact: decisions is not an array");
  if (rows.as_array().size() != artifact.steps) {
    throw ParseError("scheduler artifact: decisions has " +
                     std::to_string(rows.as_array().size()) + " rows, expected " +
                     std::to_string(artifact.steps));
  }
  artifact.decisions.reserve(artifact.steps);
  for (const Json& row : rows.as_array()) {
    artifact.decisions.push_back(decode_row(row, artifact.states, "decisions"));
  }
  return artifact;
}

}  // namespace unicon::io
