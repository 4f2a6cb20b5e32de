#include "src/service/jobspec.h"

#include <cmath>

#include "src/strl/parser.h"

namespace tetrisched {

bool ParseJobType(std::string_view name, JobType* type) {
  if (name == "unconstrained") {
    *type = JobType::kUnconstrained;
  } else if (name == "gpu") {
    *type = JobType::kGpu;
  } else if (name == "mpi") {
    *type = JobType::kMpi;
  } else if (name == "availability") {
    *type = JobType::kAvailability;
  } else if (name == "data-local" || name == "data_local" ||
             name == "datalocal") {
    *type = JobType::kDataLocal;
  } else {
    return false;
  }
  return true;
}

std::string JobSpecToJson(const Job& job) {
  JsonObj obj;
  obj.Field("id", job.id);
  obj.Field("type", ToString(job.type));
  obj.Field("k", job.k);
  obj.Field("runtime", job.actual_runtime);
  obj.Field("slowdown", job.slowdown);
  obj.Field("submit", job.submit);
  obj.Field("reservation", job.wants_reservation);
  if (job.deadline != kTimeNever) {
    obj.Field("deadline", job.deadline);
  }
  if (job.estimate_error != 0.0) {
    obj.Field("estimate_error", job.estimate_error);
  }
  if (!job.preferred_partitions.empty()) {
    JsonArr parts;
    for (PartitionId p : job.preferred_partitions) {
      parts.Add(static_cast<int64_t>(p));
    }
    obj.FieldRaw("preferred_partitions", parts.str());
  }
  return obj.str();
}

bool JobSpecFromJson(const JsonValue& spec, SimTime now, Job* job,
                     std::string* error) {
  if (!spec.is_object()) {
    *error = "job spec must be a JSON object";
    return false;
  }
  *job = Job{};
  job->id = spec.IntOr("id", -1);
  std::string type_name = spec.StringOr("type", "unconstrained");
  if (!ParseJobType(type_name, &job->type)) {
    *error = "unknown job type: " + type_name;
    return false;
  }
  job->k = static_cast<int>(spec.IntOr("k", 1));
  if (job->k < 1 || job->k > 1 << 20) {
    *error = "gang size k out of range";
    return false;
  }
  job->actual_runtime = spec.IntOr("runtime", 0);
  if (job->actual_runtime < 1) {
    *error = "runtime must be a positive integer (seconds)";
    return false;
  }
  job->slowdown = spec.NumberOr("slowdown", 1.0);
  if (!(job->slowdown >= 1.0) || !std::isfinite(job->slowdown)) {
    *error = "slowdown must be >= 1";
    return false;
  }
  job->submit = spec.IntOr("submit", now);
  job->estimate_error = spec.NumberOr("estimate_error", 0.0);
  if (const JsonValue* deadline = spec.Find("deadline");
      deadline != nullptr && deadline->is_number()) {
    job->deadline = static_cast<SimTime>(deadline->number);
  } else if (const JsonValue* rel = spec.Find("deadline_in");
             rel != nullptr && rel->is_number()) {
    if (rel->number <= 0) {
      *error = "deadline_in must be positive";
      return false;
    }
    job->deadline = now + static_cast<SimTime>(rel->number);
  }
  job->wants_reservation = spec.BoolOr("reservation", false);
  if (job->wants_reservation && job->deadline == kTimeNever) {
    *error = "reservation requires a deadline (deadline or deadline_in)";
    return false;
  }
  if (const JsonValue* parts = spec.Find("preferred_partitions");
      parts != nullptr) {
    if (!parts->is_array()) {
      *error = "preferred_partitions must be an array of partition ids";
      return false;
    }
    for (const JsonValue& item : parts->items) {
      if (!item.is_number()) {
        *error = "preferred_partitions entries must be numbers";
        return false;
      }
      job->preferred_partitions.push_back(
          static_cast<PartitionId>(item.number));
    }
  }
  if (job->type == JobType::kDataLocal && job->preferred_partitions.empty()) {
    *error = "data-local jobs need preferred_partitions";
    return false;
  }
  return true;
}

SloClass BaseSloClass(const Job& job) {
  return job.deadline != kTimeNever ? SloClass::kSloUnreserved
                                    : SloClass::kBestEffort;
}

namespace {

// First leaf in pre-order; nullptr for leafless expressions.
const StrlExpr* FirstLeaf(const StrlExpr& expr) {
  if (expr.IsLeaf()) {
    return &expr;
  }
  for (const StrlExpr& child : expr.children) {
    if (const StrlExpr* leaf = FirstLeaf(child)) {
      return leaf;
    }
  }
  return nullptr;
}

}  // namespace

bool JobFromStrlText(std::string_view strl_text, SimTime now,
                     int cluster_partitions, Job* job, std::string* error) {
  StrlParseResult parsed = ParseStrl(strl_text);
  if (!parsed.expr.has_value()) {
    *error = "STRL parse error: " + parsed.error;
    return false;
  }
  const StrlExpr* leaf = FirstLeaf(*parsed.expr);
  if (leaf == nullptr) {
    *error = "STRL expression has no placement leaf";
    return false;
  }
  if (leaf->k < 1 || leaf->duration < 1) {
    *error = "STRL leaf needs k >= 1 and dur >= 1";
    return false;
  }
  *job = Job{};
  job->k = leaf->k;
  job->actual_runtime = leaf->duration;
  job->submit = now;
  for (PartitionId p : leaf->partitions) {
    if (p < 0 || p >= cluster_partitions) {
      *error = "STRL leaf names partition p" + std::to_string(p) +
               " outside the cluster";
      return false;
    }
  }
  // A leaf constrained to a subset of the cluster becomes a data-local
  // preference; the whole cluster stays unconstrained.
  if (static_cast<int>(leaf->partitions.size()) < cluster_partitions) {
    job->type = JobType::kDataLocal;
    job->preferred_partitions = leaf->partitions;
    job->slowdown = 2.0;  // fallback-off-preference penalty, strl_gen default
  } else {
    job->type = JobType::kUnconstrained;
  }
  return true;
}

}  // namespace tetrisched
