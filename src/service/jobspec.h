// Canonical JSON job specs for the service layer (DESIGN.md §16).
//
// The same codec serves three masters: client submissions (the `submit`
// request's "job" object), the kServiceSubmit journal blob a restarted
// daemon rebuilds its pending set from, and the `status` response. Two
// submission forms are accepted:
//
//   * strl_gen template — a JSON object naming the existing workload
//     vocabulary (type / k / runtime / slowdown / deadline_in /
//     reservation / preferred_partitions); the daemon expands it through
//     the STRL generator every cycle exactly like simulator jobs, and
//   * raw STRL text — validated with the textual parser; the job shape
//     (gang size, runtime, value partitions) is derived from the
//     expression's first leaf, with non-universal partition sets mapping
//     to a data-local preference. The service schedules *jobs*, so a STRL
//     submission is an entry template, not a literally-spliced expression.
//
// Deadlines are submitted relative ("deadline_in" seconds from acceptance)
// because clients do not share the daemon's virtual clock; the canonical
// journaled form stores the resolved absolute deadline.

#ifndef TETRISCHED_SERVICE_JOBSPEC_H_
#define TETRISCHED_SERVICE_JOBSPEC_H_

#include <string>
#include <string_view>

#include "src/common/json.h"
#include "src/core/job.h"

namespace tetrisched {

// Canonical JSON object for `job` (absolute deadline form).
std::string JobSpecToJson(const Job& job);

// Parses a job spec object. `now` resolves relative fields: submit defaults
// to now, "deadline_in" becomes now + deadline_in. On failure returns false
// and sets *error. The job id in the spec is honored when >= 0 (journal
// replay); submissions normally leave it unset and the daemon assigns one.
bool JobSpecFromJson(const JsonValue& spec, SimTime now, Job* job,
                     std::string* error);

// Derives a job template from STRL text (see file comment). `now` anchors
// the submit time. Returns false with *error on parse failure or an
// expression with no usable leaf.
bool JobFromStrlText(std::string_view strl_text, SimTime now,
                     int cluster_partitions, Job* job, std::string* error);

// A job's SLO class before Rayon rules on it: deadline jobs are
// slo-unreserved (Rayon may upgrade a reservation seeker to slo-accepted),
// the rest best-effort. The class is not part of the spec, so acceptance
// and journal recovery both derive it here.
SloClass BaseSloClass(const Job& job);

// Parses JobType names as emitted by ToString(JobType); also accepts
// "data_local"/"datalocal" for kDataLocal. Returns false on unknown names.
bool ParseJobType(std::string_view name, JobType* type);

}  // namespace tetrisched

#endif  // TETRISCHED_SERVICE_JOBSPEC_H_
