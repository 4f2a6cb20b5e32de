// perfbench: the repository benchmark program (see README.md).
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Runs one workload, prints human-readable tables, and ends with one line
//   PERFBENCH_RESULT {"correct":..,"attempted":..,"failed":..,"metrics":{..}}
// carrying every metric it measured (end-to-end and per-layer alike); run.py
// selects the set the mode asks for. Exits 1 when a correctness check
// failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/report.h"
#include "src/common/json.h"
#include "src/common/logging.h"

namespace {

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{sim_churn_exact|service_open_loop} "
               "--seed <n> --seconds <s> --trace <0|1>\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (options.seconds <= 0.0) {
    return Usage("--seconds must be positive");
  }

  // Measure the program with every export and the flight recorder off: the
  // environment must not switch on instrumentation behind the benchmark.
  for (const char* var :
       {"TETRISCHED_METRICS_JSON", "TETRISCHED_METRICS_PROM",
        "TETRISCHED_TRACE_JSON", "TETRISCHED_PROVENANCE_JSONL"}) {
    unsetenv(var);
  }
  // Certifier rejects and churn retries log WARN lines; they are counted in
  // the metrics instead.
  tetrisched::SetLogLevel(tetrisched::LogLevel::kError);

  Report report;
  if (options.workload == "sim_churn_exact") {
    RunSimChurnExact(options, report);
  } else if (options.workload == "service_open_loop") {
    RunServiceOpenLoop(options, report);
  } else {
    return Usage(("unknown workload " + options.workload).c_str());
  }

  tetrisched::JsonObj metrics;
  std::printf("\n%-36s %16s  %s\n", "metric", "value", "unit");
  for (const Report::Metric& metric : report.metrics()) {
    std::printf("%-36s %16.6g  %s\n", metric.name.c_str(), metric.value,
                metric.unit.c_str());
    metrics.FieldRaw(metric.name, tetrisched::JsonObj()
                                      .Field("value", metric.value)
                                      .Field("unit", metric.unit)
                                      .str());
  }
  std::printf("PERFBENCH_RESULT %s\n",
              tetrisched::JsonObj()
                  .Field("correct", report.correct())
                  .Field("attempted", report.attempted)
                  .Field("failed", report.failed)
                  .FieldRaw("metrics", metrics.str())
                  .str()
                  .c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}
