// perfbench_e2e: one lifecycle run of the SceneRec pipeline (set-up, serial
// training, full-ranking evaluation, snapshots, publish, closed-loop serving,
// verification) for one workload. Normally started through perfbench/run.py:
//
//   perfbench_e2e --workload serve_full --seed 3 --seconds 10 --trace 0
//                 --work_dir .bench_build/work
//
// Prints the effective configuration and the host, then, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}. With
// --trace 1 the metrics are the per-layer ones, a self-time table is printed
// first and the spans are written as Chrome trace JSON into --work_dir.
// Exits non-zero, without a result, when the run cannot complete.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <string>

#include "config.h"
#include "common/trace.h"
#include "lifecycle.h"

namespace {

int Usage(const std::string& error) {
  std::cerr << "perfbench_e2e: " << error << "\n"
            << "usage: perfbench_e2e --workload <serve_full|serve_two_stage_swap> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "--work_dir <dir>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, seed, seconds, trace, work_dir;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = value;
    } else if (flag == "--seconds") {
      seconds = value;
    } else if (flag == "--trace") {
      trace = value;
    } else if (flag == "--work_dir") {
      work_dir = value;
    } else {
      return Usage("unknown flag " + flag);
    }
  }
  if (workload.empty() || seed.empty() || seconds.empty() || trace.empty() ||
      work_dir.empty()) {
    return Usage("every flag is required");
  }
  char* end = nullptr;
  const unsigned long long seed_value = std::strtoull(seed.c_str(), &end, 10);
  if (*end != '\0') return Usage("--seed must be a non-negative integer");
  const double seconds_value = std::strtod(seconds.c_str(), &end);
  if (*end != '\0' || !(seconds_value > 0)) {
    return Usage("--seconds must be a positive number");
  }
  if (trace != "0" && trace != "1") return Usage("--trace must be 0 or 1");

  auto config = perfbench::MakeConfig(workload, seed_value, seconds_value,
                                      trace == "1");
  if (!config.ok()) return Usage(config.status().ToString());

  // Snapshots of this run live in their own directory, removed at exit.
  const std::string run_dir = work_dir + "/" + workload + "-seed" + seed +
                              "-pid" + std::to_string(getpid());
  std::error_code ec;
  std::filesystem::create_directories(run_dir, ec);
  if (ec) {
    std::cerr << "perfbench_e2e: cannot create " << run_dir << ": "
              << ec.message() << "\n";
    return 1;
  }

  std::cout << *config;
  perfbench::PrintHost(std::cout);
  const auto result = perfbench::RunLifecycle(*config, run_dir);
  std::filesystem::remove_all(run_dir, ec);
  if (!result.ok()) {
    std::cerr << "perfbench_e2e: run aborted: " << result.status().ToString()
              << "\n";
    return 1;
  }
  if (config->trace) {
    using scenerec::trace::Trace;
    const std::string trace_path =
        work_dir + "/" + workload + "-seed" + seed + ".trace.json";
    const scenerec::Status written = Trace::WriteChromeTrace(trace_path);
    if (!written.ok()) {
      std::cerr << "perfbench_e2e: " << written.ToString() << "\n";
      return 1;
    }
    std::cout << "spans: " << trace_path << "\n"
              << Trace::SelfTimeSummary(30);
  }

  for (const std::string& note : result->notes) std::cout << note << "\n";

  std::string json = "{\"correct\": ";
  json += result->failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(result->attempted);
  json += ", \"failed\": " + std::to_string(result->failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < result->metrics.size(); ++i) {
    const perfbench::Metric& m = result->metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
  return 0;
}
