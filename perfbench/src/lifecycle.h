#ifndef PERFBENCH_LIFECYCLE_H_
#define PERFBENCH_LIFECYCLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status_or.h"
#include "config.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Outcome of one run. `attempted` counts every checked operation (epochs,
/// evaluation passes, snapshot round trips, requests, library comparisons);
/// `failed` those whose check did not hold. `metrics` holds the end-to-end
/// metrics of an untraced run, or the per-layer metrics of a traced one.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  /// Ungated figures printed beside the result.
  std::vector<std::string> notes;
};

/// Drives set-up -> training -> full-ranking evaluation -> snapshot ->
/// publish -> closed-loop serving -> verification for one workload, through
/// the library's public API only. Scratch files (snapshots) go under
/// `work_dir`, which must exist. An error Status means the run could not
/// proceed (e.g. training diverged) and no result may be reported.
scenerec::StatusOr<RunResult> RunLifecycle(const BenchConfig& config,
                                           const std::string& work_dir);

}  // namespace perfbench

#endif  // PERFBENCH_LIFECYCLE_H_
