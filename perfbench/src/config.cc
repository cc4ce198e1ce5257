#include "config.h"

#include <sched.h>
#include <sys/utsname.h>

#include <fstream>
#include <thread>

namespace perfbench {

scenerec::StatusOr<BenchConfig> MakeConfig(const std::string& workload,
                                           uint64_t seed, double seconds,
                                           bool trace) {
  BenchConfig c;
  c.workload = workload;
  c.seed = seed;
  c.seconds = seconds;
  c.trace = trace;
  if (workload == "serve_full") {
    // Every request scores the whole catalog through the eq. (14) MLP.
    c.num_candidates = 0;
  } else if (workload == "serve_two_stage_swap") {
    // Retrieval, queue hand-offs, the representation cache and publishes
    // under load; the MLP only rescores the candidate budget.
    c.num_candidates = 100;
    c.lazy_warmup = true;
    c.zipf_exponent = 1.1;
    c.publish_every = 2000;
  } else {
    return scenerec::Status::InvalidArgument(
        "unknown workload '" + workload +
        "' (expected serve_full or serve_two_stage_swap)");
  }
  return c;
}

std::ostream& operator<<(std::ostream& os, const BenchConfig& c) {
  os << "config workload=" << c.workload << " seed=" << c.seed
     << " seconds=" << c.seconds << " trace=" << (c.trace ? 1 : 0) << "\n"
     << "config data: preset=\"Baby & Toy\" scale=" << c.data_scale
     << " data_seed=" << c.data_seed << " num_negatives=" << c.num_negatives
     << "\n"
     << "config model: " << c.model << " dim=" << c.embedding_dim
     << " model_seed=" << c.model_seed << " epochs=" << c.epochs
     << " batch_size=" << c.batch_size << " lr=" << c.learning_rate
     << " train_seed=" << c.train_seed << " threads=1 patience=0"
     << " traced_epochs=" << c.traced_epochs << "\n"
     << "config setup: 1 + epochs set-ups, one per round"
     << " eval: threads=" << c.eval_threads
     << " passes_per_round=1\n"
     << "config serve: mode="
     << (c.num_candidates > 0 ? "two_stage(ivf)" : "full_catalog")
     << " num_candidates=" << c.num_candidates << " nprobe=" << c.nprobe
     << " warmup=" << (c.lazy_warmup ? "lazy" : "full")
     << " user_cache_share=" << c.user_cache_share << " traffic="
     << (c.zipf_exponent > 0 ? "zipf:" + std::to_string(c.zipf_exponent)
                             : std::string("uniform"))
     << " clients=" << c.clients << " max_batch=" << c.max_batch
     << " max_delay_us=" << c.max_delay_us
     << " queue_capacity=" << c.queue_capacity << " top_n=" << c.top_n
     << "\n"
     << "config serve: warmup_seconds=" << c.warmup_seconds
     << " serve_window_s=" << c.seconds
     << " publish_every=" << c.publish_every
     << " idle_publishes_per_round=" << c.idle_publishes_per_round
     << " verify_users=" << c.verify_users << "\n";
  return os;
}

void PrintHost(std::ostream& os) {
  cpu_set_t set;
  CPU_ZERO(&set);
  const int usable =
      sched_getaffinity(0, sizeof(set), &set) == 0 ? CPU_COUNT(&set) : -1;
  std::string cpu_model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      cpu_model = line.substr(line.find(':') + 2);
      break;
    }
  }
  utsname uts{};
  uname(&uts);
  os << "host nproc=" << usable
     << " hardware_concurrency=" << std::thread::hardware_concurrency()
     << " cpu=\"" << cpu_model << "\" kernel=" << uts.sysname << "-"
     << uts.release << "\n"
     << "host compiler=\"" << __VERSION__ << "\" build_type="
     << PERFBENCH_BUILD_TYPE << " cxx_flags=\"" << PERFBENCH_CXX_FLAGS
     << "\"\n";
}

}  // namespace perfbench
