#ifndef PERFBENCH_CONFIG_H_
#define PERFBENCH_CONFIG_H_

#include <cstdint>
#include <ostream>
#include <string>

#include "common/status_or.h"

namespace perfbench {

/// Every knob of one benchmark run. A workload is nothing but a preset of
/// these fields (MakeConfig); the struct prints itself, so each result is
/// reported next to the exact configuration and host that produced it.
struct BenchConfig {
  // -- Run ------------------------------------------------------------------
  std::string workload;
  /// Drives the serving traffic (user draws of every client). Data, model
  /// initialization and training use the fixed seeds below, so the trained
  /// model and test_ndcg10 repeat exactly across runs and seeds.
  uint64_t seed = 1;
  /// The measured serving window, split evenly over the rounds.
  double seconds = 10.0;
  bool trace = false;

  // -- Data: the JD Baby & Toy preset, scaled down --------------------------
  double data_scale = 0.025;
  uint64_t data_seed = 7;
  int64_t num_negatives = 100;

  // -- Model and training (serial, patience 0) ------------------------------
  std::string model = "SceneRec";
  int64_t embedding_dim = 64;
  uint64_t model_seed = 42;
  /// Also the number of rounds: each completed epoch is written, published,
  /// evaluated and served for a slice of the window, and one more set-up is
  /// timed (lifecycle.cc). setup_s is the median of 1 + epochs set-ups.
  int64_t epochs = 12;
  int64_t batch_size = 128;
  float learning_rate = 2e-3f;
  uint64_t train_seed = 42;
  /// The traced run trains with telemetry on; afterwards it trains this many
  /// epochs with telemetry off, the baseline of train_epoch's overhead.
  int64_t traced_epochs = 3;

  // -- Full-ranking evaluation ----------------------------------------------
  int64_t eval_threads = 2;

  // -- Serving daemon (closed loop) -----------------------------------------
  /// 0 = full catalog; > 0 = two-stage retrieval with this candidate budget.
  int64_t num_candidates = 0;
  int64_t nprobe = 8;
  bool lazy_warmup = false;
  /// Lazy-mode user-representation cache, as a share of users.
  double user_cache_share = 0.1;
  /// 0 = uniform users; > 0 = Zipf over users with this exponent.
  double zipf_exponent = 0.0;
  /// One more client than max_batch keeps a request queued while a batch
  /// runs, so the daemon never idles waiting for a client's wake-up. With
  /// as many clients as max_batch, a request either finds the daemon idle
  /// or queues behind the other's batch (README.md, "Why 3 clients").
  int64_t clients = 3;
  int64_t max_batch = 2;
  int64_t max_delay_us = 0;
  int64_t queue_capacity = 64;
  int64_t top_n = 10;
  double warmup_seconds = 0.5;
  /// > 0: every this many completed requests, publish under load, alternating
  /// the round's version with the previous one; publish_ms then times these.
  /// 0: publish_ms times the idle publishes that open each round.
  int64_t publish_every = 0;
  /// With publish_every 0: idle publishes per round after the first, each
  /// opening an equal part of the round's serving slice, alternating the
  /// previous version and the round's, which is published last.
  int64_t idle_publishes_per_round = 4;
  /// Fixed user sample (evenly spaced ids) checked against the library
  /// after training, for the last two versions.
  int64_t verify_users = 48;
};

/// The workload presets: serve_full, serve_two_stage_swap.
scenerec::StatusOr<BenchConfig> MakeConfig(const std::string& workload,
                                           uint64_t seed, double seconds,
                                           bool trace);

std::ostream& operator<<(std::ostream& os, const BenchConfig& config);

/// Prints the host: CPUs usable by this process, CPU model, kernel,
/// compiler and build flags.
void PrintHost(std::ostream& os);

}  // namespace perfbench

#endif  // PERFBENCH_CONFIG_H_
