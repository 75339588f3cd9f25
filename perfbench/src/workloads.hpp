// The benchmark's workloads. Each returns an Outcome: the operations it
// attempted and failed (checked against a reference), its metrics, and — in a
// traced run — the spans it recorded.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  /// Seed of the correctness reference; equal to `seed` except when the
  /// self-test perturbs it to prove the oracle fires.
  std::uint64_t reference_seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Human-readable summary lines, printed before the result.
  std::vector<std::string> notes;
  /// Checks of the benchmark's own validity, not operations, that failed;
  /// any one makes the run incorrect.
  std::vector<std::string> failed_checks;
  std::vector<TraceGroup> trace;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// kSerial is the correctness reference only; the workloads run on kPool4
/// and kRanks4.
enum class Substrate { kSerial, kPool4, kRanks4 };

[[nodiscard]] Outcome run_erosion(const Options& options, Substrate substrate);
[[nodiscard]] Outcome run_serve(const Options& options);

// Probes for the layers a traced workload does not drive itself, so that a
// traced run of any workload reports every per-layer metric.

/// Distributed-exchange metrics (runtime.step_*, erosion.gather/rebalance/
/// discs_moved/rank_step_fli) from a small 4-rank traced erosion replay;
/// with `all_layers` also the kernel and control metrics.
void probe_erosion_layers(const Options& options, bool all_layers,
                          Outcome& outcome);
/// Mailbox round trip, request/response codec and opt evaluation at the
/// serve workload's request sizes; with `with_session` also one short serve
/// session for the serve.* metrics.
void probe_serve_layers(const Options& options, bool with_session,
                        Outcome& outcome);

}  // namespace perfbench
