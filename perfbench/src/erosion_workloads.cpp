// The erosion workloads: one standard+ULBA pair of ErosionApp::run() at the
// `ulba_cli erosion --pes 256 --rng counter` configuration, on a 4-thread
// pool or on 4 SPMD ranks. With the counter RNG every substrate follows one
// trajectory, so each method run is checked bit for bit against a serial
// reference run of the same seed.
//
// ErosionApp::run() exposes no per-iteration clock and its LB controller is
// private to the application, so a replay of its iteration loop through the
// public calls gives the per-iteration latency (untraced) and the spans
// (traced). The replay must reproduce run()'s result exactly and cost what
// run() costs, or the run is rejected.
#include <algorithm>
#include <bit>
#include <cmath>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <vector>

#include "bsp/machine.hpp"
#include "core/detector.hpp"
#include "core/gossip.hpp"
#include "core/trigger.hpp"
#include "erosion/app.hpp"
#include "erosion/distributed_domain.hpp"
#include "erosion/domain.hpp"
#include "lb/driver.hpp"
#include "lb/partitioners.hpp"
#include "lb/stripe_partitioner.hpp"
#include "runtime/spmd.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ulba;

constexpr int kWorkers = 4;
constexpr std::int64_t kPes = 256;
/// How far the replay's pair time may stray from run()'s (as a share of
/// run()'s) before its latency figures no longer describe run().
constexpr double kReplayCostTolerance = 0.2;

/// `ulba_cli erosion --pes 256 --rng counter` with CLI defaults.
erosion::AppConfig workload_config(std::uint64_t seed, Substrate substrate) {
  erosion::AppConfig c;
  c.pe_count = kPes;
  c.strong_rock_count = 1;
  c.seed = seed;
  c.alpha = 0.4;
  c.columns_per_pe = 256;
  c.rows = 384;
  c.rock_radius = 96;
  c.iterations = 180;
  c.bytes_per_cell = 256.0;
  c.comm.latency_s = 1e-4;
  c.comm.bandwidth_Bps = 2e9;
  c.partitioner = "greedy";
  c.exchange = "neighbor";
  c.rng_kind = erosion::RngKind::kCounter;
  c.threads = substrate == Substrate::kPool4 ? kWorkers : 1;
  c.ranks = substrate == Substrate::kRanks4 ? kWorkers : 1;
  return c;
}

/// The small 4-rank configuration of the exchange probe.
erosion::AppConfig probe_config(std::uint64_t seed) {
  erosion::AppConfig c = workload_config(seed, Substrate::kRanks4);
  c.pe_count = 16;
  c.columns_per_pe = 64;
  c.rows = 96;
  c.rock_radius = 24;
  c.iterations = 60;
  return c;
}

erosion::AppConfig with_method(erosion::AppConfig c, erosion::Method m) {
  c.method = m;
  return c;
}

constexpr erosion::Method kMethods[] = {erosion::Method::kStandard,
                                        erosion::Method::kUlba};

/// The determinism contract: what a substrate must reproduce bit for bit.
bool same_result(const erosion::RunResult& a, const erosion::RunResult& b) {
  if (std::bit_cast<std::uint64_t>(a.total_seconds) !=
          std::bit_cast<std::uint64_t>(b.total_seconds) ||
      a.eroded_cells != b.eroded_cells || a.lb_iterations != b.lb_iterations ||
      a.lb_alphas.size() != b.lb_alphas.size())
    return false;
  for (std::size_t i = 0; i < a.lb_alphas.size(); ++i)
    if (std::bit_cast<std::uint64_t>(a.lb_alphas[i]) !=
        std::bit_cast<std::uint64_t>(b.lb_alphas[i]))
      return false;
  return true;
}

std::shared_ptr<const lb::Partitioner> partitioner_of(
    const erosion::AppConfig& c) {
  return std::shared_ptr<const lb::Partitioner>(
      lb::make_partitioner(c.partitioner));
}

/// The construction calls ErosionApp::run() makes before its first
/// iteration: make_domain() plus the domain (and pool) or the rank world.
double setup_seconds(const erosion::AppConfig& c, Substrate substrate) {
  const std::int64_t t0 = now_ns();
  const erosion::ErosionApp app(c);
  erosion::DomainConfig domain = app.make_domain();
  if (substrate == Substrate::kRanks4) {
    const auto partitioner = partitioner_of(c);
    runtime::spmd_run(static_cast<int>(c.ranks), [&](runtime::Comm& comm) {
      const erosion::DistributedDomain local(domain, comm, partitioner,
                                             erosion::ExchangeMode::kNeighbor);
    });
  } else {
    const erosion::ErosionDomain local(std::move(domain));
    if (substrate == Substrate::kPool4) {
      const support::ThreadPool pool(static_cast<std::size_t>(c.threads));
    }
  }
  return seconds_between(t0, now_ns());
}

/// LB-controller replay: the model-clock control loop ErosionApp::run()
/// drives (fixed α, adaptive trigger, gossip-fed WIR), one span per library
/// call. Mirrors the application's controller statement for statement, so
/// the replayed LB schedule and virtual time equal the run's exactly.
class ControlReplay {
 public:
  ControlReplay(const erosion::AppConfig& c,
                std::shared_ptr<const lb::Partitioner> partitioner,
                std::int64_t columns)
      : c_(c),
        machine_(c.pe_count, c.flops, c.comm),
        balancer_(c.comm, c.flops),
        gossip_(c.pe_count, c.gossip_fanout),
        detector_(c.zscore_threshold),
        gossip_rng_(support::Rng(c.seed).fork(2)),
        lb_cost_(prior_lb_cost(c, columns)),
        boundaries_(lb::even_partition(columns, c.pe_count)),
        gossip_seconds_(static_cast<double>(c.gossip_fanout) *
                        c.comm.p2p(16 * c.pe_count)),
        wir_(static_cast<std::size_t>(c.pe_count), 0.0) {
    balancer_.set_partitioner(std::move(partitioner));
  }

  void observe(std::int64_t iter, std::span<const double> weights,
               Recorder& rec) {
    std::vector<double> loads;
    {
      const ScopedSpan span(rec, "lb.stripe_loads", iter);
      loads = lb::stripe_loads(weights, boundaries_);
    }
    {
      const ScopedSpan span(rec, "bsp.superstep", iter);
      pending_seconds_ = machine_.run_superstep(loads, gossip_seconds_).seconds;
    }
    const ScopedSpan span(rec, "core.gossip", iter);
    if (wir_valid_) {
      for (std::int64_t p = 0; p < c_.pe_count; ++p) {
        const auto i = static_cast<std::size_t>(p);
        const double raw = std::max(0.0, loads[i] - prev_loads_[i]);
        wir_[i] = c_.wir_smoothing * raw + (1.0 - c_.wir_smoothing) * wir_[i];
        gossip_.observe_local(p, wir_[i], iter);
      }
    }
    prev_loads_ = std::move(loads);
    wir_valid_ = true;
    gossip_.step(gossip_rng_);
  }

  [[nodiscard]] bool should_balance(std::int64_t iter, double total_workload,
                                    Recorder& rec) {
    const ScopedSpan span(rec, "core.trigger", iter);
    trigger_.record_iteration(pending_seconds_);
    double threshold = lb_cost_.average();
    const auto P = c_.pe_count;
    if (c_.method == erosion::Method::kUlba) {
      const auto known = gossip_.database(0).wirs();
      std::int64_t n_hat = 0;
      {
        const ScopedSpan detect(rec, "core.detect", iter);
        n_hat = detector_.count_overloading(known);
      }
      if (n_hat > 0 && 2 * n_hat < P)
        threshold += c_.alpha * static_cast<double>(n_hat) /
                     static_cast<double>(P - n_hat) * total_workload /
                     (c_.flops * static_cast<double>(P));
    }
    return iter + 1 < c_.iterations && trigger_.should_balance(threshold);
  }

  void balance(std::int64_t iter, std::span<const double> weights,
               std::span<const double> bytes, Recorder& rec) {
    std::vector<double> alphas(static_cast<std::size_t>(c_.pe_count), 0.0);
    if (c_.method == erosion::Method::kUlba) {
      const ScopedSpan detect(rec, "core.detect", iter);
      for (std::int64_t p = 0; p < c_.pe_count; ++p) {
        const auto i = static_cast<std::size_t>(p);
        if (detector_.is_overloading(wir_[i], gossip_.database(p).wirs()))
          alphas[i] = c_.alpha;
      }
    }
    const lb::LbStepResult step = [&] {
      const ScopedSpan span(rec, "lb.step", iter);
      return balancer_.step(alphas, weights, bytes, boundaries_);
    }();
    machine_.charge_global(step.cost.total());
    lb_cost_.observe(step.cost.total());
    trigger_.reset();
    boundaries_ = step.boundaries;
    wir_valid_ = false;
    lb_iterations_.push_back(iter);
  }

  [[nodiscard]] double elapsed_seconds() const noexcept {
    return machine_.elapsed_seconds();
  }
  [[nodiscard]] const std::vector<std::int64_t>& lb_iterations()
      const noexcept {
    return lb_iterations_;
  }

 private:
  /// The application's prior LB-cost estimate (gather + scan + broadcast).
  static double prior_lb_cost(const erosion::AppConfig& c,
                              std::int64_t columns) {
    const auto P = c.pe_count;
    return c.comm.gather(static_cast<std::int64_t>(sizeof(double)), P) +
           static_cast<double>(columns) * 8.0 / c.flops +
           c.comm.broadcast(
               static_cast<std::int64_t>((P + 1) * sizeof(std::int64_t)), P);
  }

  const erosion::AppConfig& c_;
  bsp::Machine machine_;
  lb::CentralizedLb balancer_;
  core::GossipNetwork gossip_;
  core::OverloadDetector detector_;
  core::AdaptiveTrigger trigger_;
  support::Rng gossip_rng_;
  core::LbCostEstimator lb_cost_;
  lb::StripeBoundaries boundaries_;
  double gossip_seconds_;
  std::vector<double> wir_;
  std::vector<double> prev_loads_;
  bool wir_valid_ = false;
  double pending_seconds_ = 0.0;
  std::vector<std::int64_t> lb_iterations_;
};

/// What one replayed method run produced, beyond its spans.
struct Replay {
  std::int64_t eroded_cells = 0;
  std::vector<std::int64_t> lb_iterations;
  double total_seconds = 0.0;
  std::int64_t frontier_cells = 0;  ///< Σ global frontier before each step
  double step_cpu_seconds = 0.0;    ///< CPU time inside the step spans
  double step_wall_seconds = 0.0;   ///< step wall × stepping threads, Σ tracks
  double main_step_wall_seconds = 0.0;  ///< wall time of track 0's steps
  std::int64_t discs_moved = 0;
  double migration_bytes = 0.0;
  std::int64_t step_messages = 0;
  double step_bytes = 0.0;
  std::vector<double> rank_step_fli;  ///< per iteration, ranks only
  std::vector<double> iteration_seconds;  ///< track 0's wall per iteration
};

std::uint64_t dynamics_seed(const erosion::AppConfig& c) {
  return support::Rng(c.seed).fork(1).seed();
}

Replay replay_in_process(const erosion::AppConfig& c, Recorder& rec) {
  const erosion::ErosionApp app(c);
  erosion::ErosionDomain domain(app.make_domain());
  ControlReplay ctl(c, partitioner_of(c), domain.columns());
  std::optional<support::ThreadPool> pool;
  if (c.threads > 1) pool.emplace(static_cast<std::size_t>(c.threads));
  const std::uint64_t seed = dynamics_seed(c);
  Replay out;
  for (std::int64_t iter = 0; iter < c.iterations; ++iter) {
    const std::int64_t iter0 = now_ns();
    ctl.observe(iter, domain.column_weights(), rec);
    out.frontier_cells += domain.frontier_size();
    const double cpu0 = process_cpu_seconds();
    const std::int64_t t0 = now_ns();
    {
      const ScopedSpan span(rec, "erosion.step", iter);
      (void)domain.step_counter(seed, iter, pool ? &*pool : nullptr);
    }
    const double wall = seconds_between(t0, now_ns());
    out.step_cpu_seconds += process_cpu_seconds() - cpu0;
    out.step_wall_seconds += wall * static_cast<double>(c.threads);
    out.main_step_wall_seconds += wall;
    if (ctl.should_balance(iter, domain.total_workload(), rec))
      ctl.balance(iter, domain.column_weights(), domain.column_bytes(), rec);
    out.iteration_seconds.push_back(seconds_between(iter0, now_ns()));
  }
  out.eroded_cells = domain.eroded_cells();
  out.lb_iterations = ctl.lb_iterations();
  out.total_seconds = ctl.elapsed_seconds();
  return out;
}

Replay replay_distributed(const erosion::AppConfig& c,
                          std::vector<Recorder>& tracks) {
  const erosion::ErosionApp app(c);
  const erosion::DomainConfig domain_config = app.make_domain();
  const auto partitioner = partitioner_of(c);
  const std::uint64_t seed = dynamics_seed(c);
  const double byte_scale = c.bytes_per_cell / c.flop_per_cell;
  const auto ranks = static_cast<std::size_t>(c.ranks);
  const auto iterations = static_cast<std::size_t>(c.iterations);
  // Per-rank slots, each written by its own rank only and read after join.
  std::vector<std::vector<double>> step_cpu(
      ranks, std::vector<double>(iterations, 0.0));
  std::vector<double> step_wall(ranks, 0.0);
  Replay out;
  runtime::spmd_run(static_cast<int>(c.ranks), [&](runtime::Comm& comm) {
    const auto rank = static_cast<std::size_t>(comm.rank());
    Recorder& rec = tracks[rank];
    erosion::DistributedDomain domain(domain_config, comm, partitioner,
                                      erosion::ExchangeMode::kNeighbor);
    const bool main = rank == 0;
    std::optional<ControlReplay> ctl;
    if (main) ctl.emplace(c, partitioner, domain.columns());
    for (std::int64_t iter = 0; iter < c.iterations; ++iter) {
      const std::int64_t iter0 = now_ns();
      const std::vector<double> weights = [&] {
        const ScopedSpan span(rec, "erosion.gather", iter);
        return domain.gather_column_weights(0);
      }();
      if (main) {
        ctl->observe(iter, weights, rec);
        out.frontier_cells += domain.frontier_size();
      }
      const double cpu0 = thread_cpu_seconds();
      const std::int64_t t0 = now_ns();
      {
        const ScopedSpan span(rec, "erosion.step", iter);
        (void)domain.step_counter(seed, iter, nullptr);
      }
      const double wall = seconds_between(t0, now_ns());
      step_cpu[rank][static_cast<std::size_t>(iter)] =
          thread_cpu_seconds() - cpu0;
      step_wall[rank] += wall;
      std::uint8_t balance_now = 0;
      if (main)
        balance_now =
            ctl->should_balance(iter, domain.total_workload(), rec) ? 1 : 0;
      {
        const ScopedSpan span(rec, "runtime.broadcast", iter);
        comm.broadcast(balance_now, 0);
      }
      if (balance_now != 0) {
        const std::vector<double> post = [&] {
          const ScopedSpan span(rec, "erosion.allgather", iter);
          return domain.allgather_column_weights();
        }();
        if (main) {
          std::vector<double> bytes(post.size());
          for (std::size_t x = 0; x < post.size(); ++x)
            bytes[x] = post[x] * byte_scale;
          ctl->balance(iter, post, bytes, rec);
        }
        const erosion::DistributedReshardResult reshard = [&] {
          const ScopedSpan span(rec, "erosion.rebalance", iter);
          return domain.rebalance(post);
        }();
        if (main) {
          out.discs_moved += reshard.discs_moved;
          out.migration_bytes += reshard.observed_payload_bytes;
        }
      }
      if (main) out.iteration_seconds.push_back(seconds_between(iter0, now_ns()));
    }
    const auto messages = comm.allreduce(
        static_cast<std::int64_t>(domain.step_messages_sent()));
    const auto bytes =
        comm.allreduce(static_cast<double>(domain.step_payload_bytes_sent()));
    if (main) {
      out.step_messages = messages;
      out.step_bytes = bytes;
      out.eroded_cells = domain.eroded_cells();
      out.lb_iterations = ctl->lb_iterations();
      out.total_seconds = ctl->elapsed_seconds();
    }
  });
  for (std::size_t r = 0; r < ranks; ++r) {
    out.step_wall_seconds += step_wall[r];
    for (const double cpu : step_cpu[r]) out.step_cpu_seconds += cpu;
  }
  out.main_step_wall_seconds = step_wall[0];
  for (std::size_t i = 0; i < iterations; ++i) {
    double sum = 0.0;
    double max = 0.0;
    for (std::size_t r = 0; r < ranks; ++r) {
      sum += step_cpu[r][i];
      max = std::max(max, step_cpu[r][i]);
    }
    const double avg = sum / static_cast<double>(ranks);
    if (avg > 0.0) out.rank_step_fli.push_back((max - avg) / avg);
  }
  return out;
}

bool replay_matches(const Replay& replay, const erosion::RunResult& run) {
  return replay.eroded_cells == run.eroded_cells &&
         replay.lb_iterations == run.lb_iterations &&
         std::bit_cast<std::uint64_t>(replay.total_seconds) ==
             std::bit_cast<std::uint64_t>(run.total_seconds);
}

/// Replayed standard+ULBA pairs of one substrate, with or without spans.
struct ReplaySet {
  ReplaySet(int track_count, bool record) {
    for (int t = 0; t < track_count; ++t) tracks.emplace_back(t, record);
  }
  std::vector<Recorder> tracks;
  std::vector<double> pair_seconds;
  /// Per pair, the wall time of each iteration of both method runs.
  std::vector<std::vector<double>> pair_iteration_seconds;
  Replay totals;  ///< counters summed over every replayed method run
  std::int64_t method_runs = 0;
  std::int64_t lb_calls = 0;
};

void accumulate(Replay& into, const Replay& r) {
  into.eroded_cells += r.eroded_cells;
  into.frontier_cells += r.frontier_cells;
  into.step_cpu_seconds += r.step_cpu_seconds;
  into.step_wall_seconds += r.step_wall_seconds;
  into.main_step_wall_seconds += r.main_step_wall_seconds;
  into.discs_moved += r.discs_moved;
  into.migration_bytes += r.migration_bytes;
  into.step_messages += r.step_messages;
  into.step_bytes += r.step_bytes;
  into.rank_step_fli.insert(into.rank_step_fli.end(), r.rank_step_fli.begin(),
                            r.rank_step_fli.end());
}

/// Replays one standard+ULBA pair; each method run must reproduce
/// `expected`. Returns the number of method runs whose replay diverged.
std::int64_t replay_pair(const erosion::AppConfig& base,
                         const erosion::RunResult (&expected)[2],
                         ReplaySet& t) {
  std::int64_t diverged = 0;
  std::vector<double> iteration_seconds;
  const std::int64_t t0 = now_ns();
  for (int m = 0; m < 2; ++m) {
    const erosion::AppConfig c = with_method(base, kMethods[m]);
    for (Recorder& rec : t.tracks)
      rec.set_run(static_cast<std::int32_t>(t.method_runs));
    const Replay r = c.ranks > 1 ? replay_distributed(c, t.tracks)
                                 : replay_in_process(c, t.tracks[0]);
    if (!replay_matches(r, expected[m])) ++diverged;
    accumulate(t.totals, r);
    iteration_seconds.insert(iteration_seconds.end(),
                             r.iteration_seconds.begin(),
                             r.iteration_seconds.end());
    t.lb_calls += static_cast<std::int64_t>(r.lb_iterations.size());
    ++t.method_runs;
  }
  t.pair_seconds.push_back(seconds_between(t0, now_ns()));
  t.pair_iteration_seconds.push_back(std::move(iteration_seconds));
  return diverged;
}

double per_pair(double total, const ReplaySet& t) {
  return total * 2.0 / static_cast<double>(t.method_runs);
}

/// Per-layer metrics of the kernel (erosion.step), the pool (busy fraction)
/// and the control layers (core/bsp/lb).
void set_kernel_control_metrics(const ReplaySet& t, Outcome& out) {
  const double traced_wall = [&] {
    double s = 0.0;
    for (const double x : t.pair_seconds) s += x;
    return s * static_cast<double>(t.tracks.size());
  }();
  out.set("erosion.step_ms_p50",
          median(span_durations(t.tracks, "erosion.step", 1e3)), "ms");
  out.set("erosion.step_ms_p95",
          quantile(span_durations(t.tracks, "erosion.step", 1e3), 0.95),
          "ms");
  out.set("erosion.ns_per_cell",
          t.totals.main_step_wall_seconds * 1e9 /
              static_cast<double>(std::max<std::int64_t>(
                  1, t.totals.frontier_cells)),
          "ns/cell");
  out.set("erosion.frontier_cells",
          per_pair(static_cast<double>(t.totals.frontier_cells), t), "count");
  out.set("erosion.eroded_cells",
          per_pair(static_cast<double>(t.totals.eroded_cells), t), "count");
  out.set("erosion.step_share", self_seconds(t.tracks, "erosion.step") /
                                    traced_wall,
          "ratio");
  out.set("erosion.step_busy_frac",
          t.totals.step_cpu_seconds / t.totals.step_wall_seconds, "ratio");
  out.set("core.gossip_us_p50",
          median(span_durations(t.tracks, "core.gossip", 1e6)), "us");
  out.set("core.detect_us_p50",
          median(span_durations(t.tracks, "core.detect", 1e6)), "us");
  out.set("bsp.superstep_us_p50",
          median(span_durations(t.tracks, "bsp.superstep", 1e6)), "us");
  out.set("lb.step_ms_p50", median(span_durations(t.tracks, "lb.step", 1e3)),
          "ms");
  out.set("lb.calls", per_pair(static_cast<double>(t.lb_calls), t), "count");
  out.set("core.share", self_seconds(t.tracks, "core") / traced_wall, "ratio");
  out.set("bsp.share", self_seconds(t.tracks, "bsp") / traced_wall, "ratio");
  out.set("lb.share", self_seconds(t.tracks, "lb") / traced_wall, "ratio");
}

/// Per-layer metrics of the distributed exchange (ranks only).
void set_exchange_metrics(const ReplaySet& t, Outcome& out) {
  out.set("runtime.step_messages",
          per_pair(static_cast<double>(t.totals.step_messages), t), "count");
  out.set("runtime.step_bytes", per_pair(t.totals.step_bytes, t), "B");
  out.set("runtime.migration_bytes", per_pair(t.totals.migration_bytes, t),
          "B");
  out.set("erosion.gather_us_p50",
          median(span_durations(t.tracks, "erosion.gather", 1e6)), "us");
  out.set("erosion.rebalance_ms_p50",
          median(span_durations(t.tracks, "erosion.rebalance", 1e3)), "ms");
  out.set("erosion.discs_moved",
          per_pair(static_cast<double>(t.totals.discs_moved), t), "count");
  double fli = 0.0;
  for (const double x : t.totals.rank_step_fli) fli += x;
  out.set("erosion.rank_step_fli",
          t.totals.rank_step_fli.empty()
              ? 0.0
              : fli / static_cast<double>(t.totals.rank_step_fli.size()),
          "ratio");
}

struct Pair {
  erosion::RunResult results[2];
  double method_seconds[2] = {0.0, 0.0};
};

Pair run_pair(const erosion::AppConfig& base) {
  Pair p;
  for (int m = 0; m < 2; ++m) {
    const erosion::ErosionApp app(with_method(base, kMethods[m]));
    const std::int64_t t0 = now_ns();
    p.results[m] = app.run();
    p.method_seconds[m] = seconds_between(t0, now_ns());
  }
  return p;
}

std::int64_t mismatches(const Pair& p, const Pair& reference) {
  std::int64_t n = 0;
  for (int m = 0; m < 2; ++m)
    if (!same_result(p.results[m], reference.results[m])) ++n;
  return n;
}

const char* substrate_label(Substrate s) {
  switch (s) {
    case Substrate::kSerial:
      return "serial";
    case Substrate::kPool4:
      return "pool4";
    case Substrate::kRanks4:
      return "ranks4";
  }
  return "?";
}

}  // namespace

Outcome run_erosion(const Options& options, Substrate substrate) {
  Outcome out;
  const erosion::AppConfig base = workload_config(options.seed, substrate);

  // The serial counter run every substrate must reproduce.
  const Pair reference =
      run_pair(workload_config(options.reference_seed, Substrate::kSerial));

  const std::int64_t start = now_ns();
  const auto out_of_time = [&](double next_cost) {
    return seconds_between(start, now_ns()) + next_cost > options.seconds;
  };
  const int track_count =
      substrate == Substrate::kRanks4 ? static_cast<int>(base.ranks) : 1;

  if (!options.trace) {
    // Alternate a pair of ErosionApp::run() calls (run_s) with a span-free
    // replay of the same pair (per-iteration latency: run() has no
    // per-iteration clock); both are checked against the reference.
    // A set-up precedes each unit, so the set-ups sample the whole run.
    std::vector<double> setup;
    std::vector<double> pair_seconds;
    ReplaySet replays(track_count, false);
    do {
      setup.push_back(setup_seconds(base, substrate));
      const Pair p = run_pair(base);
      pair_seconds.push_back(p.method_seconds[0] + p.method_seconds[1]);
      out.attempted += 2;
      out.failed += mismatches(p, reference);
      out.attempted += 2;
      out.failed += replay_pair(base, reference.results, replays);
    } while (!out_of_time(median(setup) + median(pair_seconds) +
                          median(replays.pair_seconds)));

    // Each timing, set-up included, is taken per unit and the fastest unit
    // is reported (see README.md: host contention slows whole stretches of
    // a run).
    std::vector<double> p50_us;
    std::vector<double> p99_us;
    for (const std::vector<double>& pair : replays.pair_iteration_seconds) {
      p50_us.push_back(quantile(pair, 0.5) * 1e6);
      p99_us.push_back(quantile(pair, 0.99) * 1e6);
    }
    const double run_s = min_of(pair_seconds);
    out.set("run_s", run_s, "s");
    out.set("rps", 2.0 * static_cast<double>(base.iterations) / run_s, "1/s");
    out.set("latency_us_p50", min_of(p50_us), "us");
    out.set("latency_us_p99", min_of(p99_us), "us");
    out.set("setup_s", min_of(setup), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::ostringstream note;
    note << "erosion " << substrate_label(substrate) << ": "
         << pair_seconds.size() << " standard+ULBA pairs of run() (median "
         << median(pair_seconds) << " s), " << replays.pair_seconds.size()
         << " replayed pairs of " << 2 * base.iterations
         << " iterations each, " << setup.size() << " set-ups";
    out.notes.push_back(note.str());
    // The latency figures are the replay's; they stand for run()'s only
    // while the replay costs what run() costs.
    const double cost_ratio = min_of(replays.pair_seconds) / run_s;
    std::ostringstream ratio;
    ratio << "replay pair / run() pair wall time (fastest of each): "
          << cost_ratio << " (allowed 1 +- " << kReplayCostTolerance << ")";
    out.notes.push_back(ratio.str());
    if (std::abs(cost_ratio - 1.0) > kReplayCostTolerance)
      out.failed_checks.push_back(
          "the replay's cost no longer tracks run(): its latency figures "
          "would describe another loop");
    // The reference pair is a serial run of the same problem, so it gives
    // the serial time of the scaling line in the same process.
    const double serial =
        reference.method_seconds[0] + reference.method_seconds[1];
    std::ostringstream scaling;
    scaling << "scaling (not gated): serial pair " << serial << " s / ("
            << kWorkers << " x run_s " << run_s << " s) = "
            << serial / (kWorkers * run_s) << " parallel efficiency";
    out.notes.push_back(scaling.str());
    return out;
  }

  // Traced: a pair of run() calls (checked against the reference), then an
  // untraced replay (the overhead baseline) and a traced replay, both of
  // which must reproduce that pair.
  ReplaySet t(track_count, true);
  ReplaySet untraced(track_count, false);
  std::vector<double> run_pair_seconds;
  std::int64_t diverged = 0;
  do {
    const Pair p = run_pair(base);
    run_pair_seconds.push_back(p.method_seconds[0] + p.method_seconds[1]);
    out.attempted += 2;
    out.failed += mismatches(p, reference);
    for (ReplaySet* set : {&untraced, &t}) {
      const std::int64_t d = replay_pair(base, p.results, *set);
      diverged += d;
      out.attempted += 2;
      out.failed += d;
    }
  } while (!out_of_time(median(run_pair_seconds) +
                        median(untraced.pair_seconds) +
                        median(t.pair_seconds)));

  set_kernel_control_metrics(t, out);
  if (substrate == Substrate::kRanks4)
    set_exchange_metrics(t, out);
  else
    probe_erosion_layers(options, false, out);
  probe_serve_layers(options, true, out);

  const double baseline = median(untraced.pair_seconds);
  double traced_total = 0.0;
  for (const double s : t.pair_seconds) traced_total += s;
  out.set("trace.overhead_frac",
          (median(t.pair_seconds) - baseline) / baseline, "ratio");
  out.set("trace.coverage",
          top_level_seconds(t.tracks) /
              (traced_total * static_cast<double>(t.tracks.size())),
          "ratio");
  std::ostringstream note;
  note << "traced erosion " << substrate_label(substrate) << ": "
       << t.pair_seconds.size() << " traced pairs; the replays "
       << (diverged == 0 ? "reproduce" : "DIVERGE FROM")
       << " the untraced eroded_cells, lb_count and LB schedule";
  out.notes.push_back(note.str());
  out.trace.push_back({std::string("erosion_") + substrate_label(substrate),
                       std::move(t.tracks)});
  return out;
}

void probe_erosion_layers(const Options& options, bool all_layers,
                          Outcome& out) {
  const erosion::AppConfig base = probe_config(options.seed);
  const Pair untraced = run_pair(base);
  ReplaySet t(static_cast<int>(base.ranks), true);
  const std::int64_t d = replay_pair(base, untraced.results, t);
  out.attempted += 2;
  out.failed += d;
  if (d != 0)
    out.notes.push_back("erosion probe: the replay DIVERGES from run()");
  if (all_layers) set_kernel_control_metrics(t, out);
  set_exchange_metrics(t, out);
  out.trace.push_back({"probe: erosion ranks4 (16 PEs)", std::move(t.tracks)});
}

}  // namespace perfbench
