// The serve_mixed workload: a closed loop of 3 ScheduleClients, each sending
// its next query() only after the previous answer, against serve_loop on
// rank 0 of a 4-rank world. A session replays a fixed request stream per
// client, drawn from the seed: ~78% repeats from a 256-entry hot pool of
// grid-mode Table-II requests (warmed into the cache before timing), ~20%
// fresh grid-mode instances and ~2% fresh dp-mode instances. Every response
// is checked after the session against a cold evaluate_schedule_request of
// the same request under core::payload_equals.
#include <atomic>
#include <exception>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/instance.hpp"
#include "core/schedule_query.hpp"
#include "opt/evaluate.hpp"
#include "runtime/spmd.hpp"
#include "serve/service.hpp"
#include "support/counter_rng.hpp"
#include "support/rng.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ulba;

constexpr int kClients = 3;
constexpr int kWorld = kClients + 1;
constexpr int kServerRank = 0;
constexpr std::uint64_t kHotPool = 256;
constexpr double kFreshDpShare = 0.02;
constexpr double kFreshGridShare = 0.20;
/// Queries per client per session (the workload) and per probe session.
constexpr std::int64_t kSessionQueries = 2000;
constexpr std::int64_t kProbeSessionQueries = 300;
/// Fresh instances use Rng fork indices from here on, disjoint from the
/// hot pool's 0..255; each (client, position) gets its own.
constexpr std::uint64_t kFreshIndexBase = 1ull << 32;
constexpr std::uint64_t kMixStream = 0x6d6978;  // "mix"
constexpr std::uint64_t kHotStream = 0x686f74;  // "hot"
/// Mailbox ping-pong tags and round trips of the runtime probe.
constexpr int kTagPing = 71;
constexpr int kTagPong = 72;
constexpr int kRoundTrips = 4000;
constexpr int kProbeRepeats = 4;
constexpr std::uint64_t kDpProbeRequests = 16;

struct Spec {
  std::uint64_t index = 0;
  core::EvalMode mode = core::EvalMode::kSigmaGrid;
};

/// A Table-II request, as `ulba_cli serve` draws its pool: instance from
/// Rng(seed).fork(index), α grid 0, 0.1, …, 1.
core::ScheduleRequest make_request(std::uint64_t seed, const Spec& spec) {
  support::Rng rng = support::Rng(seed).fork(spec.index);
  core::ScheduleRequest request;
  request.mode = spec.mode;
  request.params = core::InstanceGenerator().sample(rng).params;
  for (int g = 0; g <= 10; ++g)
    request.alpha_grid.push_back(static_cast<double>(g) / 10.0);
  return request;
}

std::vector<core::ScheduleRequest> hot_pool(std::uint64_t seed) {
  std::vector<core::ScheduleRequest> pool;
  for (std::uint64_t i = 0; i < kHotPool; ++i)
    pool.push_back(make_request(seed, {i, core::EvalMode::kSigmaGrid}));
  return pool;
}

/// Runs fn(i) for i in [0, n) on 4 threads.
template <typename Fn>
void parallel_for(std::size_t n, Fn fn) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kWorld; ++t)
    threads.emplace_back([&] {
      for (std::size_t i = next++; i < n; i = next++) fn(i);
    });
  for (std::thread& thread : threads) thread.join();
}

/// The generated inputs of one run: the distinct requests (hot pool first)
/// and each client's stream of picks into them.
struct Inputs {
  std::vector<Spec> specs;
  std::vector<core::ScheduleRequest> requests;
  std::vector<std::vector<std::uint32_t>> picks;  ///< [client][position]
  /// Cold answers to the same specs drawn from the reference seed.
  std::vector<core::ScheduleResponse> references;
};

Inputs make_inputs(const Options& options, std::int64_t queries_per_client) {
  Inputs in;
  for (std::uint64_t i = 0; i < kHotPool; ++i)
    in.specs.push_back({i, core::EvalMode::kSigmaGrid});
  const support::CounterRng mix(options.seed, kMixStream);
  const support::CounterRng hot(options.seed, kHotStream);
  in.picks.resize(kClients);
  for (std::uint64_t c = 0; c < kClients; ++c) {
    for (std::uint64_t k = 0;
         k < static_cast<std::uint64_t>(queries_per_client); ++k) {
      const double u = mix.uniform01(c, k);
      if (u < kFreshDpShare + kFreshGridShare) {
        const std::uint64_t index = kFreshIndexBase + (c << 24) + k;
        in.picks[c].push_back(static_cast<std::uint32_t>(in.specs.size()));
        in.specs.push_back({index, u < kFreshDpShare
                                       ? core::EvalMode::kExactDp
                                       : core::EvalMode::kSigmaGrid});
      } else {
        in.picks[c].push_back(
            static_cast<std::uint32_t>(hot.draw(c, k) % kHotPool));
      }
    }
  }
  for (const Spec& spec : in.specs)
    in.requests.push_back(make_request(options.seed, spec));
  in.references.resize(in.specs.size());
  parallel_for(in.specs.size(), [&](std::size_t i) {
    in.references[i] = opt::evaluate_schedule_request(
        make_request(options.reference_seed, in.specs[i]));
  });
  return in;
}

struct Session {
  double setup_seconds = 0.0;
  double wall_seconds = 0.0;
  double server_cpu_seconds = 0.0;
  serve::ServeMetrics metrics;
  std::vector<double> latency_us;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
};

/// One closed-loop session. Set-up (pool generation, cache warm-up, world
/// spawn) ends when every rank has reached the start barrier; the session
/// wall ends when serve_loop returns after the last client finished.
Session run_session(const Options& options, const Inputs& in,
                    std::vector<Recorder>* tracks) {
  Session s;
  const std::int64_t t0 = now_ns();
  const std::vector<core::ScheduleRequest> pool = hot_pool(options.seed);
  serve::ServeOptions serve_options;
  serve_options.server_rank = kServerRank;
  opt::ScheduleCache cache(serve_options.cache_capacity,
                           serve_options.cache_shards);
  for (const core::ScheduleRequest& request : pool)
    (void)cache.evaluate(request);

  std::vector<std::vector<std::optional<core::ScheduleResponse>>> responses(
      kWorld);
  std::vector<std::vector<double>> latency(kWorld);
  std::int64_t ready_ns = 0;
  std::int64_t end_ns = 0;
  runtime::spmd_run(kWorld, [&](runtime::Comm& comm) {
    comm.barrier();
    const auto rank = static_cast<std::size_t>(comm.rank());
    if (comm.rank() == kServerRank) {
      ready_ns = now_ns();
      const double cpu0 = thread_cpu_seconds();
      std::optional<ScopedSpan> span;
      if (tracks) span.emplace((*tracks)[rank], "serve.loop", 0);
      s.metrics = serve::serve_loop(comm, cache, serve_options);
      span.reset();
      s.server_cpu_seconds = thread_cpu_seconds() - cpu0;
      end_ns = now_ns();
      return;
    }
    serve::ScheduleClient client(comm, kServerRank);
    const std::vector<std::uint32_t>& picks = in.picks[rank - 1];
    responses[rank].reserve(picks.size());
    latency[rank].reserve(picks.size());
    for (std::size_t k = 0; k < picks.size(); ++k) {
      const core::ScheduleRequest& request = in.requests[picks[k]];
      const std::int64_t q0 = now_ns();
      try {
        std::optional<ScopedSpan> span;
        if (tracks)
          span.emplace((*tracks)[rank], "serve.query",
                       static_cast<std::int64_t>(k));
        responses[rank].emplace_back(client.query(request));
      } catch (const std::exception&) {
        responses[rank].emplace_back(std::nullopt);
        continue;
      }
      latency[rank].push_back(static_cast<double>(now_ns() - q0) * 1e-3);
    }
    client.finish();
  });
  s.setup_seconds = seconds_between(t0, ready_ns);
  s.wall_seconds = seconds_between(ready_ns, end_ns);

  std::vector<std::int64_t> failed(kWorld, 0);
  parallel_for(kClients, [&](std::size_t c) {
    const std::vector<std::uint32_t>& picks = in.picks[c];
    const auto& got = responses[c + 1];
    for (std::size_t k = 0; k < picks.size(); ++k)
      if (!got[k] || !core::payload_equals(*got[k], in.references[picks[k]]))
        ++failed[c];
  });
  for (int c = 0; c < kClients; ++c) {
    s.attempted += static_cast<std::int64_t>(in.picks[c].size());
    s.failed += failed[c];
    const auto& l = latency[c + 1];
    s.latency_us.insert(s.latency_us.end(), l.begin(), l.end());
  }
  return s;
}

/// serve.* metrics over the traced sessions.
void set_serve_metrics(const std::vector<Session>& sessions, Outcome& out) {
  double requests = 0.0;
  double hits = 0.0;
  double batches = 0.0;
  double cpu = 0.0;
  double wall = 0.0;
  for (const Session& s : sessions) {
    requests += static_cast<double>(s.metrics.requests);
    hits += static_cast<double>(s.metrics.cache_hits);
    batches += static_cast<double>(s.metrics.batches);
    cpu += s.server_cpu_seconds;
    wall += s.wall_seconds;
  }
  out.set("serve.hit_rate", hits / requests, "ratio");
  out.set("serve.mean_batch", requests / batches, "count");
  out.set("serve.server_busy_frac", cpu / wall, "ratio");
}

}  // namespace

Outcome run_serve(const Options& options) {
  Outcome out;
  const Inputs in = make_inputs(options, kSessionQueries);
  const std::int64_t start = now_ns();
  const auto out_of_time = [&](double next_cost) {
    return seconds_between(start, now_ns()) + next_cost > options.seconds;
  };
  std::vector<double> session_cost;  ///< set-up + session + verification
  const auto timed_session = [&](std::vector<Recorder>* tracks) {
    const std::int64_t t0 = now_ns();
    Session s = run_session(options, in, tracks);
    session_cost.push_back(seconds_between(t0, now_ns()));
    out.attempted += s.attempted;
    out.failed += s.failed;
    return s;
  };

  if (!options.trace) {
    // Each timing, set-up included, is taken per session and the fastest
    // session is reported (see README.md: host contention slows whole
    // stretches of a run).
    std::vector<double> wall;
    std::vector<double> setup;
    std::vector<double> p50_us;
    std::vector<double> p99_us;
    do {
      const Session s = timed_session(nullptr);
      wall.push_back(s.wall_seconds);
      setup.push_back(s.setup_seconds);
      p50_us.push_back(quantile(s.latency_us, 0.5));
      p99_us.push_back(quantile(s.latency_us, 0.99));
    } while (!out_of_time(median(session_cost)));
    const double run_s = min_of(wall);
    out.set("run_s", run_s, "s");
    out.set("rps", static_cast<double>(kClients * kSessionQueries) / run_s,
            "1/s");
    out.set("latency_us_p50", min_of(p50_us), "us");
    out.set("latency_us_p99", min_of(p99_us), "us");
    out.set("setup_s", min_of(setup), "s");
    out.set("peak_rss_mb", peak_rss_mb(), "MB");
    std::ostringstream note;
    note << "serve_mixed: " << wall.size() << " sessions of " << kClients
         << " x " << kSessionQueries << " closed-loop queries (median session "
         << median(wall) << " s, " << in.specs.size() - kHotPool
         << " fresh instances per session)";
    out.notes.push_back(note.str());
    return out;
  }

  // Traced: alternate an untraced session (the overhead baseline) with a
  // traced one replaying the same streams.
  std::vector<Recorder> tracks;
  for (int t = 0; t < kWorld; ++t) tracks.emplace_back(t);
  std::vector<double> untraced_wall;
  std::vector<Session> traced;
  std::int32_t session = 0;
  do {
    untraced_wall.push_back(timed_session(nullptr).wall_seconds);
    for (Recorder& rec : tracks) rec.set_run(session);
    traced.push_back(timed_session(&tracks));
    ++session;
  } while (!out_of_time(median(session_cost) * 2.0));

  set_serve_metrics(traced, out);
  std::vector<double> traced_wall;
  double traced_total = 0.0;
  for (const Session& s : traced) {
    traced_wall.push_back(s.wall_seconds);
    traced_total += s.wall_seconds;
  }
  const double untraced = median(untraced_wall);
  out.set("trace.overhead_frac", (median(traced_wall) - untraced) / untraced,
          "ratio");
  out.set("trace.coverage",
          top_level_seconds(tracks) /
              (traced_total * static_cast<double>(tracks.size())),
          "ratio");
  out.notes.push_back("traced serve_mixed: " + std::to_string(traced.size()) +
                      " traced sessions");
  out.trace.push_back({"serve_mixed", std::move(tracks)});
  probe_serve_layers(options, false, out);
  probe_erosion_layers(options, true, out);
  return out;
}

void probe_serve_layers(const Options& options, bool with_session,
                        Outcome& out) {
  std::vector<Recorder> tracks;
  for (int t = 0; t < 2; ++t) tracks.emplace_back(t);
  Recorder& rec = tracks[0];
  const std::vector<core::ScheduleRequest> pool = hot_pool(options.seed);

  // opt: cold evaluation in both modes, then the cache-hit path.
  std::vector<core::ScheduleResponse> cold(pool.size());
  for (std::size_t i = 0; i < pool.size(); ++i) {
    const ScopedSpan span(rec, "opt.cold_grid", static_cast<std::int64_t>(i));
    cold[i] = opt::evaluate_schedule_request(pool[i]);
  }
  for (std::uint64_t j = 0; j < kDpProbeRequests; ++j) {
    const core::ScheduleRequest request = make_request(
        options.seed, {kFreshIndexBase + j, core::EvalMode::kExactDp});
    const ScopedSpan span(rec, "opt.cold_dp", static_cast<std::int64_t>(j));
    (void)opt::evaluate_schedule_request(request);
  }
  opt::ScheduleCache cache;
  for (const core::ScheduleRequest& request : pool)
    (void)cache.evaluate(request);
  // core: the request/response codec round trip the serve path performs.
  for (int rep = 0; rep < kProbeRepeats; ++rep) {
    for (std::size_t i = 0; i < pool.size(); ++i) {
      const auto id = static_cast<std::int64_t>(i);
      core::ScheduleResponse hit;
      {
        const ScopedSpan span(rec, "opt.cache_hit", id);
        hit = cache.evaluate(pool[i]);
      }
      core::ScheduleResponse decoded;
      {
        const ScopedSpan span(rec, "core.codec", id);
        (void)core::deserialize_request(core::serialize_request(pool[i]));
        decoded = core::deserialize_response(core::serialize_response(hit));
      }
      ++out.attempted;
      if (!core::payload_equals(decoded, cold[i]) ||
          !core::payload_equals(hit, cold[i]))
        ++out.failed;
    }
  }
  // runtime: mailbox round trips carrying the serve path's payloads.
  std::vector<std::vector<std::byte>> request_bytes;
  std::vector<std::vector<std::byte>> response_bytes;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    request_bytes.push_back(core::serialize_request(pool[i]));
    response_bytes.push_back(core::serialize_response(cold[i]));
  }
  runtime::spmd_run(2, [&](runtime::Comm& comm) {
    for (int k = 0; k < kRoundTrips; ++k) {
      const auto i = static_cast<std::size_t>(k) % pool.size();
      if (comm.rank() == 0) {
        (void)comm.recv_message(1, kTagPing);
        comm.send_bytes(1, kTagPong, response_bytes[i]);
      } else {
        const ScopedSpan span(tracks[1], "runtime.round_trip", k);
        comm.send_bytes(0, kTagPing, request_bytes[i]);
        (void)comm.recv_message(0, kTagPong);
      }
    }
  });

  out.set("opt.cold_grid_us_p50",
          median(span_durations(tracks, "opt.cold_grid", 1e6)), "us");
  out.set("opt.cold_dp_us_p50",
          median(span_durations(tracks, "opt.cold_dp", 1e6)), "us");
  out.set("opt.hit_us_p50",
          median(span_durations(tracks, "opt.cache_hit", 1e6)), "us");
  out.set("core.codec_us_p50",
          median(span_durations(tracks, "core.codec", 1e6)), "us");
  const std::vector<double> rtt =
      span_durations(tracks, "runtime.round_trip", 1e6);
  out.set("runtime.rtt_us_p50", quantile(rtt, 0.5), "us");
  out.set("runtime.rtt_us_p99", quantile(rtt, 0.99), "us");
  out.trace.push_back({"probe: opt, codec, mailbox", std::move(tracks)});

  if (with_session) {
    const Inputs in = make_inputs(options, kProbeSessionQueries);
    std::vector<Recorder> session_tracks;
    for (int t = 0; t < kWorld; ++t) session_tracks.emplace_back(t);
    const Session s = run_session(options, in, &session_tracks);
    out.attempted += s.attempted;
    out.failed += s.failed;
    set_serve_metrics({s}, out);
    out.trace.push_back({"probe: serve session", std::move(session_tracks)});
  }
}

}  // namespace perfbench
