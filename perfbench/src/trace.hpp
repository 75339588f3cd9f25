// Span recording for the traced benchmark runs, plus the clocks and process
// probes every measurement uses.
//
// A span covers one call into a library layer, made from benchmark code. Its
// name is "<layer>.<call>"; the layer part (core, bsp, lb, erosion, runtime,
// opt, serve) is what per-layer self time and shares are aggregated by.
// Spans live in memory, one Recorder per thread (a "track"), and are written
// out as Chrome trace-event JSON when the run ends.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (steady_clock).
[[nodiscard]] std::int64_t now_ns();
[[nodiscard]] double seconds_between(std::int64_t begin_ns,
                                     std::int64_t end_ns);
[[nodiscard]] double process_cpu_seconds();
[[nodiscard]] double thread_cpu_seconds();
/// Peak resident set of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

struct Span {
  const char* name = "";   ///< string literal, "<layer>.<call>"
  std::int64_t id = 0;     ///< iteration (erosion) or request ordinal (serve)
  std::int32_t run = 0;    ///< method run or serve session ordinal
  std::int32_t parent = -1;  ///< index into the same track, -1 = top level
  std::int64_t begin_ns = 0;
  std::int64_t end_ns = 0;
};

/// The spans of one thread. Not thread-safe: each thread owns its own.
/// A disabled recorder keeps nothing, for untraced passes of shared code.
class Recorder {
 public:
  explicit Recorder(int track, bool enabled = true)
      : track_(track), enabled_(enabled) {}

  [[nodiscard]] int track() const noexcept { return track_; }
  void set_run(std::int32_t run) noexcept { run_ = run; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  /// Opens a span whose parent is the innermost span still open; returns
  /// its index, or -1 when disabled.
  int begin(const char* name, std::int64_t id);
  void end(int index);

 private:
  int track_;
  bool enabled_;
  std::int32_t run_ = 0;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

class ScopedSpan {
 public:
  ScopedSpan(Recorder& recorder, const char* name, std::int64_t id)
      : recorder_(recorder), index_(recorder.begin(name, id)) {}
  ~ScopedSpan() { recorder_.end(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Recorder& recorder_;
  int index_;
};

/// Durations (in `scale` units per second) of every span named `name`.
[[nodiscard]] std::vector<double> span_durations(
    const std::vector<Recorder>& tracks, std::string_view name,
    double scale);
/// Σ self time (duration minus direct children) of the spans whose layer
/// is `layer`, or whose full name is `layer` when it contains a '.'.
[[nodiscard]] double self_seconds(const std::vector<Recorder>& tracks,
                                  std::string_view layer);
/// Σ duration of the top-level spans.
[[nodiscard]] double top_level_seconds(const std::vector<Recorder>& tracks);

/// Linear-interpolation quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] inline double median(std::vector<double> xs) {
  return quantile(std::move(xs), 0.5);
}
[[nodiscard]] inline double min_of(std::vector<double> xs) {
  return quantile(std::move(xs), 0.0);
}

/// One process row of the Chrome trace: a label and its thread tracks.
struct TraceGroup {
  std::string label;
  std::vector<Recorder> tracks;
};

/// Writes the groups as Chrome trace-event JSON ("X" events, µs), with
/// `metadata_json` (a JSON object) under "otherData". Throws on I/O error.
void write_chrome_trace(const std::string& path,
                        const std::vector<TraceGroup>& groups,
                        const std::string& metadata_json);

}  // namespace perfbench
