#include "trace.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <fstream>
#include <stdexcept>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double seconds_between(std::int64_t begin_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - begin_ns) * 1e-9;
}

namespace {

double cpu_clock_seconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0)
    throw std::runtime_error("clock_gettime failed on a CPU-time clock");
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double process_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_PROCESS_CPUTIME_ID);
}

double thread_cpu_seconds() {
  return cpu_clock_seconds(CLOCK_THREAD_CPUTIME_ID);
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0)
    throw std::runtime_error("getrusage failed");
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Recorder::begin(const char* name, std::int64_t id) {
  if (!enabled_) return -1;
  Span span;
  span.name = name;
  span.id = id;
  span.run = run_;
  span.parent = open_.empty() ? -1 : open_.back();
  span.begin_ns = now_ns();
  spans_.push_back(span);
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Recorder::end(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::vector<double> span_durations(const std::vector<Recorder>& tracks,
                                   std::string_view name, double scale) {
  std::vector<double> out;
  for (const Recorder& track : tracks)
    for (const Span& span : track.spans())
      if (name == span.name)
        out.push_back(seconds_between(span.begin_ns, span.end_ns) * scale);
  return out;
}

namespace {

bool in_layer(std::string_view name, std::string_view layer) {
  if (layer.find('.') != std::string_view::npos) return name == layer;
  return name.size() > layer.size() && name.substr(0, layer.size()) == layer &&
         name[layer.size()] == '.';
}

}  // namespace

double self_seconds(const std::vector<Recorder>& tracks,
                    std::string_view layer) {
  double total = 0.0;
  for (const Recorder& track : tracks) {
    const auto& spans = track.spans();
    std::vector<double> child_seconds(spans.size(), 0.0);
    for (const Span& span : spans)
      if (span.parent >= 0)
        child_seconds[static_cast<std::size_t>(span.parent)] +=
            seconds_between(span.begin_ns, span.end_ns);
    for (std::size_t i = 0; i < spans.size(); ++i)
      if (in_layer(spans[i].name, layer))
        total += seconds_between(spans[i].begin_ns, spans[i].end_ns) -
                 child_seconds[i];
  }
  return total;
}

double top_level_seconds(const std::vector<Recorder>& tracks) {
  double total = 0.0;
  for (const Recorder& track : tracks)
    for (const Span& span : track.spans())
      if (span.parent < 0) total += seconds_between(span.begin_ns, span.end_ns);
  return total;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return xs[lo] + (xs[hi] - xs[lo]) * frac;
}

void write_chrome_trace(const std::string& path,
                        const std::vector<TraceGroup>& groups,
                        const std::string& metadata_json) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open trace file " + path);
  std::int64_t origin = INT64_MAX;
  for (const TraceGroup& group : groups)
    for (const Recorder& track : group.tracks)
      for (const Span& span : track.spans())
        origin = std::min(origin, span.begin_ns);
  if (origin == INT64_MAX) origin = 0;

  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
      << ",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&] {
    if (!first) out << ",\n";
    first = false;
  };
  out.setf(std::ios::fixed);
  out.precision(3);
  for (std::size_t pid = 0; pid < groups.size(); ++pid) {
    const TraceGroup& group = groups[pid];
    sep();
    out << "{\"ph\":\"M\",\"name\":\"process_name\",\"pid\":" << pid
        << ",\"args\":{\"name\":\"" << group.label << "\"}}";
    for (const Recorder& track : group.tracks) {
      sep();
      out << "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":" << pid
          << ",\"tid\":" << track.track() << ",\"args\":{\"name\":\"track "
          << track.track() << "\"}}";
      for (const Span& span : track.spans()) {
        const std::string_view name(span.name);
        const std::string_view layer = name.substr(0, name.find('.'));
        sep();
        out << "{\"ph\":\"X\",\"name\":\"" << name << "\",\"cat\":\"" << layer
            << "\",\"pid\":" << pid << ",\"tid\":" << track.track()
            << ",\"ts\":" << static_cast<double>(span.begin_ns - origin) * 1e-3
            << ",\"dur\":"
            << static_cast<double>(span.end_ns - span.begin_ns) * 1e-3
            << ",\"args\":{\"id\":" << span.id << ",\"run\":" << span.run
            << ",\"parent\":" << span.parent << "}}";
      }
    }
  }
  out << "]}\n";
  if (!out) throw std::runtime_error("failed writing trace file " + path);
}

}  // namespace perfbench
