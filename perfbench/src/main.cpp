// perfbench — the repository benchmark binary. Usually started through
// perfbench/run.py, which builds it; see perfbench/README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out FILE] [--reference-seed <n>]
//
// Prints summary lines, then one JSON object as the last line of stdout:
// {"correct", "attempted", "failed", "metrics", "stamp"}. Exits 1 when any
// checked output was wrong, 2 on a usage error or a build that must not
// report timings.
#include <cmath>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "workloads.hpp"

namespace {

using namespace perfbench;

const char* const kWorkloads[] = {"erosion_pool4", "erosion_ranks4",
                                  "serve_mixed"};

bool known_workload(const std::string& name) {
  for (const char* w : kWorkloads)
    if (name == w) return true;
  return false;
}

/// Why this build must not report timings, or "" when it may.
std::string timing_refusal() {
#if !defined(__OPTIMIZE__)
  return "the benchmark binary was built without optimization";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the benchmark binary was built with a sanitizer";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  return "the benchmark binary was built with a sanitizer";
#endif
#endif
  if (PERFBENCH_LIBRARY_SANITIZED) return "the libraries carry sanitizers";
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  if (build_type != "Release" && build_type != "RelWithDebInfo")
    return "build type '" + build_type + "' is not an optimized build";
  return "";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
      out += ch;
    } else if (static_cast<unsigned char>(ch) < 0x20) {
      out += ' ';
    } else {
      out += ch;
    }
  }
  return out;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  return "unknown";
}

std::string stamp_json(const Options& o) {
  std::ostringstream s;
  s << "{\"workload\":\"" << o.workload << "\",\"seed\":" << o.seed
    << ",\"reference_seed\":" << o.reference_seed
    << ",\"seconds\":" << o.seconds << ",\"trace\":" << (o.trace ? 1 : 0)
    << ",\"compiler\":\""
    << json_escape(PERFBENCH_COMPILER) << "\",\"build_type\":\""
    << PERFBENCH_BUILD_TYPE << "\",\"cxx_flags\":\""
    << json_escape(PERFBENCH_CXX_FLAGS)
    << "\",\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"cpu_model\":\"" << json_escape(cpu_model()) << "\"}";
  return s.str();
}

Options parse(int argc, char** argv, std::string& trace_out) {
  Options o;
  bool have_reference = false;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
    const std::string value = argv[++i];
    std::size_t used = 0;
    if (flag == "--workload") {
      o.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      o.seed = std::stoull(value, &used);
      have[1] = true;
    } else if (flag == "--seconds") {
      o.seconds = std::stod(value, &used);
      have[2] = true;
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw std::invalid_argument("--trace takes 0 or 1");
      o.trace = value == "1";
      have[3] = true;
    } else if (flag == "--trace-out") {
      trace_out = value;
    } else if (flag == "--reference-seed") {
      o.reference_seed = std::stoull(value, &used);
      have_reference = true;
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
    if (used != 0 && used != value.size())
      throw std::invalid_argument("malformed value for " + flag);
  }
  for (const bool h : have)
    if (!h)
      throw std::invalid_argument(
          "--workload, --seed, --seconds and --trace are required");
  if (!known_workload(o.workload))
    throw std::invalid_argument("unknown workload " + o.workload);
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  if (!have_reference) o.reference_seed = o.seed;
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string trace_out;
  try {
    options = parse(argc, argv, trace_out);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 2;
  }
  const std::string refusal = timing_refusal();
  if (!refusal.empty()) {
    std::cerr << "perfbench: refusing to report timings: " << refusal << "\n";
    return 2;
  }

  Outcome outcome;
  try {
    if (options.workload == "serve_mixed")
      outcome = run_serve(options);
    else if (options.workload == "erosion_pool4")
      outcome = run_erosion(options, Substrate::kPool4);
    else
      outcome = run_erosion(options, Substrate::kRanks4);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " failed: " << e.what()
              << "\n";
    return 3;
  }

  const std::string stamp = stamp_json(options);
  if (!trace_out.empty()) {
    write_chrome_trace(trace_out, outcome.trace, stamp);
    std::cout << "chrome trace: " << trace_out << "\n";
  }
  for (const std::string& note : outcome.notes) std::cout << note << "\n";
  bool finite = true;
  for (const auto& [name, metric] : outcome.metrics)
    if (!std::isfinite(metric.value)) {
      std::cout << "metric " << name << " is not finite\n";
      finite = false;
    }
  for (const std::string& check : outcome.failed_checks)
    std::cout << "check failed: " << check << "\n";
  const bool correct = outcome.failed == 0 && outcome.attempted > 0 &&
                       finite && outcome.failed_checks.empty();
  std::cout << "error_rate: " << outcome.failed << " / " << outcome.attempted
            << "\n";

  std::ostringstream result;
  result << std::setprecision(17) << "{\"correct\":"
         << (correct ? "true" : "false")
         << ",\"attempted\":" << outcome.attempted
         << ",\"failed\":" << outcome.failed << ",\"metrics\":{";
  bool first = true;
  for (const auto& [name, metric] : outcome.metrics) {
    result << (first ? "" : ",") << "\"" << name << "\":{\"value\":"
           << (std::isfinite(metric.value) ? metric.value : 0.0)
           << ",\"unit\":\"" << metric.unit << "\"}";
    first = false;
  }
  result << "},\"stamp\":" << stamp << "}";
  std::cout << result.str() << std::endl;
  return correct ? 0 : 1;
}
