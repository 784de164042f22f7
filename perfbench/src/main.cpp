// perfbench — the delta-server benchmark driver.
//
//   perfbench --workload table2|pool|churn --seed N --seconds S --trace 0|1
//             [--layer-table PATH]
//
// Prints information lines, then as its last stdout line one JSON object:
// {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// --trace 0 reports the end-to-end metrics; --trace 1 runs the same workload
// with the server's spans and lock profiling on and reports the per-layer
// metrics (and writes the per-layer table to --layer-table, if given).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "alloc_hook.hpp"
#include "common.hpp"
#include "workloads.hpp"

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define PERFBENCH_SANITIZED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
#define PERFBENCH_SANITIZED 1
#endif
#endif

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Args;
using perfbench::Outcome;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload table2|pool|churn --seed N "
               "--seconds S --trace 0|1 [--layer-table PATH]\n",
               why);
  std::exit(2);
}

std::string json_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string layer_table_path;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') usage("--seed takes a whole number");
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(args.seconds > 0) || args.seconds > 600) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--layer-table") {
      layer_table_path = value;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");

#if defined(PERFBENCH_SANITIZED)
  std::fprintf(stderr, "perfbench: refusing to report timings from a sanitizer build\n");
  return 3;
#endif
#if !defined(__OPTIMIZE__)
  std::fprintf(stderr, "perfbench: refusing to report timings from an unoptimized build\n");
  return 3;
#endif
  if (!cbde::bench::alloc_hook_active()) {
    std::fprintf(stderr, "perfbench: allocation-counting hook not linked\n");
    return 3;
  }

  Outcome out;
  try {
    if (args.workload == "table2") {
      out = perfbench::run_table2(args);
    } else if (args.workload == "pool") {
      out = perfbench::run_pool(args);
    } else if (args.workload == "churn") {
      out = perfbench::run_churn(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    // A workload that cannot finish prints no result.
    std::fprintf(stderr, "perfbench: %s aborted: %s\n", args.workload.c_str(), e.what());
    return 1;
  }

  std::printf("host: cores=%u build=%s sanitizer=none workload=%s seed=%llu trace=%d\n",
              std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
              args.workload.c_str(), static_cast<unsigned long long>(args.seed),
              args.trace ? 1 : 0);
  for (const auto& line : out.notes) std::printf("%s\n", line.c_str());
  if (args.trace) {
    std::printf("%s", out.layer_table.c_str());
    if (!layer_table_path.empty()) {
      std::ofstream file(layer_table_path);
      file << "workload=" << args.workload << " seed=" << args.seed << "\n"
           << out.layer_table;
      if (!file) std::fprintf(stderr, "perfbench: cannot write %s\n", layer_table_path.c_str());
    }
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: metric %s is not finite\n", m.name.c_str());
      return 1;
    }
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + json_number(m.value) + ", \"unit\": \"" +
            m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return 0;
}
