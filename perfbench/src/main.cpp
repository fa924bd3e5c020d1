// perfbench: the framework's end-to-end and per-layer benchmark.
//
//   perfbench --workload fleet-quiet|serve-faults|decide-1k --seed N
//             --seconds S --trace 0|1
//
// Prints report lines, then as its last line one JSON object:
// {"correct": bool, "attempted": n, "failed": n, "metrics": {name: {"value",
// "unit"}}}. --trace 0 reports the end-to-end metrics of untraced passes;
// --trace 1 reports the per-layer metrics of a traced pass.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "util/logging.h"
#include "workloads.h"

namespace {

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "fleet-quiet|serve-faults|decide-1k --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + '"';
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::Options options;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        workload = value;
      } else if (flag == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        options.seconds = std::stod(value);
        have_seconds = options.seconds > 0.0 && std::isfinite(options.seconds);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
        have_trace = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace)
    usage("--seed, --seconds (> 0) and --trace are required");

  // Library warnings (pre-flight rejections, vetoes) are part of the
  // measured behaviour, not of the report.
  dif::util::Logger::instance().set_level(dif::util::LogLevel::kError);

  perfbench::Outcome out;
  try {
    if (workload == "fleet-quiet")
      out = perfbench::run_fleet_quiet(options);
    else if (workload == "serve-faults")
      out = perfbench::run_serve_faults(options);
    else if (workload == "decide-1k")
      out = perfbench::run_decide_1k(options);
    else
      usage(("unknown workload '" + workload + "'").c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s failed: %s\n", workload.c_str(),
                 e.what());
    return 1;
  }

  for (const std::string& note : out.notes)
    std::printf("%s: %s\n", workload.c_str(), note.c_str());
  for (const std::string& problem : out.problems)
    std::printf("%s: CHECK FAILED: %s\n", workload.c_str(), problem.c_str());
  for (const perfbench::Metric& m : out.metrics)
    std::printf("%s: %-32s %18.6f %s\n", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());

  std::string json = "{\"correct\": ";
  json += out.problems.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof value, "%.17g", out.metrics[i].value);
    if (i > 0) json += ", ";
    json += json_string(out.metrics[i].name) + ": {\"value\": " + value +
            ", \"unit\": " + json_string(out.metrics[i].unit) + "}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
