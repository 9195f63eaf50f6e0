// Repository benchmark binary. Runs one workload from a seed, checks its
// outputs, and prints every metric by name and unit; the last line of
// stdout is the JSON result:
//
//   htapex_perfbench --workload explain_cold --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics (no tracing); --trace 1 runs
// the traced variant and reports the per-layer metrics. The exit code is
// non-zero when any correctness check failed. perfbench/run.py builds this
// binary and is the command BENCHMARK.json names.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>

#include "common/logging.h"
#include "perfbench.h"

namespace perfbench {
namespace {

struct MetricDef {
  std::string name;
  const char* unit;
};

/// The gated set: every workload reports all of these from its untraced
/// run. Order and units must match BENCHMARK.json.
const std::vector<MetricDef>& EndToEndDefs() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},        {"peak_rss_mb", "MB"},
      {"ops_per_s", "1/s"},    {"op_ms_p50", "ms"},
      {"op_ms_p90", "ms"},     {"cpu_ms_per_op", "ms"},
      {"quality_pct", "%"},
  };
  return defs;
}

/// Workload-independent names of the traced report. A layer a workload
/// does not reach reads 0 there (WORKLOADS.md lists which).
const std::vector<MetricDef>& PerLayerDefs() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"sql.bind_us", "us"},
        {"tp.plan_us", "us"},
        {"ap.plan_us", "us"},
        {"engine.latency_model_us", "us"},
        {"router.route_us", "us"},
        {"expert.analyze_us", "us"},
        {"rag.retrieve_us", "us"},
        {"llm.prompt_us", "us"},
        {"llm.generate_us", "us"},
        {"expert.grade_us", "us"},
        {"trace.coverage_pct", "%"},
        {"trace.overhead_pct", "%"},
        {"op_ms_p99", "ms"},
        {"service.hit_ms_p50", "ms"},
        {"service.miss_ms_p50", "ms"},
        {"service.cache_hit_pct", "%"},
        {"service.cache_evictions", "1/kreq"},
        {"vectordb.kb_entries", "count"},
        {"write_ms_p50", "ms"},
        {"durable.fsyncs_per_write", "count"},
        {"durable.wal_bytes_per_write", "B"},
        {"durable.recovery_ms", "ms"},
        {"tp_ms_p50", "ms"},
        {"ap_ms_p50", "ms"},
        {"engine.tp_exec_ms", "ms"},
        {"engine.ap_exec_ms", "ms"},
    };
    for (const char* engine : {"tp", "ap"}) {
      for (const char* pattern : ExecPatternNames()) {
        d.push_back({std::string("engine.") + engine + "_exec_ms." + pattern,
                     "ms"});
      }
    }
    d.push_back({"engine.tp_rows_per_result", "rows/row"});
    d.push_back({"engine.ap_rows_per_result", "rows/row"});
    d.push_back({"engine.fingerprint_us", "us"});
    for (const char* k : {"mask_cmp", "mask_and", "count_mask", "sum_i64",
                          "sum_f64", "hash_i64", "hash_f64", "hash_bytes"}) {
      d.push_back({std::string("kernels.") + k + "_per_query", "calls/query"});
    }
    return d;
  }();
  return defs;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload explain_cold|serve_feedback|exec_mix "
               "--seed N --seconds S --trace 0|1 [--work-dir DIR] "
               "[--commit ID]\n",
               argv0);
  return 2;
}

void PrintMetric(const Metric& m, const char* tag) {
  std::printf("%s %-36s %.6g %s\n", tag, m.name.c_str(), m.value,
              m.unit.c_str());
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      options.trace = std::strcmp(value, "0") != 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else if (flag == "--commit") {
      options.commit = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0.0) return Usage(argv[0]);

  htapex::SetGlobalLogLevel(htapex::LogLevel::kWarning);
  PrintEnvironment(options);
  std::fflush(stdout);

  RunResult result;
  if (options.workload == "explain_cold") {
    result = RunExplainCold(options);
  } else if (options.workload == "serve_feedback") {
    result = RunServeFeedback(options);
  } else if (options.workload == "exec_mix") {
    result = RunExecMix(options);
  } else {
    return Usage(argv[0]);
  }
  if (result.attempted == 0) result.Fail("no operation completed");
  if (result.failed > 0) {
    result.Fail(std::to_string(result.failed) + " of " +
                std::to_string(result.attempted) + " ops failed");
  }

  for (const Metric& m : result.info) PrintMetric(m, "info  ");
  const std::vector<MetricDef>& defs =
      options.trace ? PerLayerDefs() : EndToEndDefs();
  const std::vector<Metric>& measured =
      options.trace ? result.per_layer : result.end_to_end;
  std::map<std::string, double> values;
  for (const Metric& m : measured) values[m.name] = m.value;
  std::vector<Metric> reported;
  for (const MetricDef& def : defs) {
    auto it = values.find(def.name);
    if (it == values.end() && !options.trace) {
      result.Fail("end-to-end metric " + def.name + " was not measured");
    }
    reported.push_back(
        {def.name, it == values.end() ? 0.0 : it->second, def.unit});
    PrintMetric(reported.back(), "metric");
  }
  for (const std::string& failure : result.check_failures) {
    std::printf("check FAILED: %s\n", failure.c_str());
  }

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              result.correct() ? "true" : "false",
              static_cast<unsigned long long>(result.attempted),
              static_cast<unsigned long long>(result.failed));
  for (size_t i = 0; i < reported.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", reported[i].name.c_str(),
                reported[i].value, reported[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
  return result.correct() ? 0 : 1;
}
