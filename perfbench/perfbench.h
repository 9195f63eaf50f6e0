// Shared pieces of the repository benchmark: run options, the metric
// record every workload fills, the in-memory span recorder of the traced
// run, and small measurement helpers. WORKLOADS.md describes the workloads
// and what each metric means.
#ifndef HTAPEX_PERFBENCH_PERFBENCH_H_
#define HTAPEX_PERFBENCH_PERFBENCH_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory inside the checkout (WAL files, span dumps).
  std::string work_dir = ".bench_build/run";
  std::string commit = "unknown";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run produced. `end_to_end` is filled by the untraced
/// run and `per_layer` by the traced one; `info` holds figures that are
/// printed with their unit but are not part of the gated result.
struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<Metric> info;

  void Fail(std::string what) { check_failures.push_back(std::move(what)); }
  bool correct() const { return check_failures.empty(); }
};

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double MillisSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Linear-interpolated percentile (q in [0, 1]) of `v`; 0 for empty input.
double Percentile(std::vector<double> v, double q);
double Mean(const std::vector<double>& v);
double Median(std::vector<double> v);
/// Process CPU time, all threads, user + system, in seconds.
double ProcessCpuSeconds();
/// Peak resident set size of this process in MB (VmHWM).
double PeakRssMb();

/// Splitmix-style mix of a seed and a stream tag; every input the
/// workloads generate derives its own seed this way from --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t tag);

/// Fixed reference work, timed between ops, that tracks how fast this
/// machine runs ordinary single-threaded code at the moment. A shared VM's
/// speed drifts by tens of percent over tens of seconds, for CPU time as
/// much as for wall time; scaling a run's time figures by the probe's
/// slowdown takes that drift out while the program's own speed still
/// shows (the probe is the benchmark's code, not the program's).
class SpeedProbe {
 public:
  /// Times one probe (~0.1 ms of warm, L1-resident hashing and sorting).
  void Sample();
  /// Samples when at least 20 ms passed since the last sample.
  void MaybeSample();
  /// Median probe time over the reference probe time: 1 on a machine as
  /// fast as the reference state, 1.3 when everything runs 30% longer.
  double Slowdown() const;
  /// Wall seconds spent probing so far.
  double spent_s() const { return spent_s_; }

 private:
  std::vector<double> probe_us_;
  double spent_s_ = 0.0;
  Clock::time_point last_ = Clock::now();
  uint64_t sink_ = 0;
};

/// Adds the end-to-end time metrics, scaled to the reference machine speed,
/// and the unscaled values as info: setup_s from the set-up times and the
/// probes taken right after them, the rest from a timed phase of
/// `op_ms.size()` ops that took `wall_s` wall and `cpu_s` process CPU and
/// the probes taken between those ops.
void AddTimeMetrics(const std::vector<double>& setup_s,
                    const SpeedProbe& setup_probe,
                    const std::vector<double>& op_ms, double wall_s,
                    double cpu_s, const SpeedProbe& probe, RunResult* result);

/// Prints the environment record line (seed, CPU, measured parallelism,
/// kernel backend, build type, commit, fault pinning).
void PrintEnvironment(const Options& options);

/// In-memory span log of the traced run. Spans carry name, start, end,
/// parent span and request id; nothing is written until Dump().
class SpanLog {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;  // index into spans(), -1 for a request root
    uint64_t request;
  };

  /// Opens a span now; returns its index. `parent` -1 makes a root.
  int Begin(const char* name, int parent, uint64_t request);
  void End(int span);
  /// Records an already-measured interval.
  int Add(const char* name, int64_t start_ns, int64_t end_ns, int parent,
          uint64_t request);

  /// Mean self time (duration minus the time child spans cover) of the
  /// spans named `name`, in microseconds; 0 when there are none.
  double MeanSelfMicros(const std::string& name) const;
  /// Share (percent) of the time of root spans named `root` that their
  /// child spans cover.
  double CoveragePct(const std::string& root) const;
  /// Writes the spans as JSON lines to `path`.
  bool Dump(const std::string& path) const;

 private:
  static int64_t NowNs();
  std::vector<int64_t> ChildCoverNs() const;
  std::vector<Span> spans_;
};

/// `n` distinct SQL strings from QueryGenerator::GenerateMix (the paper's
/// pattern mix) at statistics scale `stats_sf`.
std::vector<std::string> DistinctMix(double stats_sf, uint64_t seed, size_t n);

/// The 11 query patterns exec_mix schedules, by QueryPatternName.
const std::vector<const char*>& ExecPatternNames();

RunResult RunExplainCold(const Options& options);
RunResult RunServeFeedback(const Options& options);
RunResult RunExecMix(const Options& options);

}  // namespace perfbench

#endif  // HTAPEX_PERFBENCH_PERFBENCH_H_
