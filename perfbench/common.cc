#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <thread>
#include <unordered_set>

#include "common/kernels.h"
#include "perfbench.h"
#include "workload/query_generator.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, v.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

namespace {

/// Median probe time on the reference machine state (the 4-vCPU Xeon VM
/// the bounds in BENCHMARK.json were set on), in microseconds.
constexpr double kReferenceProbeUs = 240.0;

}  // namespace

void SpeedProbe::Sample() {
  // Two passes over the same 2 KB table and 64 ints; only the second is
  // timed, so what the program left in the caches does not count.
  uint64_t table[256] = {};
  uint32_t ints[64] = {};
  double us = 0.0;
  const auto begin = Clock::now();
  for (int pass = 0; pass < 2; ++pass) {
    const auto t0 = Clock::now();
    for (uint32_t it = 0; it < 96; ++it) {
      uint64_t h = 1469598103934665603ull ^ sink_;
      for (uint32_t k = 0; k < 32; ++k) {
        h ^= 'a' + (it * 7 + k * 13) % 26;
        h *= 1099511628211ull;
      }
      size_t slot = h & 255;
      while (table[slot] != 0 && table[slot] != h) slot = (slot + 1) & 255;
      table[slot] = it % 64 == 0 ? 0 : h;
      for (uint32_t k = 0; k < 64; ++k) {
        ints[k] = static_cast<uint32_t>(h >> (k % 32)) ^ (k * 2654435761u);
      }
      std::sort(ints, ints + 64);
      sink_ += ints[7];
    }
    us = std::chrono::duration<double, std::micro>(Clock::now() - t0).count();
  }
  probe_us_.push_back(us);
  last_ = Clock::now();
  spent_s_ += std::chrono::duration<double>(last_ - begin).count();
}

void SpeedProbe::MaybeSample() {
  if (Clock::now() - last_ >= std::chrono::milliseconds(20)) Sample();
}

double SpeedProbe::Slowdown() const {
  return probe_us_.empty() ? 1.0 : Median(probe_us_) / kReferenceProbeUs;
}

void AddTimeMetrics(const std::vector<double>& setup_s,
                    const SpeedProbe& setup_probe,
                    const std::vector<double>& op_ms, double wall_s,
                    double cpu_s, const SpeedProbe& probe, RunResult* result) {
  const double ops = static_cast<double>(op_ms.size());
  const double slow = probe.Slowdown();
  const double setup = Median(setup_s);
  result->end_to_end.push_back(
      {"setup_s", setup / setup_probe.Slowdown(), "s"});
  result->info.push_back({"raw_setup_s", setup, "s"});
  const std::vector<Metric> raw = {
      {"ops_per_s", ops / wall_s, "1/s"},
      {"op_ms_p50", Percentile(op_ms, 0.5), "ms"},
      {"op_ms_p90", Percentile(op_ms, 0.9), "ms"},
      {"cpu_ms_per_op", 1000.0 * cpu_s / std::max(1.0, ops), "ms"},
  };
  for (const Metric& m : raw) {
    const bool rate = m.name == "ops_per_s";
    result->end_to_end.push_back(
        {m.name, rate ? m.value * slow : m.value / slow, m.unit});
    result->info.push_back({"raw_" + m.name, m.value, m.unit});
  }
  result->info.push_back({"machine_slowdown", slow, "x"});
  result->info.push_back(
      {"setup_machine_slowdown", setup_probe.Slowdown(), "x"});
}

uint64_t DeriveSeed(uint64_t seed, uint64_t tag) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<std::string> DistinctMix(double stats_sf, uint64_t seed,
                                     size_t n) {
  htapex::QueryGenerator gen(stats_sf, seed);
  std::unordered_set<std::string> seen;
  std::vector<std::string> out;
  // Bounded: the generator's parameter domains are far larger than any n
  // asked for here, so duplicates are rare.
  for (int round = 0; out.size() < n && round < 64; ++round) {
    for (htapex::GeneratedQuery& q : gen.GenerateMix(static_cast<int>(n))) {
      if (out.size() < n && seen.insert(q.sql).second) {
        out.push_back(std::move(q.sql));
      }
    }
  }
  return out;
}

namespace {

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) {
        size_t start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

/// Spin-loop iterations `threads` threads complete in `seconds` of wall.
uint64_t SpinIterations(int threads, double seconds) {
  std::atomic<uint64_t> total{0};
  std::vector<std::thread> pool;
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&total, deadline, t] {
      uint64_t x = 0x2545f4914f6cdd1dull + static_cast<uint64_t>(t);
      uint64_t iters = 0;
      while (Clock::now() < deadline) {
        for (int i = 0; i < 4096; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
        }
        iters += 4096;
      }
      total.fetch_add(iters + (x & 1), std::memory_order_relaxed);
    });
  }
  for (std::thread& th : pool) th.join();
  return total.load();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    if (static_cast<unsigned char>(c) >= 0x20) out.push_back(c);
  }
  return out;
}

}  // namespace

void PrintEnvironment(const Options& options) {
  const int nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  // Measured, not assumed: a shared VM can report 4 vCPUs and deliver one
  // core of throughput, which decides how any multi-threaded figure reads.
  const double one = static_cast<double>(SpinIterations(1, 0.15));
  const double all = static_cast<double>(SpinIterations(nproc, 0.15));
  const char* kernels_env = std::getenv("HTAPEX_KERNELS");
  std::printf(
      "env {\"seed\": %llu, \"cpu_model\": \"%s\", \"nproc\": %d, "
      "\"measured_parallelism\": %.2f, \"kernel_backend\": \"%s\", "
      "\"HTAPEX_KERNELS\": \"%s\", \"build_type\": \"%s\", \"commit\": "
      "\"%s\", \"faults\": \"pinned off (ExplainerConfig::faults=off)\"}\n",
      static_cast<unsigned long long>(options.seed),
      JsonEscape(CpuModel()).c_str(), nproc, one > 0 ? all / one : 0.0,
      htapex::kernels::BackendName(htapex::kernels::ActiveBackend()),
      JsonEscape(kernels_env != nullptr ? kernels_env : "").c_str(),
      PERFBENCH_BUILD_TYPE, JsonEscape(options.commit).c_str());
}

int64_t SpanLog::NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

int SpanLog::Begin(const char* name, int parent, uint64_t request) {
  int64_t now = NowNs();
  return Add(name, now, now, parent, request);
}

void SpanLog::End(int span) {
  spans_[static_cast<size_t>(span)].end_ns = NowNs();
}

int SpanLog::Add(const char* name, int64_t start_ns, int64_t end_ns,
                 int parent, uint64_t request) {
  spans_.push_back({name, start_ns, end_ns, parent, request});
  return static_cast<int>(spans_.size() - 1);
}

std::vector<int64_t> SpanLog::ChildCoverNs() const {
  // Children of one span run one after another on the thread that opened
  // the parent, so the time they cover is the sum of their durations.
  std::vector<int64_t> cover(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      cover[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  return cover;
}

double SpanLog::MeanSelfMicros(const std::string& name) const {
  std::vector<int64_t> cover = ChildCoverNs();
  double total_ns = 0.0;
  uint64_t count = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (name != spans_[i].name) continue;
    int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    total_ns += static_cast<double>(std::max<int64_t>(0, dur - cover[i]));
    ++count;
  }
  return count == 0 ? 0.0 : total_ns / 1000.0 / static_cast<double>(count);
}

double SpanLog::CoveragePct(const std::string& root) const {
  std::vector<int64_t> cover = ChildCoverNs();
  double root_ns = 0.0;
  double covered_ns = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0 || root != spans_[i].name) continue;
    int64_t dur = spans_[i].end_ns - spans_[i].start_ns;
    root_ns += static_cast<double>(dur);
    covered_ns += static_cast<double>(std::min(dur, cover[i]));
  }
  return root_ns <= 0.0 ? 0.0 : 100.0 * covered_ns / root_ns;
}

bool SpanLog::Dump(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                 "\"parent\":%d,\"request\":%llu}\n",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
