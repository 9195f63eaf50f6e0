// Failover benchmark + self-checks for the sharded explain tier
// (src/service/sharded_service.h): kill-during-load resilience with the
// zero-lost-corrections replication guarantee.
//
// Methodology (EXPERIMENTS.md S7): a single dispatcher replays an
// open-loop arrival schedule — the sim clock advances on a fixed cadence
// (one health-monitor beat every kBeatEvery arrivals) regardless of how
// requests fare, so the kill/recovery timeline is pinned to the arrival
// schedule, not to completions. Every third request's result is fed back
// through IncorporateCorrection; every OK ack goes into a shadow multiset
// of sqls that may never be lost. Mid-load the current owner of a probe
// key is killed (crash semantics: backlog failed, no snapshot); the health
// monitor auto-revives it from its own disk and probation probes re-admit
// it. After the load, one more shard is killed WITH its disk wiped and
// rebuilt purely from the replica records its peers hold.
//
// The acceptance bar this file enforces (exit code != 0 on violation):
//   1. Zero lost corrections: after all revivals, the union of every
//      shard's KB equals the shadow exactly — nothing acked is missing
//      and nothing unacked was resurrected, across BOTH a local-disk
//      recovery and a lose-disk replica rebuild.
//   2. Bounded recovery: the killed shard is back to full capacity within
//      probation_after_beats + probation_successes sim-clock beats.
//   3. Merged-histogram p99: the tier-wide end-to-end p99 (bucket-merged
//      across shards and incarnations, no sample loss) of the kill run
//      stays within kP99Factor of the no-fault run.
//   4. Determinism: two same-seed runs produce identical failover event
//      sequences.
//
// `--self-check` runs the reduced CI workload; without it a larger load
// runs and the same checks still gate the exit code.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "obs/exposition.h"
#include "service/sharded_service.h"

namespace {

using namespace htapex;
using namespace htapex::bench;

constexpr int kShards = 4;
constexpr int kBeatEvery = 5;       // arrivals per health-monitor beat
constexpr int kCorrectEvery = 3;    // arrivals per expert correction
constexpr double kP99Factor = 5.0;  // fault-run p99 gate vs clean run
constexpr double kP99SlackMs = 5.0; // absolute slack for micro latencies

// Benches do not link gtest; mirror its TempDir convention.
std::string testing_dir() {
  const char* t = std::getenv("TMPDIR");
  std::string dir = (t != nullptr && *t != '\0') ? t : "/tmp";
  if (dir.back() != '/') dir += '/';
  return dir + "htapex_bench_failover_";
}

/// Non-expired sqls across every live shard KB.
std::multiset<std::string> TierKbSqls(const ShardedExplainService& tier) {
  std::multiset<std::string> sqls;
  for (int s = 0; s < tier.num_shards(); ++s) {
    const KnowledgeBase* kb = tier.shard_kb(s);
    if (kb == nullptr) continue;
    for (int id = 0; id < static_cast<int>(kb->total_entries()); ++id) {
      if (kb->IsExpired(id)) continue;
      const KbEntry* e = kb->RawGet(id);
      if (e != nullptr) sqls.insert(e->sql);
    }
  }
  return sqls;
}

struct RunResult {
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t acked = 0;
  uint64_t lost = 0;     // shadow sqls missing after all revivals
  uint64_t phantom = 0;  // kb sqls never acked
  double p99_ms = 0.0;
  uint64_t recovery_beats = 0;
  FailoverStats failover;
  std::vector<std::string> events;
  bool init_ok = false;
};

/// One full open-loop run. `inject_kill` arms the mid-load crash and the
/// post-load lose-disk rebuild; a clean run skips both (the p99 baseline).
RunResult RunOnce(Fixture* fixture, const std::vector<std::string>& sqls,
                  bool inject_kill, const std::string& dir) {
  std::filesystem::remove_all(dir);
  RunResult out;
  ShardedServiceConfig config;
  config.num_shards = kShards;
  config.data_dir = dir;
  config.probation_after_beats = 2;
  config.probation_successes = 2;
  // The big mid-load crash is scripted; the kill runs additionally arm a
  // low-rate shard.kill draw so some requests lose their shard MID-dispatch
  // and fail over with their remaining budget (deterministic per key).
  config.faults = inject_kill ? "shard.kill:p=0.02" : "off";
  config.shard.num_workers = 1;

  ExplainerConfig ec;
  ec.faults = "off";  // shard pipelines run clean; only tier points fire
  ShardedExplainService tier(fixture->system.get(), ec, config);
  Status st = tier.InitFrom(fixture->explainer->router());
  if (!st.ok()) {
    std::fprintf(stderr, "tier init failed: %s\n", st.ToString().c_str());
    return out;
  }
  st = tier.BuildDefaultKnowledgeBase();
  if (!st.ok()) {
    std::fprintf(stderr, "kb build failed: %s\n", st.ToString().c_str());
    return out;
  }
  out.init_ok = true;

  std::multiset<std::string> shadow = TierKbSqls(tier);
  const size_t kill_at = sqls.size() / 3;

  for (size_t i = 0; i < sqls.size(); ++i) {
    if (inject_kill && i == kill_at) {
      // Kill whichever shard owns this arrival's key: guaranteed to be a
      // shard with load on it, and a pure function of the workload.
      auto key = tier.KeyForSql(sqls[i]);
      if (key.ok()) tier.KillShard(tier.router()->Owner(*key));
    }
    auto r = tier.Explain(sqls[i]);
    if (!r.ok()) {
      ++out.failed;
    } else {
      ++out.completed;
      if (i % kCorrectEvery == 0) {
        Status ack = tier.IncorporateCorrection(*r);
        if (ack.ok()) {
          ++out.acked;
          shadow.insert(r->result.outcome.sql);
        }
      }
    }
    if (i % kBeatEvery == kBeatEvery - 1) tier.Heartbeat();
  }
  // Drain the health monitor until the ring is whole again.
  for (int beat = 0; beat < 32 && tier.router()->NumLive() < kShards;
       ++beat) {
    tier.Heartbeat();
  }

  if (inject_kill) {
    // Lose-disk drill: crash one more shard, wipe its directory, rebuild
    // it purely from the replica records its peers hold, re-admit it.
    auto key = tier.KeyForSql(sqls[0]);
    if (key.ok()) {
      int victim = tier.router()->Owner(*key);
      tier.KillShard(victim);
      Status revived = tier.ReviveShard(victim, /*lose_disk=*/true);
      if (!revived.ok()) {
        std::fprintf(stderr, "lose-disk revive failed: %s\n",
                     revived.ToString().c_str());
        out.init_ok = false;
      }
    }
    for (int beat = 0; beat < 32 && tier.router()->NumLive() < kShards;
         ++beat) {
      tier.Heartbeat();
    }
  }

  std::multiset<std::string> recovered = TierKbSqls(tier);
  for (const std::string& sql : shadow) {
    if (recovered.count(sql) < shadow.count(sql)) ++out.lost;
  }
  for (const std::string& sql : recovered) {
    if (shadow.count(sql) < recovered.count(sql)) ++out.phantom;
  }

  ShardedServiceStats stats = tier.Stats();
  out.p99_ms = stats.merged.end_to_end.p99_ms;
  out.recovery_beats = stats.last_recovery_beats;
  out.failover = stats.failover;
  out.events = tier.EventLog();

  // The merged exposition must still round-trip with shards having died
  // and come back.
  auto parsed = ParseExposition(tier.ExpositionText());
  if (!parsed.ok() || parsed->empty()) {
    std::fprintf(stderr, "merged exposition failed to round-trip: %s\n",
                 parsed.ok() ? "empty" : parsed.status().ToString().c_str());
    out.init_ok = false;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  bool self_check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--self-check") == 0) self_check = true;
  }
  const int requests = self_check ? 90 : 240;

  ExplainerConfig config;
  config.faults = "off";
  std::unique_ptr<Fixture> fixture = Fixture::Make(std::move(config));
  if (fixture == nullptr) return 1;

  std::vector<std::string> sqls;
  for (const GeneratedQuery& q :
       TestWorkload(*fixture->system, requests, 0xFA17)) {
    sqls.push_back(q.sql);
  }

  std::printf("--- failover: %d shards, %zu open-loop arrivals, beat every "
              "%d ---\n",
              kShards, sqls.size(), kBeatEvery);

  std::string base = testing_dir();
  RunResult clean = RunOnce(fixture.get(), sqls, false, base + "clean");
  RunResult fault = RunOnce(fixture.get(), sqls, true, base + "fault");
  RunResult fault2 = RunOnce(fixture.get(), sqls, true, base + "fault2");

  bool ok = clean.init_ok && fault.init_ok && fault2.init_ok;

  std::printf("%-10s %9s %6s %6s %5s %8s %9s %8s %9s\n", "run", "completed",
              "failed", "acked", "lost", "phantom", "p99(ms)", "recov",
              "failovers");
  auto row = [](const char* name, const RunResult& r) {
    std::printf("%-10s %9llu %6llu %6llu %5llu %8llu %8.3f %8llu %9llu\n",
                name, static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.acked),
                static_cast<unsigned long long>(r.lost),
                static_cast<unsigned long long>(r.phantom), r.p99_ms,
                static_cast<unsigned long long>(r.recovery_beats),
                static_cast<unsigned long long>(r.failover.failovers));
  };
  row("no-fault", clean);
  row("kill-load", fault);
  row("kill-rep", fault2);

  // 1. Zero lost corrections (and no phantom resurrections).
  if (fault.lost != 0 || fault.phantom != 0) {
    std::fprintf(stderr,
                 "FAIL: corrections lost=%llu phantom=%llu after revival\n",
                 static_cast<unsigned long long>(fault.lost),
                 static_cast<unsigned long long>(fault.phantom));
    ok = false;
  }
  if (fault.acked == 0 || fault.failover.kills < 2 ||
      fault.failover.replications == 0) {
    std::fprintf(stderr, "FAIL: scenario did not exercise the guarantee "
                         "(acked=%llu kills=%llu replications=%llu)\n",
                 static_cast<unsigned long long>(fault.acked),
                 static_cast<unsigned long long>(fault.failover.kills),
                 static_cast<unsigned long long>(fault.failover.replications));
    ok = false;
  }

  // 2. Bounded recovery: dead -> probation (probation_after_beats) ->
  //    healthy (probation_successes probes), plus one beat of slack.
  const uint64_t bound = 2 + 2 + 1;
  if (fault.failover.readmissions == 0 || fault.recovery_beats == 0 ||
      fault.recovery_beats > bound) {
    std::fprintf(stderr,
                 "FAIL: recovery took %llu beats (bound %llu, "
                 "readmissions=%llu)\n",
                 static_cast<unsigned long long>(fault.recovery_beats),
                 static_cast<unsigned long long>(bound),
                 static_cast<unsigned long long>(fault.failover.readmissions));
    ok = false;
  }

  // 3. Merged p99 within a gated factor of the clean run (with absolute
  //    slack: these are sub-millisecond plan-only latencies).
  double gate = clean.p99_ms * kP99Factor + kP99SlackMs;
  if (fault.p99_ms > gate) {
    std::fprintf(stderr, "FAIL: kill-run p99 %.3fms exceeds gate %.3fms "
                         "(clean %.3fms)\n",
                 fault.p99_ms, gate, clean.p99_ms);
    ok = false;
  }

  // 4. Same seed, same schedule => identical failover event sequence.
  if (fault.events != fault2.events) {
    std::fprintf(stderr,
                 "FAIL: event logs diverged across same-seed runs "
                 "(%zu vs %zu events)\n",
                 fault.events.size(), fault2.events.size());
    for (size_t i = 0;
         i < std::max(fault.events.size(), fault2.events.size()); ++i) {
      std::fprintf(stderr, "  [%zu] %s | %s\n", i,
                   i < fault.events.size() ? fault.events[i].c_str() : "-",
                   i < fault2.events.size() ? fault2.events[i].c_str() : "-");
    }
    ok = false;
  }
  if (clean.failed != 0) {
    std::fprintf(stderr, "FAIL: %llu requests failed with no fault armed\n",
                 static_cast<unsigned long long>(clean.failed));
    ok = false;
  }

  std::filesystem::remove_all(base + "clean");
  std::filesystem::remove_all(base + "fault");
  std::filesystem::remove_all(base + "fault2");

  if (ok) {
    std::printf("acceptance: zero lost corrections (local + lose-disk), "
                "recovery <= %llu beats, p99 within %.1fx, deterministic "
                "events — PASS\n",
                static_cast<unsigned long long>(bound), kP99Factor);
  }
  return ok ? 0 : 1;
}
