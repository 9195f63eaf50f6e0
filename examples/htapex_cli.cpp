// Interactive CLI: type SQL, get both engines' plans, modelled latencies,
// and the RAG-grounded explanation — the user-facing surface the paper's
// framework ultimately serves. Reads from stdin (one query per line,
// ';'-terminated lines also accepted), or runs a demo script with --demo.
//
// Batch serving: `htapex_cli --serve [workers]` (1-64, default 4) pushes
// every stdin line (or the demo queries, repeated, on a tty) through the
// concurrent ExplainService and prints one line per result plus the
// service stats — worker-pool throughput and cache hit rate included.
//
// Sharded serving: `htapex_cli --serve [dispatchers] --shards=N` (N 1-64)
// runs the same batch through a ShardedExplainService tier — N
// consistent-hash shards with health-checked failover
// (src/service/sharded_service.h).
// Each result line names the shard that answered and whether it failed
// over; the summary prints the bucket-merged tier stats, the failover
// counters, and the tier exposition. With --data-dir=PATH each shard
// persists under PATH/shard-<i> and expert corrections replicate to a
// successor shard before they are acknowledged. The tier-level fault
// points (shard.kill, shard.stall, replicate.drop) can be armed through
// the same --faults= spec.
//
// Self-healing model lifecycle (src/lifecycle/):
//   --lifecycle      arm the router's drift-retrain-shadow-swap-rollback
//                    loop. Interactive queries feed its execution-feedback
//                    buffer; in --serve mode every shard/service runs its
//                    own manager. With --data-dir the feedback log persists
//                    under PATH/lifecycle (per-shard under each shard dir).
//
// Commands:
//   \demo            run three showcase queries
//   \kb              list knowledge-base entries
//   \lifecycle       lifecycle stats + deterministic event log
//   \swap            force a retrain cycle now (shadow-gated hot-swap)
//   \rollback        roll back to the retained pre-swap snapshot
//   \report <sql>    full markdown report for one query
//   \trace [sql]     span tree of the last (or a fresh) request — every
//                    pipeline stage with its share of end_to_end_ms, plus
//                    retry/breaker/fallback events
//   \metrics         Prometheus-text metrics (per-span latency summaries,
//                    resilience counters); --serve prints the full service
//                    exposition after the batch
//   \q               quit
//
// Tracing:
//   --trace-log=MS   log the full span tree of any request slower than MS
//                    (slow-request log; also sets the service threshold in
//                    --serve mode)
//
// Fault injection (resilience demos / chaos drills):
//   --faults="llm.transient_error:p=0.2;llm.timeout:p=0.1,lat=500"
//   --fault-seed=1337
// activate deterministic fault points in the simulated LLM and the
// knowledge base (see src/common/fault.h for the point registry). The
// explanation pipeline degrades instead of failing: RAG -> DBG-PT
// baseline -> plan-diff report; degraded answers are tagged in the output.
// --faults=off forces a clean run even when HTAPEX_FAULTS is set.
//
// Durability (crash-safe knowledge base, see src/durable/):
//   --data-dir=PATH   persist every KB mutation to a checksummed WAL with
//                     periodic atomic snapshots under PATH. On startup, if
//                     PATH holds state the KB is recovered from it (the
//                     default curated KB is NOT rebuilt); otherwise PATH is
//                     initialized from the default KB.
//   --recover         require recovery: fail instead of initializing a
//                     fresh directory (guards against a typo'd path
//                     silently starting empty).
// Extra interactive commands with --data-dir:
//   \correct <id> <text>  replace an entry's explanation (logged + durable)
//   \expire <id>          tombstone an entry (logged + durable)
//   \snapshot             install a snapshot now and report durability stats
// An <id> is a whole decimal entry id as \kb lists it; anything else prints
// the command's usage line and changes nothing.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <future>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include <atomic>
#include <thread>

#include "core/htap_explainer.h"
#include "core/report.h"
#include "common/string_util.h"
#include "durable/durable_kb.h"
#include "lifecycle/model_lifecycle.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "service/explain_service.h"
#include "service/sharded_service.h"

namespace {

using namespace htapex;

/// Caps on --serve's worker (or dispatcher) threads and on --shards: each
/// shard runs its own worker pool, so both multiply into threads.
constexpr int kMaxServeWorkers = 64;
constexpr int kMaxShards = 64;

constexpr char kUsage[] =
    "usage: htapex_cli [--demo | --serve [WORKERS]] [--shards=N] "
    "[--data-dir=PATH [--recover]] [--lifecycle] [--faults=SPEC] "
    "[--fault-seed=N] [--trace-log=MS]";

double g_trace_log_ms = 0.0;                 // --trace-log threshold
bool g_lifecycle_enabled = false;            // --lifecycle
ModelLifecycleManager* g_lifecycle = nullptr;  // interactive-mode manager
std::shared_ptr<const Trace> g_last_trace;   // \trace without arguments
TraceMetrics g_trace_metrics;                // feeds \metrics
uint64_t g_next_trace_id = 0;

void ExplainOne(HtapExplainer* explainer, const std::string& sql) {
  auto trace = std::make_shared<Trace>(++g_next_trace_id, sql);
  auto result = explainer->Explain(sql, trace.get());
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (g_lifecycle != nullptr) {
    g_lifecycle->RecordOutcome(result->outcome.plans, result->outcome.faster);
  }
  g_trace_metrics.Record(*trace);
  if (g_trace_log_ms > 0.0 && trace->total_ms() >= g_trace_log_ms) {
    g_trace_metrics.slow_traces.Inc();
    std::printf("slow request (>= %.0f ms):\n%s\n", g_trace_log_ms,
                trace->ToString().c_str());
  }
  g_last_trace = std::move(trace);
  std::printf("TP: %-10s AP: %-10s -> %s is faster (%.1fx)\n",
              FormatMillis(result->outcome.tp_latency_ms).c_str(),
              FormatMillis(result->outcome.ap_latency_ms).c_str(),
              EngineName(result->outcome.faster), result->outcome.speedup());
  std::printf("retrieved %zu similar cases; simulated response %.1fs\n",
              result->retrieval.items.size(),
              result->end_to_end_ms() / 1000.0);
  if (result->degradation != DegradationLevel::kFull) {
    std::printf("DEGRADED (%s): %s\n",
                DegradationLevelName(result->degradation),
                result->degradation_reason.c_str());
  }
  std::printf("\n%s\n", result->generation.text.c_str());
}

/// The --serve batch: stdin lines (one query per line; ';' suffix
/// tolerated), or the demo set repeated 4x when stdin is a terminal so the
/// cache has something to hit.
std::vector<std::string> ReadServeQueries(const char* const* demo,
                                          size_t demo_count) {
  std::vector<std::string> sqls;
  if (isatty(0)) {
    for (int round = 0; round < 4; ++round) {
      for (size_t i = 0; i < demo_count; ++i) sqls.push_back(demo[i]);
    }
    return sqls;
  }
  std::string line;
  while (std::getline(std::cin, line)) {
    std::string sql(Trim(line));
    if (!sql.empty() && sql.back() == ';') sql.pop_back();
    if (!sql.empty()) sqls.push_back(std::move(sql));
  }
  return sqls;
}

/// --serve: batch mode over the concurrent service (queries from
/// ReadServeQueries).
int RunServe(HtapExplainer* explainer, DurableKnowledgeBase* durable,
             int workers, const std::string& data_dir, const char* const* demo,
             size_t demo_count) {
  ServiceConfig config;
  config.num_workers = workers;
  config.durable = durable;
  config.slow_trace_ms = g_trace_log_ms;
  if (g_lifecycle_enabled) {
    config.lifecycle.enabled = true;
    if (!data_dir.empty()) config.lifecycle.data_dir = data_dir + "/lifecycle";
  }
  ExplainService service(explainer, config);

  std::vector<std::string> sqls = ReadServeQueries(demo, demo_count);
  if (sqls.empty()) {
    std::printf("--serve: no queries on stdin\n");
    return 0;
  }

  std::printf("serving %zu queries on %d workers...\n", sqls.size(), workers);
  std::vector<std::future<Result<ExplainResult>>> futures;
  for (const std::string& sql : sqls) futures.push_back(service.Submit(sql));
  for (size_t i = 0; i < futures.size(); ++i) {
    auto result = futures[i].get();
    if (!result.ok()) {
      std::printf("[%3zu] error: %s\n", i, result.status().ToString().c_str());
      continue;
    }
    std::printf("[%3zu] %-5s %s faster  %-6s  %s  %-17s  %.60s\n", i,
                result->from_cache ? "cache" : "fresh",
                EngineName(result->outcome.faster),
                FormatMillis(result->end_to_end_ms()).c_str(),
                ExplanationGradeName(result->grade.grade),
                DegradationLevelName(result->degradation),
                result->outcome.sql.c_str());
  }
  std::printf("\n=== service stats ===\n%s\n",
              service.Stats().ToString().c_str());
  if (ModelLifecycleManager* lifecycle = service.lifecycle()) {
    std::printf("\n=== lifecycle events ===\n");
    for (const std::string& event : lifecycle->EventLog()) {
      std::printf("  %s\n", event.c_str());
    }
  }
  std::printf("\n=== metrics (Prometheus text) ===\n%s",
              service.ExpositionText().c_str());
  auto recent = service.RecentTraces();
  if (!recent.empty()) {
    std::printf("\n=== most recent trace ===\n%s\n",
                recent.front()->ToString().c_str());
  }
  return 0;
}

/// --serve --shards=N: the batch goes through the sharded tier instead of
/// one service. `dispatchers` caller threads drive the synchronous
/// Explain() front end (each shard still runs its own worker pool), with a
/// health-monitor beat woven in every few arrivals.
int RunServeSharded(const HtapSystem* system, const ExplainerConfig& ec,
                    const SmartRouter& trained, int shards, int dispatchers,
                    const std::string& data_dir, const char* const* demo,
                    size_t demo_count) {
  ShardedServiceConfig config;
  config.num_shards = shards;
  config.data_dir = data_dir;
  config.faults = ec.faults;
  config.fault_seed = ec.fault_seed;
  config.shard.slow_trace_ms = g_trace_log_ms;
  config.shard.lifecycle.enabled = g_lifecycle_enabled;
  ShardedExplainService tier(system, ec, config);
  Status st = tier.InitFrom(trained);
  if (!st.ok()) {
    std::fprintf(stderr, "tier init failed: %s\n", st.ToString().c_str());
    return 1;
  }
  // Recovered shards already carry their state; only a fresh tier gets the
  // default curated knowledge partitioned across its shards.
  if (data_dir.empty() ||
      !DurableKnowledgeBase::HasState(data_dir + "/shard-0")) {
    st = tier.BuildDefaultKnowledgeBase();
    if (!st.ok()) {
      std::fprintf(stderr, "kb build failed: %s\n", st.ToString().c_str());
      return 1;
    }
  }

  std::vector<std::string> sqls = ReadServeQueries(demo, demo_count);
  if (sqls.empty()) {
    std::printf("--serve: no queries on stdin\n");
    return 0;
  }

  std::printf("serving %zu queries across %d shards (%d dispatchers)...\n",
              sqls.size(), shards, dispatchers);
  std::vector<std::string> lines(sqls.size());
  std::atomic<size_t> cursor{0};
  auto dispatch = [&]() {
    for (size_t i = cursor.fetch_add(1); i < sqls.size();
         i = cursor.fetch_add(1)) {
      auto r = tier.Explain(sqls[i]);
      if (!r.ok()) {
        lines[i] = "error: " + r.status().ToString();
        continue;
      }
      lines[i] = StrFormat(
          "shard %d%-11s %-5s %-6s %-17s %.60s", r->failover.final_shard,
          r->failover.failed_over ? " (failover)" : "",
          r->result.from_cache ? "cache" : "fresh",
          FormatMillis(r->result.end_to_end_ms()).c_str(),
          DegradationLevelName(r->result.degradation),
          r->result.outcome.sql.c_str());
      if (i % 8 == 7) tier.Heartbeat();
    }
  };
  std::vector<std::thread> pool;
  for (int t = 0; t < dispatchers; ++t) pool.emplace_back(dispatch);
  for (std::thread& t : pool) t.join();
  for (size_t i = 0; i < lines.size(); ++i) {
    std::printf("[%3zu] %s\n", i, lines[i].c_str());
  }

  ShardedServiceStats stats = tier.Stats();
  std::printf("\n=== tier stats (bucket-merged over %d shards) ===\n%s\n",
              shards, stats.merged.ToString().c_str());
  std::printf("failover: %s last_recovery_beats=%llu live=%d/%d beats=%llu\n",
              stats.failover.ToString().c_str(),
              static_cast<unsigned long long>(stats.last_recovery_beats),
              stats.live_shards, shards,
              static_cast<unsigned long long>(stats.heartbeats));
  for (const std::string& event : tier.EventLog()) {
    std::printf("  event: %s\n", event.c_str());
  }
  std::printf("\n=== metrics (Prometheus text) ===\n%s",
              tier.ExpositionText().c_str());
  return 0;
}

/// `token` read whole as one decimal T: nullopt when it is empty, has
/// characters past the number, or holds a value T cannot represent.
/// Command-line values and REPL entry ids both go through it.
template <typename T>
std::optional<T> ParseWhole(std::string_view token) {
  T value{};
  const char* end = token.data() + token.size();
  auto [ptr, ec] = std::from_chars(token.data(), end, value);
  if (token.empty() || ec != std::errc() || ptr != end) return std::nullopt;
  return value;
}

/// Rejects the invocation: what was wrong, then the usage line; exit 2.
int BadInvocation(const std::string& what) {
  std::fprintf(stderr, "%s\n%s\n", what.c_str(), kUsage);
  return 2;
}

/// \metrics outside --serve: the interactive path has no service, so it
/// renders the explainer-side counters and the traces ExplainOne recorded.
std::string InteractiveMetricsText(const HtapExplainer& explainer) {
  ExpositionBuilder b;
  Expose(explainer.ResilienceSnapshot(), kServicePrefix, &b);
  Expose(g_trace_metrics.Snap(), kServicePrefix, &b);
  return b.Text();
}

}  // namespace

int main(int argc, char** argv) {
  HtapSystem system;
  HtapConfig sys_config;
  sys_config.data_scale_factor = 0.0;
  if (!system.Init(sys_config).ok()) return 1;

  ExplainerConfig config;
  std::string data_dir;
  bool require_recovery = false;
  int shard_count = 1;
  // Pull --faults= / --fault-seed= / --data-dir= / --recover out of argv
  // wherever they appear; the remaining positional args keep their
  // existing meaning.
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    if (std::strncmp(argv[i], "--data-dir=", 11) == 0) {
      data_dir = argv[i] + 11;
      if (data_dir.empty()) {
        std::fprintf(stderr, "--data-dir needs a path\n");
        return 2;
      }
    } else if (std::strcmp(argv[i], "--recover") == 0) {
      require_recovery = true;
    } else if (std::strcmp(argv[i], "--lifecycle") == 0) {
      g_lifecycle_enabled = true;
    } else if (std::strncmp(argv[i], "--faults=", 9) == 0) {
      config.faults = argv[i] + 9;
      if (config.faults.empty()) config.faults = "off";
      // Validate eagerly: a typo'd point name should fail the invocation,
      // not silently fall back to a clean run.
      auto parsed = FaultInjector::Parse(
          config.faults == "off" ? "" : config.faults, config.fault_seed);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --faults: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
    } else if (std::strncmp(argv[i], "--fault-seed=", 13) == 0) {
      std::optional<uint64_t> seed = ParseWhole<uint64_t>(argv[i] + 13);
      if (!seed.has_value()) {
        return BadInvocation("--fault-seed needs an unsigned 64-bit integer");
      }
      config.fault_seed = *seed;
    } else if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      std::optional<int> n = ParseWhole<int>(argv[i] + 9);
      if (!n.has_value() || *n < 1 || *n > kMaxShards) {
        return BadInvocation(StrFormat(
            "--shards needs a shard count from 1 to %d", kMaxShards));
      }
      shard_count = *n;
    } else if (std::strncmp(argv[i], "--trace-log=", 12) == 0) {
      std::optional<double> ms = ParseWhole<double>(argv[i] + 12);
      if (!ms.has_value() || !std::isfinite(*ms) || *ms <= 0.0) {
        return BadInvocation("--trace-log needs a positive ms threshold");
      }
      g_trace_log_ms = *ms;
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();
  const bool serve = argc > 1 && std::strcmp(argv[1], "--serve") == 0;
  int workers = 4;
  if (serve && argc > 2) {
    std::optional<int> n = ParseWhole<int>(argv[2]);
    if (!n.has_value() || *n < 1 || *n > kMaxServeWorkers) {
      return BadInvocation(StrFormat(
          "--serve needs a worker count from 1 to %d", kMaxServeWorkers));
    }
    workers = *n;
  }
  if (shard_count > 1 && !serve) {
    return BadInvocation("--shards applies to --serve mode only");
  }

  HtapExplainer explainer(&system, config);
  if (explainer.faults().enabled()) {
    std::printf("fault injection: %s (seed %llu)\n",
                explainer.faults().ToString().c_str(),
                static_cast<unsigned long long>(explainer.faults().seed()));
  }
  if (require_recovery && data_dir.empty()) {
    std::fprintf(stderr, "--recover needs --data-dir=PATH\n");
    return 2;
  }
  std::printf("training smart router...\n");
  auto train = explainer.TrainRouter();
  if (!train.ok()) return 1;

  // Crash-safe KB persistence: recover from --data-dir when it has state,
  // otherwise seed it from the default curated KB (unless --recover, which
  // treats an uninitialized directory as an error). With --shards=N the
  // tier owns both the knowledge and its persistence (per-shard dirs), so
  // the standalone explainer stays empty.
  std::unique_ptr<DurableKnowledgeBase> durable;
  if (shard_count > 1) {
    // handled in RunServeSharded
  } else if (!data_dir.empty()) {
    DurabilityOptions dopt;
    dopt.dir = data_dir;
    dopt.snapshot_every_n = 32;
    durable = std::make_unique<DurableKnowledgeBase>(dopt);
    if (explainer.faults().enabled()) {
      durable->set_fault_injector(&explainer.faults());
    }
    bool has_state = DurableKnowledgeBase::HasState(data_dir);
    if (!has_state) {
      if (require_recovery) {
        std::fprintf(stderr, "--recover: no durable state in %s\n",
                     data_dir.c_str());
        return 2;
      }
      if (!explainer.BuildDefaultKnowledgeBase().ok()) return 1;
    }
    auto info = durable->Attach(&explainer.mutable_knowledge_base());
    if (!info.ok()) {
      std::fprintf(stderr, "durability attach failed: %s\n",
                   info.status().ToString().c_str());
      return 1;
    }
    if (info->recovered) {
      std::printf(
          "recovered KB from %s: %zu snapshot entries + %llu WAL records "
          "in %.1f ms%s\n",
          data_dir.c_str(), info->snapshot_entries,
          static_cast<unsigned long long>(info->replayed_records),
          info->recovery_ms,
          info->snapshot_fallbacks > 0 ? " (fell back a generation)" : "");
    } else {
      std::printf("initialized durable KB state in %s\n", data_dir.c_str());
    }
  } else {
    if (!explainer.BuildDefaultKnowledgeBase().ok()) return 1;
  }
  std::printf("ready: router %.0f%% train accuracy, KB %zu entries, K=%d\n\n",
              100 * train->train_accuracy, explainer.knowledge_base().size(),
              explainer.config().retrieval_k);

  const char* demo[] = {
      "SELECT c_name FROM customer WHERE c_custkey = 42",
      "SELECT COUNT(*) FROM customer, orders WHERE o_custkey = c_custkey "
      "AND c_mktsegment = 'machinery' AND o_orderstatus = 'p'",
      "SELECT o_orderkey FROM orders ORDER BY o_orderkey LIMIT 10",
  };
  if (serve) {
    if (shard_count > 1) {
      return RunServeSharded(&system, config, explainer.router(), shard_count,
                             workers, data_dir, demo,
                             sizeof(demo) / sizeof(demo[0]));
    }
    return RunServe(&explainer, durable.get(), workers, data_dir, demo,
                    sizeof(demo) / sizeof(demo[0]));
  }

  // Interactive lifecycle: one manager over the explainer's router; every
  // query ExplainOne serves feeds its feedback buffer.
  std::unique_ptr<ModelLifecycleManager> lifecycle;
  if (g_lifecycle_enabled) {
    LifecycleOptions lopt;
    lopt.enabled = true;
    lopt.seed = config.seed;
    if (!data_dir.empty()) lopt.data_dir = data_dir + "/lifecycle";
    lifecycle = std::make_unique<ModelLifecycleManager>(
        &explainer.mutable_router(), lopt);
    lifecycle->set_fault_injector(&explainer.faults());
    lifecycle->set_curation_hook(
        [&explainer](uint64_t* expired, uint64_t* backfilled) {
          return explainer.CurateKnowledgeBase(expired, backfilled);
        });
    Status opened = lifecycle->Open();
    if (!opened.ok()) {
      std::fprintf(stderr, "lifecycle feedback log unavailable: %s\n",
                   opened.ToString().c_str());
    }
    g_lifecycle = lifecycle.get();
    std::printf("lifecycle armed: serving v%llu crc=%08x\n",
                static_cast<unsigned long long>(
                    explainer.router().frozen_version()),
                explainer.router().frozen_crc());
  }
  auto run_demo = [&] {
    for (const char* sql : demo) {
      std::printf("htapex> %s\n", sql);
      ExplainOne(&explainer, sql);
      std::printf("\n");
    }
  };
  if (argc > 1 && std::strcmp(argv[1], "--demo") == 0) {
    run_demo();
    return 0;
  }

  // Piped input runs through the same loop as a terminal; it gets each
  // line echoed instead of a prompt, so scripted output reads like an
  // interactive run.
  const bool interactive = isatty(0);
  std::string line;
  if (interactive) std::printf("htapex> ");
  while (std::getline(std::cin, line)) {
    std::string sql(Trim(line));
    if (!interactive && !sql.empty()) std::printf("htapex> %s\n", sql.c_str());
    if (sql == "\\q" || sql == "quit" || sql == "exit") break;
    if (sql == "\\demo") {
      run_demo();
    } else if (sql == "\\kb") {
      std::vector<const KbEntry*> entries =
          explainer.knowledge_base().Entries();
      if (entries.empty()) std::printf("knowledge base is empty\n");
      for (const KbEntry* e : entries) {
        std::printf("[%2d] %s faster | %.60s...\n", e->id,
                    EngineName(e->faster), e->sql.c_str());
      }
    } else if (sql == "\\correct" || sql.rfind("\\correct ", 0) == 0) {
      // \correct <id> <new explanation> — the expert feedback loop,
      // write-ahead logged when --data-dir is active.
      std::string_view args = Trim(std::string_view(sql).substr(8));
      const size_t space = args.find_first_of(" \t\v\f\r");
      std::optional<int> id = ParseWhole<int>(args.substr(0, space));
      std::string text(
          Trim(space == std::string_view::npos ? "" : args.substr(space)));
      if (!id.has_value() || text.empty()) {
        std::printf("usage: \\correct <id> <new explanation>\n");
      } else {
        Status st =
            explainer.mutable_knowledge_base().CorrectExplanation(*id, text);
        std::printf("%s\n", st.ok() ? "corrected" : st.ToString().c_str());
      }
    } else if (sql == "\\expire" || sql.rfind("\\expire ", 0) == 0) {
      std::optional<int> id =
          ParseWhole<int>(Trim(std::string_view(sql).substr(7)));
      if (!id.has_value()) {
        std::printf("usage: \\expire <id>\n");
      } else {
        Status st = explainer.mutable_knowledge_base().Expire(*id);
        std::printf("%s\n", st.ok() ? "expired" : st.ToString().c_str());
      }
    } else if (sql == "\\snapshot") {
      if (durable == nullptr) {
        std::printf("no durable state (run with --data-dir=PATH)\n");
      } else {
        Status st = durable->Snapshot();
        if (!st.ok()) {
          std::printf("snapshot failed: %s\n", st.ToString().c_str());
        } else {
          std::printf("snapshot installed; %s\n",
                      durable->StatsSnapshot().ToString().c_str());
        }
      }
    } else if (sql == "\\lifecycle") {
      if (lifecycle == nullptr) {
        std::printf("lifecycle off (run with --lifecycle)\n");
      } else {
        std::printf("%s\n", lifecycle->Stats().ToString().c_str());
        for (const std::string& event : lifecycle->EventLog()) {
          std::printf("  %s\n", event.c_str());
        }
      }
    } else if (sql == "\\swap") {
      if (lifecycle == nullptr) {
        std::printf("lifecycle off (run with --lifecycle)\n");
      } else {
        Status st = lifecycle->ForceRetrain();
        if (st.ok()) st = lifecycle->RunToIdle();
        if (!st.ok()) {
          std::printf("swap failed: %s\n", st.ToString().c_str());
        } else {
          std::printf("%s\n", lifecycle->Stats().ToString().c_str());
        }
      }
    } else if (sql == "\\rollback") {
      if (lifecycle == nullptr) {
        std::printf("lifecycle off (run with --lifecycle)\n");
      } else {
        Status st = lifecycle->ForceRollback();
        if (!st.ok()) {
          std::printf("rollback failed: %s\n", st.ToString().c_str());
        } else {
          std::printf("%s\n", lifecycle->Stats().ToString().c_str());
        }
      }
    } else if (sql == "\\trace" || sql.rfind("\\trace ", 0) == 0) {
      if (sql.size() > 7) ExplainOne(&explainer, sql.substr(7));
      if (g_last_trace == nullptr) {
        std::printf("no trace yet — run a query first (or \\trace <sql>)\n");
      } else {
        std::printf("%s\n", g_last_trace->ToString().c_str());
      }
    } else if (sql == "\\metrics") {
      std::printf("%s", InteractiveMetricsText(explainer).c_str());
    } else if (sql.rfind("\\report ", 0) == 0) {
      auto result = explainer.Explain(sql.substr(8));
      if (!result.ok()) {
        std::printf("error: %s\n", result.status().ToString().c_str());
      } else {
        std::printf("%s\n",
                    RenderExplainReport(explainer, *result).c_str());
      }
    } else if (!sql.empty()) {
      ExplainOne(&explainer, sql);
    }
    std::printf(interactive ? "\nhtapex> " : "\n");
  }
  return 0;
}
