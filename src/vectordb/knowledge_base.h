#ifndef HTAPEX_VECTORDB_KNOWLEDGE_BASE_H_
#define HTAPEX_VECTORDB_KNOWLEDGE_BASE_H_

#include <atomic>
#include <deque>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/result.h"
#include "plan/plan_node.h"
#include "vectordb/vector_store.h"

namespace htapex {

/// One knowledge-base record, the paper's Section IV tuple:
/// <plan pair encoding, plan details, execution result, expert explanation>.
struct KbEntry {
  int id = -1;
  std::string sql;
  std::vector<double> embedding;    // 16-dim plan-pair encoding (the key)
  std::string tp_plan_json;         // plan details (Table II format)
  std::string ap_plan_json;
  EngineKind faster = EngineKind::kTp;  // execution result
  double tp_latency_ms = 0.0;
  double ap_latency_ms = 0.0;
  std::string expert_explanation;   // curated text
  int64_t sequence = 0;             // insertion order, for expiry policies
};

/// Write-ahead hook for knowledge-base mutations (see src/durable/). Each
/// callback runs *before* the mutation is applied, after validation has
/// already succeeded; a non-OK return aborts the mutation, leaving the KB
/// untouched. Insert entries are passed before id/sequence assignment —
/// both are deterministic functions of insertion order, so a replay that
/// re-applies the logged mutations in order reproduces them exactly.
class KbMutationSink {
 public:
  virtual ~KbMutationSink() = default;
  virtual Status WillInsert(const KbEntry& entry) = 0;
  virtual Status WillCorrect(int id, const std::string& new_explanation) = 0;
  virtual Status WillExpire(int id) = 0;
};

/// The RAG knowledge base: a vector database keyed by plan-pair embeddings
/// with the expert-curated explanations as values. Supports insertion of
/// new expert-annotated queries, correction of explanations (the paper's
/// expert feedback loop), expiry of stale entries, and exact top-k search
/// (VectorStore). Persists to JSON.
class KnowledgeBase {
 public:
  /// One value and a constant index_mode(): both stay only because the
  /// benchmark harness (perfbench/explain.cc) rebuilds a recovered KB with
  /// `KnowledgeBase(live.dim(), live.index_mode())`.
  enum class IndexMode { kExact };

  explicit KnowledgeBase(int dim, IndexMode = IndexMode::kExact)
      : dim_(dim), exact_(dim) {}

  int dim() const { return dim_; }
  size_t size() const;
  IndexMode index_mode() const { return IndexMode::kExact; }

  /// Wires deterministic fault injection into this KB (see common/fault.h).
  /// `faults` must outlive the KB; nullptr (the default) disables faults.
  /// Active point: kb.insert — Insert returns a retryable Unavailable,
  /// modelling transient write contention.
  /// Not thread-safe; set before serving traffic.
  void set_fault_injector(const FaultInjector* faults) { faults_ = faults; }
  const FaultInjector* fault_injector() const { return faults_; }

  /// Durability hook (see KbMutationSink). `sink` must outlive the KB;
  /// nullptr (the default) detaches. Not thread-safe; the service layer
  /// only mutates under its exclusive lock.
  void set_mutation_sink(KbMutationSink* sink) { sink_ = sink; }
  KbMutationSink* mutation_sink() const { return sink_; }

  /// Inserts an entry (its id and sequence are assigned). Fails on
  /// embedding dimension mismatch.
  Result<int> Insert(KbEntry entry);

  /// Top-k entries by embedding distance (live entries only). Returns empty
  /// for a wrong-dimension embedding or non-positive k.
  std::vector<const KbEntry*> Retrieve(const std::vector<double>& embedding,
                                       int k) const;

  /// Expert feedback: replaces the explanation of an entry.
  Status CorrectExplanation(int id, std::string new_explanation);

  /// Expires (tombstones) an entry.
  Status Expire(int id);

  const KbEntry* Get(int id) const;
  std::vector<const KbEntry*> Entries() const;  // live, in insertion order

  /// Dense id-space size including tombstoned entries. Durable snapshots
  /// walk the full space so recovery preserves ids and tombstones exactly.
  size_t total_entries() const { return entries_.size(); }
  /// Entry by id regardless of tombstone state; nullptr if out of range.
  const KbEntry* RawGet(int id) const;
  /// True when `id` is tombstoned (false for out-of-range ids).
  bool IsExpired(int id) const;

  /// How many times entry `id` has been returned by Retrieve (usage signal
  /// for expiry policies); 0 for unknown ids.
  int64_t RetrievalHits(int id) const;

  /// Restores one entry from a durable snapshot, preserving its recorded
  /// id, sequence and tombstone state. Entries must arrive in dense id
  /// order (entry.id == current entry count); the sequence counter advances
  /// past every restored sequence. Bypasses the mutation sink and fault
  /// injection — recovery must not re-log or fail what is already durable.
  Status Restore(KbEntry entry, bool expired);

  /// The next sequence number Insert would assign (durable snapshots
  /// persist this so recovery resumes the counter exactly).
  int64_t next_sequence() const { return next_sequence_; }

  /// Atomic legacy export: serializes live entries (with their ids and
  /// sequences) to `<path>.tmp`, fsyncs, then renames over `path` — a crash
  /// mid-save never clobbers the previous good file.
  Status SaveJson(const std::string& path) const;
  /// Loads a SaveJson export into this KB (appending to it). Rejects
  /// dimension mismatches (whole-file and per-entry), duplicate or negative
  /// ids, and negative sequences with a typed Status instead of silently
  /// ingesting them. Ids are reassigned densely in file order (the export
  /// holds live entries only, so gaps from expired ids cannot be kept);
  /// sequences are preserved and the sequence counter resumes past the
  /// maximum loaded value.
  Status LoadJson(const std::string& path);

 private:
  int dim_;
  std::vector<KbEntry> entries_;
  std::vector<uint8_t> expired_;
  // Usage statistics; mutable so the logically-const Retrieve can count.
  // Atomic (and a deque, so growth never relocates elements) because the
  // service layer runs concurrent Retrieves under a shared lock: counting
  // must not race, and Insert only ever runs under the exclusive lock.
  mutable std::deque<std::atomic<int64_t>> hits_;
  VectorStore exact_;  // live entries only, ids == entry ids
  int64_t next_sequence_ = 0;
  const FaultInjector* faults_ = nullptr;
  KbMutationSink* sink_ = nullptr;
  // Ordinal for kb.insert draws: single-threaded insert sequences (KB
  // bootstrap, benches) replay identically; concurrent inserts only run
  // under the service's exclusive lock.
  std::atomic<uint64_t> insert_draws_{0};
};

}  // namespace htapex

#endif  // HTAPEX_VECTORDB_KNOWLEDGE_BASE_H_
