#ifndef HTAPEX_VECTORDB_KNOWLEDGE_BASE_H_
#define HTAPEX_VECTORDB_KNOWLEDGE_BASE_H_

#include <atomic>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/json.h"
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

/// One knowledge-base mutation: what the mutation sink sees before it is
/// applied, what the write-ahead log records, what replication ships and
/// what replay applies (KnowledgeBase::Apply). Insert entries are recorded
/// before id/sequence assignment: both are deterministic functions of apply
/// order, so replaying the mutations in order reproduces them exactly.
struct KbMutation {
  enum class Op { kInsert, kCorrect, kExpire };

  Op op = Op::kInsert;
  KbEntry entry;     // kInsert payload
  int id = -1;       // kCorrect / kExpire target
  std::string text;  // kCorrect replacement explanation
  /// Per-source replication sequence number, 1-based; 0 (the default) in
  /// local WAL segments. Replica-log shipping stamps each shipped record
  /// with its source shard's mutation ordinal so a shard rebuilt from
  /// replica logs scattered across several successors can restore the
  /// original mutation order by sorting on it (see sharded_service.h).
  uint64_t ordinal = 0;
};

/// Write-ahead hook for knowledge-base mutations (see src/durable/). Runs
/// *before* the mutation is applied, after validation has already
/// succeeded; a non-OK return aborts the mutation, leaving the KB untouched.
class KbMutationSink {
 public:
  virtual ~KbMutationSink() = default;
  virtual Status WillApply(const KbMutation& mutation) = 0;
};

/// The KbEntry codec every KB file shares: the export, the snapshot and the
/// WAL insert record. Appends the entry's fields to the JSON object `out`,
/// with `id` first and `sequence` last when `with_ids` is set. WAL insert
/// records leave both out (they are assigned at apply time).
void EncodeKbEntry(const KbEntry& entry, bool with_ids, JsonValue* out);

/// Parses the fields EncodeKbEntry writes. The embedding must be present,
/// numeric and `dim` long; an id must be a non-negative int and a sequence
/// non-negative (and below INT64_MAX, so the counter can advance past it).
/// An absent id reads as -1 and an absent sequence as 0.
Result<KbEntry> DecodeKbEntry(const JsonValue& item, int dim);

/// A decoded KB export or snapshot: validated entries in file order.
struct KbDocument {
  std::vector<KbEntry> entries;
  std::vector<uint8_t> expired;  // per entry; snapshots only
  int64_t next_sequence = 0;     // snapshots only
};

/// The one decoder for KB documents (SaveJson exports and durable
/// snapshots). Checks the document dimension against `dim`, decodes every
/// entry with DecodeKbEntry and rejects duplicate ids, so a bad document is
/// refused before any of it is applied.
Result<KbDocument> DecodeKbDocument(std::string_view text, int dim);

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

  /// Applies one mutation through Insert, CorrectExplanation or Expire:
  /// the one op -> mutation mapping WAL replay and replica bootstrap share.
  Status Apply(const KbMutation& mutation);

  /// The KB as one JSON document. A snapshot holds every entry ever
  /// inserted (tombstones flagged `expired`) and the sequence counter, so
  /// Restore reproduces ids exactly; an export (`snapshot` false, what
  /// SaveJson writes) holds the live entries only.
  std::string ToJson(bool snapshot) const;

  /// Moves a decoded snapshot into this empty KB, preserving ids,
  /// sequences and tombstones. Checks that ids are dense and that the
  /// recorded sequence counter matches the entries before applying any.
  /// Bypasses the mutation sink and fault injection: recovery must not
  /// re-log or fail what is already durable.
  Status Restore(KbDocument document);

  /// The next sequence number Insert would assign (durable snapshots
  /// persist this so recovery resumes the counter exactly).
  int64_t next_sequence() const { return next_sequence_; }

  /// Atomic export of the live entries (with their ids and sequences):
  /// WriteFileAtomic, so a crash mid-save never clobbers the previous file.
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
