#include "vectordb/knowledge_base.h"

#include <algorithm>
#include <climits>
#include <set>
#include <utility>

#include "common/file_io.h"
#include "common/hash.h"
#include "common/string_util.h"

namespace htapex {

void EncodeKbEntry(const KbEntry& e, bool with_ids, JsonValue* out) {
  if (with_ids) out->Set("id", JsonValue::Int(e.id));
  out->Set("sql", JsonValue::String(e.sql));
  JsonValue emb = JsonValue::MakeArray();
  for (double v : e.embedding) emb.Append(JsonValue::Double(v));
  out->Set("embedding", std::move(emb));
  out->Set("tp_plan", JsonValue::String(e.tp_plan_json));
  out->Set("ap_plan", JsonValue::String(e.ap_plan_json));
  out->Set("faster", JsonValue::String(EngineName(e.faster)));
  out->Set("tp_latency_ms", JsonValue::Double(e.tp_latency_ms));
  out->Set("ap_latency_ms", JsonValue::Double(e.ap_latency_ms));
  out->Set("explanation", JsonValue::String(e.expert_explanation));
  if (with_ids) out->Set("sequence", JsonValue::Int(e.sequence));
}

Result<KbEntry> DecodeKbEntry(const JsonValue& item, int dim) {
  KbEntry e;
  const JsonValue* emb = item.Find("embedding");
  if (emb == nullptr || !emb->is_array()) {
    return Status::ParseError("missing embedding");
  }
  if (static_cast<int64_t>(emb->array().size()) != dim) {
    return Status::InvalidArgument(
        StrFormat("embedding dimension %zu != knowledge base dimension %d",
                  emb->array().size(), dim));
  }
  e.embedding.reserve(emb->array().size());
  for (const JsonValue& v : emb->array()) {
    if (!v.is_number()) return Status::ParseError("non-numeric embedding");
    e.embedding.push_back(v.double_value());
  }
  int64_t id = item.GetInt("id", -1);
  if (item.Find("id") != nullptr && (id < 0 || id > INT_MAX)) {
    return Status::InvalidArgument("id out of range");
  }
  e.id = static_cast<int>(id);
  e.sequence = item.GetInt("sequence", 0);
  if (e.sequence < 0 || e.sequence == INT64_MAX) {
    return Status::InvalidArgument("sequence out of range");
  }
  e.sql = item.GetString("sql");
  e.tp_plan_json = item.GetString("tp_plan");
  e.ap_plan_json = item.GetString("ap_plan");
  e.faster =
      item.GetString("faster") == "AP" ? EngineKind::kAp : EngineKind::kTp;
  e.tp_latency_ms = item.GetDouble("tp_latency_ms");
  e.ap_latency_ms = item.GetDouble("ap_latency_ms");
  e.expert_explanation = item.GetString("explanation");
  return e;
}

Result<KbDocument> DecodeKbDocument(std::string_view text, int dim) {
  JsonValue root;
  HTAPEX_ASSIGN_OR_RETURN(root, JsonValue::Parse(text));
  if (root.GetInt("dim") != dim) {
    return Status::InvalidArgument(
        "document dimension does not match knowledge base");
  }
  const JsonValue* items = root.Find("entries");
  if (items == nullptr || !items->is_array()) {
    return Status::ParseError("missing entries array");
  }
  KbDocument doc;
  doc.next_sequence = root.GetInt("next_sequence", 0);
  doc.entries.reserve(items->array().size());
  std::set<int> seen_ids;
  for (const JsonValue& item : items->array()) {
    Result<KbEntry> e = DecodeKbEntry(item, dim);
    if (!e.ok()) {
      return Status(e.status().code(),
                    StrFormat("entry %zu: ", doc.entries.size()) +
                        e.status().message());
    }
    if (e->id >= 0 && !seen_ids.insert(e->id).second) {
      return Status::InvalidArgument(StrFormat(
          "entry %zu: duplicate id %d", doc.entries.size(), e->id));
    }
    doc.expired.push_back(item.GetBool("expired") ? 1 : 0);
    doc.entries.push_back(std::move(e).value());
  }
  return doc;
}

size_t KnowledgeBase::size() const { return exact_.size(); }

Result<int> KnowledgeBase::Insert(KbEntry entry) {
  if (static_cast<int>(entry.embedding.size()) != dim_) {
    return Status::InvalidArgument("embedding dimension mismatch");
  }
  if (faults_ != nullptr) {
    // Drawn before any mutation, so a fired fault leaves the KB untouched
    // and the caller can safely retry.
    uint64_t ordinal = insert_draws_.fetch_add(1, std::memory_order_relaxed);
    if (faults_->Draw(kFaultKbInsert, Fnv1a64(entry.sql), ordinal).fired) {
      return Status::Unavailable(
          "kb.insert fault injected (transient write contention)");
    }
  }
  if (sink_ != nullptr) {
    // Write-ahead: the durable log sees the mutation before it is applied,
    // and a logging failure aborts it (nothing applied, nothing logged).
    KbMutation insert;
    insert.op = KbMutation::Op::kInsert;
    insert.entry = entry;
    HTAPEX_RETURN_IF_ERROR(sink_->WillApply(insert));
  }
  int id;
  HTAPEX_ASSIGN_OR_RETURN(id, exact_.Add(entry.embedding));
  entry.id = id;
  entry.sequence = next_sequence_++;
  entries_.push_back(std::move(entry));
  expired_.push_back(0);
  hits_.emplace_back(0);
  return id;
}

Status KnowledgeBase::Apply(const KbMutation& mutation) {
  switch (mutation.op) {
    case KbMutation::Op::kInsert:
      return Insert(mutation.entry).status();
    case KbMutation::Op::kCorrect:
      return CorrectExplanation(mutation.id, mutation.text);
    case KbMutation::Op::kExpire:
      return Expire(mutation.id);
  }
  return Status::Internal("unreachable kb mutation op");
}

Status KnowledgeBase::Restore(KbDocument document) {
  int64_t next_sequence = next_sequence_;
  for (size_t i = 0; i < document.entries.size(); ++i) {
    const KbEntry& e = document.entries[i];
    if (e.id != static_cast<int>(entries_.size() + i)) {
      return Status::InvalidArgument(
          "snapshot entries must restore in dense id order");
    }
    next_sequence = std::max(next_sequence, e.sequence + 1);
  }
  // Every insert ever made stays in the snapshot (expiry only tombstones),
  // so the restored counter must equal the persisted one: a mismatch means
  // the snapshot lied despite its checksum.
  if (next_sequence != document.next_sequence) {
    return Status::Internal("snapshot sequence counter inconsistent");
  }
  for (size_t i = 0; i < document.entries.size(); ++i) {
    KbEntry& e = document.entries[i];
    int id;
    HTAPEX_ASSIGN_OR_RETURN(id, exact_.Add(e.embedding));
    entries_.push_back(std::move(e));
    expired_.push_back(document.expired[i]);
    hits_.emplace_back(0);
    if (document.expired[i]) {
      // Mirror Expire(): tombstoned entries stay out of the exact store so
      // recovered search behaviour matches the pre-crash KB.
      HTAPEX_RETURN_IF_ERROR(exact_.Remove(id));
    }
  }
  next_sequence_ = next_sequence;
  return Status::OK();
}

std::vector<const KbEntry*> KnowledgeBase::Retrieve(
    const std::vector<double>& embedding, int k) const {
  // The exact store holds live entries only (Expire and Restore remove
  // tombstoned ids from it) and checks the dimension and k itself.
  std::vector<const KbEntry*> out;
  for (const SearchHit& h : exact_.Search(embedding, k)) {
    hits_[static_cast<size_t>(h.id)].fetch_add(1, std::memory_order_relaxed);
    out.push_back(&entries_[static_cast<size_t>(h.id)]);
  }
  return out;
}

Status KnowledgeBase::CorrectExplanation(int id, std::string new_explanation) {
  if (id < 0 || id >= static_cast<int>(entries_.size()) ||
      expired_[static_cast<size_t>(id)]) {
    return Status::NotFound("no such knowledge-base entry");
  }
  if (sink_ != nullptr) {
    KbMutation correct;
    correct.op = KbMutation::Op::kCorrect;
    correct.id = id;
    correct.text = new_explanation;
    HTAPEX_RETURN_IF_ERROR(sink_->WillApply(correct));
  }
  entries_[static_cast<size_t>(id)].expert_explanation =
      std::move(new_explanation);
  return Status::OK();
}

Status KnowledgeBase::Expire(int id) {
  if (id < 0 || id >= static_cast<int>(entries_.size()) ||
      expired_[static_cast<size_t>(id)]) {
    return Status::NotFound("no such knowledge-base entry");
  }
  if (sink_ != nullptr) {
    KbMutation expire;
    expire.op = KbMutation::Op::kExpire;
    expire.id = id;
    HTAPEX_RETURN_IF_ERROR(sink_->WillApply(expire));
  }
  expired_[static_cast<size_t>(id)] = 1;
  return exact_.Remove(id);
}

const KbEntry* KnowledgeBase::Get(int id) const {
  if (id < 0 || id >= static_cast<int>(entries_.size()) ||
      expired_[static_cast<size_t>(id)]) {
    return nullptr;
  }
  return &entries_[static_cast<size_t>(id)];
}

const KbEntry* KnowledgeBase::RawGet(int id) const {
  if (id < 0 || id >= static_cast<int>(entries_.size())) return nullptr;
  return &entries_[static_cast<size_t>(id)];
}

bool KnowledgeBase::IsExpired(int id) const {
  if (id < 0 || id >= static_cast<int>(entries_.size())) return false;
  return expired_[static_cast<size_t>(id)] != 0;
}

int64_t KnowledgeBase::RetrievalHits(int id) const {
  if (id < 0 || id >= static_cast<int>(hits_.size())) return 0;
  return hits_[static_cast<size_t>(id)].load(std::memory_order_relaxed);
}

std::vector<const KbEntry*> KnowledgeBase::Entries() const {
  std::vector<const KbEntry*> out;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (!expired_[i]) out.push_back(&entries_[i]);
  }
  return out;
}

std::string KnowledgeBase::ToJson(bool snapshot) const {
  JsonValue root = JsonValue::MakeObject();
  root.Set("dim", JsonValue::Int(dim_));
  if (snapshot) root.Set("next_sequence", JsonValue::Int(next_sequence_));
  JsonValue items = JsonValue::MakeArray();
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (expired_[i] && !snapshot) continue;
    JsonValue item = JsonValue::MakeObject();
    EncodeKbEntry(entries_[i], /*with_ids=*/true, &item);
    if (snapshot) item.Set("expired", JsonValue::Bool(expired_[i] != 0));
    items.Append(std::move(item));
  }
  root.Set("entries", std::move(items));
  return snapshot ? root.Dump() : root.Dump(2);
}

Status KnowledgeBase::SaveJson(const std::string& path) const {
  return WriteFileAtomic(path, ToJson(/*snapshot=*/false));
}

Status KnowledgeBase::LoadJson(const std::string& path) {
  KbDocument doc;
  {
    std::string text;
    HTAPEX_ASSIGN_OR_RETURN(text, ReadFile(path));
    HTAPEX_ASSIGN_OR_RETURN(doc, DecodeKbDocument(text, dim_));
  }
  for (KbEntry& e : doc.entries) {
    int64_t sequence = e.sequence;
    int id;
    HTAPEX_ASSIGN_OR_RETURN(id, Insert(std::move(e)));
    // Insert assigned a fresh sequence; restore the exported one and keep
    // the counter past the maximum so future inserts never collide.
    entries_[static_cast<size_t>(id)].sequence = sequence;
    next_sequence_ = std::max(next_sequence_, sequence + 1);
  }
  return Status::OK();
}

}  // namespace htapex
