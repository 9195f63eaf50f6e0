#include "vectordb/knowledge_base.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <set>
#include <utility>

#include "common/json.h"
#include "common/string_util.h"

namespace htapex {

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
    HTAPEX_RETURN_IF_ERROR(sink_->WillInsert(entry));
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

Status KnowledgeBase::Restore(KbEntry entry, bool expired) {
  if (static_cast<int>(entry.embedding.size()) != dim_) {
    return Status::InvalidArgument("embedding dimension mismatch");
  }
  if (entry.id != static_cast<int>(entries_.size())) {
    return Status::InvalidArgument(
        "snapshot entries must restore in dense id order");
  }
  if (entry.sequence < 0) {
    return Status::InvalidArgument("negative sequence in snapshot entry");
  }
  int id;
  HTAPEX_ASSIGN_OR_RETURN(id, exact_.Add(entry.embedding));
  next_sequence_ = std::max(next_sequence_, entry.sequence + 1);
  entries_.push_back(std::move(entry));
  expired_.push_back(expired ? 1 : 0);
  hits_.emplace_back(0);
  if (expired) {
    // Mirror Expire(): tombstoned entries stay out of the exact store so
    // recovered search behaviour matches the pre-crash KB.
    HTAPEX_RETURN_IF_ERROR(exact_.Remove(id));
  }
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
    HTAPEX_RETURN_IF_ERROR(sink_->WillCorrect(id, new_explanation));
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
    HTAPEX_RETURN_IF_ERROR(sink_->WillExpire(id));
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

Status KnowledgeBase::SaveJson(const std::string& path) const {
  JsonValue root = JsonValue::MakeObject();
  root.Set("dim", JsonValue::Int(dim_));
  JsonValue items = JsonValue::MakeArray();
  for (const KbEntry* e : Entries()) {
    JsonValue item = JsonValue::MakeObject();
    item.Set("id", JsonValue::Int(e->id));
    item.Set("sql", JsonValue::String(e->sql));
    JsonValue emb = JsonValue::MakeArray();
    for (double v : e->embedding) emb.Append(JsonValue::Double(v));
    item.Set("embedding", emb);
    item.Set("tp_plan", JsonValue::String(e->tp_plan_json));
    item.Set("ap_plan", JsonValue::String(e->ap_plan_json));
    item.Set("faster", JsonValue::String(EngineName(e->faster)));
    item.Set("tp_latency_ms", JsonValue::Double(e->tp_latency_ms));
    item.Set("ap_latency_ms", JsonValue::Double(e->ap_latency_ms));
    item.Set("explanation", JsonValue::String(e->expert_explanation));
    item.Set("sequence", JsonValue::Int(e->sequence));
    items.Append(std::move(item));
  }
  root.Set("entries", std::move(items));
  // Temp file + fsync + atomic rename: a crash at any point leaves either
  // the previous good file or the complete new one, never a torn mix.
  std::string tmp = path + ".tmp";
  std::FILE* fp = std::fopen(tmp.c_str(), "w");
  if (fp == nullptr) return Status::IoError("cannot open for write: " + tmp);
  std::string text = root.Dump(2);
  size_t written = std::fwrite(text.data(), 1, text.size(), fp);
  if (written != text.size() || std::fflush(fp) != 0 ||
      ::fsync(::fileno(fp)) != 0) {
    std::fclose(fp);
    std::remove(tmp.c_str());
    return Status::IoError("short write to " + tmp);
  }
  std::fclose(fp);
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename " + tmp + " -> " + path);
  }
  return Status::OK();
}

Status KnowledgeBase::LoadJson(const std::string& path) {
  std::FILE* fp = std::fopen(path.c_str(), "r");
  if (fp == nullptr) return Status::IoError("cannot open for read: " + path);
  std::string text;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), fp)) > 0) text.append(buf, n);
  std::fclose(fp);
  JsonValue root;
  HTAPEX_ASSIGN_OR_RETURN(root, JsonValue::Parse(text));
  if (root.GetInt("dim") != dim_) {
    return Status::InvalidArgument("knowledge base dimension mismatch");
  }
  const JsonValue* items = root.Find("entries");
  if (items == nullptr || !items->is_array()) {
    return Status::ParseError("missing entries array");
  }
  // Validate the whole file before ingesting anything, so a malformed
  // export is rejected atomically instead of half-loaded.
  std::vector<KbEntry> parsed;
  std::set<int64_t> seen_ids;
  parsed.reserve(items->array().size());
  for (const JsonValue& item : items->array()) {
    KbEntry e;
    e.sql = item.GetString("sql");
    const JsonValue* emb = item.Find("embedding");
    if (emb == nullptr || !emb->is_array()) {
      return Status::ParseError("entry missing embedding");
    }
    for (const JsonValue& v : emb->array()) {
      e.embedding.push_back(v.double_value());
    }
    if (static_cast<int>(e.embedding.size()) != dim_) {
      return Status::InvalidArgument(StrFormat(
          "entry %zu: embedding dimension %zu != knowledge base dimension %d",
          parsed.size(), e.embedding.size(), dim_));
    }
    if (const JsonValue* id = item.Find("id"); id != nullptr) {
      if (id->int_value() < 0) {
        return Status::InvalidArgument(
            StrFormat("entry %zu: negative id", parsed.size()));
      }
      if (!seen_ids.insert(id->int_value()).second) {
        return Status::InvalidArgument(StrFormat(
            "entry %zu: duplicate id %lld", parsed.size(),
            static_cast<long long>(id->int_value())));
      }
    }
    e.sequence = item.GetInt("sequence", 0);
    if (e.sequence < 0) {
      return Status::InvalidArgument(
          StrFormat("entry %zu: negative sequence", parsed.size()));
    }
    e.tp_plan_json = item.GetString("tp_plan");
    e.ap_plan_json = item.GetString("ap_plan");
    e.faster =
        item.GetString("faster") == "AP" ? EngineKind::kAp : EngineKind::kTp;
    e.tp_latency_ms = item.GetDouble("tp_latency_ms");
    e.ap_latency_ms = item.GetDouble("ap_latency_ms");
    e.expert_explanation = item.GetString("explanation");
    parsed.push_back(std::move(e));
  }
  for (KbEntry& e : parsed) {
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
