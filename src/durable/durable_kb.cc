#include "durable/durable_kb.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <set>
#include <utility>

#include "common/crc32.h"
#include "common/file_io.h"
#include "common/json.h"
#include "common/sim_clock.h"
#include "common/string_util.h"

namespace htapex {

namespace {

constexpr char kManifestFile[] = "MANIFEST";

bool FileExists(const std::string& path) {
  std::error_code ec;
  return std::filesystem::exists(path, ec);
}

}  // namespace

DurableKnowledgeBase::DurableKnowledgeBase(DurabilityOptions options)
    : options_(std::move(options)) {
  if (options_.fsync_every_n < 1) options_.fsync_every_n = 1;
}

DurableKnowledgeBase::~DurableKnowledgeBase() { Detach(); }

void DurableKnowledgeBase::Detach() {
  if (kb_ != nullptr && kb_->mutation_sink() == this) {
    kb_->set_mutation_sink(nullptr);
  }
  kb_ = nullptr;
}

bool DurableKnowledgeBase::HasState(const std::string& dir) {
  return FileExists(dir + "/" + kManifestFile);
}

void DurableKnowledgeBase::set_fault_injector(const FaultInjector* faults) {
  faults_ = faults;
  wal_.set_fault_injector(faults);
}

std::string DurableKnowledgeBase::SegmentPath(uint64_t segment) const {
  return options_.dir +
         StrFormat("/wal-%06llu.log",
                   static_cast<unsigned long long>(segment));
}

std::string DurableKnowledgeBase::SnapshotPath(
    const std::string& file) const {
  return options_.dir + "/" + file;
}

Status DurableKnowledgeBase::WriteManifest(const Manifest& manifest) const {
  JsonValue root = JsonValue::MakeObject();
  root.Set("next_gen", JsonValue::Int(static_cast<int64_t>(manifest.next_gen)));
  root.Set("next_segment",
           JsonValue::Int(static_cast<int64_t>(manifest.next_segment)));
  JsonValue gens = JsonValue::MakeArray();
  for (const Generation& g : manifest.generations) {
    JsonValue item = JsonValue::MakeObject();
    item.Set("gen", JsonValue::Int(static_cast<int64_t>(g.gen)));
    item.Set("snapshot", JsonValue::String(g.snapshot_file));
    item.Set("crc", JsonValue::Int(static_cast<int64_t>(g.crc)));
    item.Set("wal_segment",
             JsonValue::Int(static_cast<int64_t>(g.wal_segment)));
    item.Set("wal_offset",
             JsonValue::Int(static_cast<int64_t>(g.wal_offset)));
    gens.Append(std::move(item));
  }
  root.Set("generations", std::move(gens));
  return WriteFileAtomic(options_.dir + "/" + kManifestFile, root.Dump());
}

Result<DurableKnowledgeBase::Manifest> DurableKnowledgeBase::ReadManifest()
    const {
  std::string text;
  HTAPEX_ASSIGN_OR_RETURN(
      text, ReadFile(options_.dir + "/" + kManifestFile));
  JsonValue root;
  HTAPEX_ASSIGN_OR_RETURN(root, JsonValue::Parse(text));
  Manifest manifest;
  manifest.next_gen = static_cast<uint64_t>(root.GetInt("next_gen"));
  manifest.next_segment = static_cast<uint64_t>(root.GetInt("next_segment"));
  const JsonValue* gens = root.Find("generations");
  if (gens == nullptr || !gens->is_array()) {
    return Status::ParseError("manifest missing generations");
  }
  for (const JsonValue& item : gens->array()) {
    Generation g;
    g.gen = static_cast<uint64_t>(item.GetInt("gen"));
    g.snapshot_file = item.GetString("snapshot");
    g.crc = static_cast<uint32_t>(item.GetInt("crc"));
    g.wal_segment = static_cast<uint64_t>(item.GetInt("wal_segment"));
    g.wal_offset = static_cast<uint64_t>(item.GetInt("wal_offset"));
    if (g.snapshot_file.empty() ||
        g.snapshot_file.find('/') != std::string::npos) {
      return Status::ParseError("manifest generation has a bad snapshot name");
    }
    manifest.generations.push_back(std::move(g));
  }
  return manifest;
}

void DurableKnowledgeBase::RemoveOrphanTempFiles() const {
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code rm_ec;
      std::filesystem::remove(entry.path(), rm_ec);
    }
  }
}

void DurableKnowledgeBase::CollectGarbage() {
  if (manifest_.generations.empty()) return;
  const Generation& oldest = manifest_.generations.front();
  std::set<std::string> kept_snapshots;
  for (const Generation& g : manifest_.generations) {
    kept_snapshots.insert(g.snapshot_file);
  }
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::directory_iterator(options_.dir, ec)) {
    std::string name = entry.path().filename().string();
    unsigned long long num = 0;
    bool remove = false;
    if (std::sscanf(name.c_str(), "wal-%6llu.log", &num) == 1 &&
        EndsWith(name, ".log")) {
      remove = num < oldest.wal_segment;
    } else if (std::sscanf(name.c_str(), "snapshot-%6llu.json", &num) == 1 &&
               EndsWith(name, ".json")) {
      // Orphans from a crashed manifest update keep a gen >= the newest
      // kept one; only provably superseded generations are deleted.
      remove = num < oldest.gen && kept_snapshots.count(name) == 0;
    }
    if (remove) {
      std::error_code rm_ec;
      if (std::filesystem::remove(entry.path(), rm_ec)) {
        metrics_.gc_files.Inc();
      }
    }
  }
}

Result<RecoveryInfo> DurableKnowledgeBase::Attach(KnowledgeBase* kb) {
  if (kb_ != nullptr) {
    return Status::Internal("durable knowledge base already attached");
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IoError("cannot create data dir " + options_.dir);
  }
  RemoveOrphanTempFiles();
  kb_ = kb;
  Result<RecoveryInfo> info = HasState(options_.dir) ? Recover() : Bootstrap();
  if (!info.ok()) {
    kb_ = nullptr;
    return info.status();
  }
  kb_->set_mutation_sink(this);
  return info;
}

Result<RecoveryInfo> DurableKnowledgeBase::Bootstrap() {
  manifest_ = Manifest{};
  // The bootstrap snapshot turns whatever the KB already holds (typically
  // the paper's default 20-entry KB) into generation 0, so durability
  // covers the curated seed as well as future mutations.
  HTAPEX_RETURN_IF_ERROR(Snapshot());
  return RecoveryInfo{};
}

Result<RecoveryInfo> DurableKnowledgeBase::Recover() {
  if (kb_->next_sequence() != 0 || kb_->total_entries() != 0) {
    return Status::InvalidArgument(
        "cannot recover into a knowledge base that already has entries");
  }
  Manifest manifest;
  HTAPEX_ASSIGN_OR_RETURN(manifest, ReadManifest());
  WallTimer timer;
  RecoveryInfo info;
  info.recovered = true;

  // Newest generation whose snapshot bytes still match their checksum;
  // corrupt generations are skipped (the fallback path).
  const Generation* chosen = nullptr;
  KbDocument state;
  for (auto it = manifest.generations.rbegin();
       it != manifest.generations.rend(); ++it) {
    auto text = ReadFile(SnapshotPath(it->snapshot_file));
    if (text.ok() && Crc32(*text) == it->crc) {
      chosen = &*it;
      HTAPEX_ASSIGN_OR_RETURN(state, DecodeKbDocument(*text, kb_->dim()));
      break;
    }
    info.snapshot_fallbacks += 1;
    metrics_.snapshot_fallbacks.Inc();
  }
  if (chosen == nullptr) {
    return Status::IoError(
        "no snapshot generation survived checksum verification");
  }
  info.snapshot_entries = state.entries.size();
  HTAPEX_RETURN_IF_ERROR(kb_->Restore(std::move(state)));

  // Replay the WAL from the chosen generation's segment through every
  // later segment on disk (rotation keeps segment numbers contiguous).
  // KB-level fault injection is suspended: replay re-applies mutations
  // that already committed once — they must not fail a second time.
  const FaultInjector* kb_faults = kb_->fault_injector();
  kb_->set_fault_injector(nullptr);
  auto apply = [this](const KbMutation& record) -> Status {
    return kb_->Apply(record);
  };
  Status replay_status = Status::OK();
  bool bad_history = false;
  uint64_t last_segment = chosen->wal_segment;
  for (uint64_t seg = chosen->wal_segment;; ++seg) {
    std::string path = SegmentPath(seg);
    if (!FileExists(path)) break;
    last_segment = seg;
    bool is_last = !FileExists(SegmentPath(seg + 1));
    WalReplayStats stats;
    replay_status =
        ReplayWalSegment(path, kb_->dim(), is_last, apply, &stats);
    info.replayed_records += stats.replayed;
    info.truncated_records += stats.truncated;
    info.corrupt_records += stats.corrupt;
    metrics_.replayed_records.Inc(stats.replayed);
    metrics_.truncated_records.Inc(stats.truncated);
    metrics_.corrupt_records.Inc(stats.corrupt);
    if (!replay_status.ok()) break;
    if (stats.corrupt > 0) {
      // Anything after the corruption is unordered garbage; stop here and
      // re-anchor below with a fresh snapshot of what was salvaged.
      bad_history = true;
      break;
    }
  }
  kb_->set_fault_injector(kb_faults);
  HTAPEX_RETURN_IF_ERROR(replay_status);

  manifest_ = manifest;
  manifest_.next_segment = std::max(manifest_.next_segment, last_segment + 1);
  if (bad_history) {
    // Mid-history corruption detected: a new snapshot + segment makes the
    // salvaged state the authoritative root, so future appends are never
    // stranded behind the corrupt bytes.
    HTAPEX_RETURN_IF_ERROR(Snapshot());
  } else {
    auto writer = WalWriter::Open(SegmentPath(last_segment), &metrics_);
    if (!writer.ok()) return writer.status();
    wal_ = std::move(writer).value();
    wal_.set_fault_injector(faults_);
  }
  appends_since_sync_ = 0;
  mutations_since_snapshot_ = 0;

  info.recovery_ms = timer.ElapsedMillis();
  metrics_.recoveries.Inc();
  metrics_.recovery_micros.Inc(
      static_cast<uint64_t>(std::llround(info.recovery_ms * 1000.0)));
  return info;
}

Status DurableKnowledgeBase::Snapshot() {
  if (kb_ == nullptr) {
    return Status::Internal("durable knowledge base not attached");
  }
  auto fail = [this](Status st) {
    metrics_.snapshot_failures.Inc();
    return st;
  };
  std::string text = kb_->ToJson(/*snapshot=*/true);
  uint32_t crc = Crc32(text);
  uint64_t gen = manifest_.next_gen;
  std::string file = StrFormat("snapshot-%06llu.json",
                               static_cast<unsigned long long>(gen));
  std::string final_path = SnapshotPath(file);
  std::string tmp = final_path + ".tmp";

  // The two halves of WriteFileAtomic, called here so the crash points sit
  // between them.
  if (faults_ != nullptr &&
      faults_->Draw(kFaultSnapshotWrite, gen, 0).fired) {
    // Simulated crash mid-snapshot: half the bytes land in the temp file,
    // which never gets renamed — recovery must ignore it entirely.
    (void)WriteFileSynced(tmp,
                          std::string_view(text).substr(0, text.size() / 2));
    return fail(
        Status::IoError("snapshot.write fault injected (crash mid-write)"));
  }
  Status st = WriteFileSynced(tmp, text);
  if (!st.ok()) return fail(st);
  if (faults_ != nullptr &&
      faults_->Draw(kFaultSnapshotRename, gen, 0).fired) {
    // Simulated crash between the temp-file fsync and the rename: the
    // fully written snapshot exists only under its temp name, so it is
    // invisible to recovery — the previous generation still rules.
    return fail(Status::IoError(
        "snapshot.rename fault injected (crash before rename)"));
  }
  st = RenameSynced(tmp, final_path);
  if (!st.ok()) return fail(st);

  // Rotate the WAL before publishing the manifest: new records go to the
  // fresh segment either way, and if the manifest write dies the old
  // manifest still covers them (old snapshot + old segment + new segment).
  uint64_t new_segment = manifest_.next_segment;
  auto writer = WalWriter::Open(SegmentPath(new_segment), &metrics_);
  if (!writer.ok()) return fail(writer.status());
  wal_ = std::move(writer).value();
  wal_.set_fault_injector(faults_);
  metrics_.wal_rotations.Inc();
  appends_since_sync_ = 0;

  Manifest next = manifest_;
  next.next_gen = gen + 1;
  next.next_segment = new_segment + 1;
  Generation g;
  g.gen = gen;
  g.snapshot_file = file;
  g.crc = crc;
  g.wal_segment = new_segment;
  g.wal_offset = 0;
  next.generations.push_back(std::move(g));
  while (static_cast<int>(next.generations.size()) > kKeptGenerations) {
    next.generations.erase(next.generations.begin());
  }
  Status manifest_status = WriteManifest(next);
  if (!manifest_status.ok()) return fail(manifest_status);
  manifest_ = std::move(next);
  metrics_.snapshots.Inc();
  mutations_since_snapshot_ = 0;
  CollectGarbage();
  return Status::OK();
}

Status DurableKnowledgeBase::WillApply(const KbMutation& mutation) {
  if (kb_ == nullptr) {
    return Status::Internal("durable knowledge base not attached");
  }
  if (options_.snapshot_every_n > 0 &&
      mutations_since_snapshot_ >=
          static_cast<uint64_t>(options_.snapshot_every_n)) {
    // Trigger before appending: the snapshot captures state through the
    // previous mutation and this record opens the fresh segment. A failed
    // snapshot aborts the mutation (crash semantics for the injected
    // points) but leaves the log intact, so the next mutation retries.
    HTAPEX_RETURN_IF_ERROR(Snapshot());
  }
  HTAPEX_RETURN_IF_ERROR(wal_.Append(EncodeWalRecord(mutation)));
  mutations_since_snapshot_ += 1;
  if (++appends_since_sync_ >=
      static_cast<uint64_t>(options_.fsync_every_n)) {
    HTAPEX_RETURN_IF_ERROR(wal_.Sync());
    appends_since_sync_ = 0;
  }
  return Status::OK();
}

}  // namespace htapex
