#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "durable/durable_kb.h"
#include "durable/wal.h"
#include "rag/kb_manager.h"
#include "vectordb/knowledge_base.h"

namespace htapex {
namespace {

constexpr int kDim = 4;

std::string UniqueDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "htapex_durable_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

KbEntry MakeEntry(int i) {
  KbEntry e;
  e.sql = "SELECT " + std::to_string(i);
  e.embedding.assign(kDim, 0.0);
  e.embedding[i % kDim] = 1.0 + 0.25 * i;
  e.tp_plan_json = "{\"op\":\"tp" + std::to_string(i) + "\"}";
  e.ap_plan_json = "{\"op\":\"ap" + std::to_string(i) + "\"}";
  e.faster = (i % 2 == 0) ? EngineKind::kTp : EngineKind::kAp;
  e.tp_latency_ms = 1.0 + i;
  e.ap_latency_ms = 2.0 + i;
  e.expert_explanation = "explanation #" + std::to_string(i);
  return e;
}

/// Full deep equality of two KBs, including tombstones, sequences and the
/// sequence counter — what "recovery lost nothing" means.
void ExpectSameKb(const KnowledgeBase& a, const KnowledgeBase& b) {
  ASSERT_EQ(a.total_entries(), b.total_entries());
  EXPECT_EQ(a.size(), b.size());
  EXPECT_EQ(a.next_sequence(), b.next_sequence());
  for (int id = 0; id < static_cast<int>(a.total_entries()); ++id) {
    SCOPED_TRACE("id=" + std::to_string(id));
    EXPECT_EQ(a.IsExpired(id), b.IsExpired(id));
    const KbEntry* x = a.RawGet(id);
    const KbEntry* y = b.RawGet(id);
    ASSERT_NE(x, nullptr);
    ASSERT_NE(y, nullptr);
    EXPECT_EQ(x->sql, y->sql);
    EXPECT_EQ(x->embedding, y->embedding);
    EXPECT_EQ(x->tp_plan_json, y->tp_plan_json);
    EXPECT_EQ(x->ap_plan_json, y->ap_plan_json);
    EXPECT_EQ(x->faster, y->faster);
    EXPECT_EQ(x->tp_latency_ms, y->tp_latency_ms);
    EXPECT_EQ(x->ap_latency_ms, y->ap_latency_ms);
    EXPECT_EQ(x->expert_explanation, y->expert_explanation);
    EXPECT_EQ(x->sequence, y->sequence);
  }
}

TEST(Crc32Test, KnownVectorsAndIncrementality) {
  // IEEE CRC-32 of "123456789" is the classic check value.
  EXPECT_EQ(Crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(Crc32(""), 0u);
  // Seeded continuation equals the one-shot checksum.
  std::string s = "hello, durable world";
  uint32_t whole = Crc32(s);
  uint32_t part = Crc32(s.substr(0, 7));
  EXPECT_EQ(Crc32(s.substr(7), part), whole);
  EXPECT_NE(Crc32("a"), Crc32("b"));
}

TEST(WalRecordTest, EncodeDecodeRoundTrip) {
  KbMutation insert;
  insert.op = KbMutation::Op::kInsert;
  insert.entry = MakeEntry(3);
  auto decoded = DecodeWalRecord(EncodeWalRecord(insert), kDim);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->op, KbMutation::Op::kInsert);
  EXPECT_EQ(decoded->entry.sql, insert.entry.sql);
  EXPECT_EQ(decoded->entry.embedding, insert.entry.embedding);
  EXPECT_EQ(decoded->entry.expert_explanation,
            insert.entry.expert_explanation);
  EXPECT_EQ(decoded->entry.faster, EngineKind::kAp);

  KbMutation correct;
  correct.op = KbMutation::Op::kCorrect;
  correct.id = 7;
  correct.text = "better explanation";
  decoded = DecodeWalRecord(EncodeWalRecord(correct), kDim);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, KbMutation::Op::kCorrect);
  EXPECT_EQ(decoded->id, 7);
  EXPECT_EQ(decoded->text, "better explanation");

  KbMutation expire;
  expire.op = KbMutation::Op::kExpire;
  expire.id = 2;
  decoded = DecodeWalRecord(EncodeWalRecord(expire), kDim);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->op, KbMutation::Op::kExpire);
  EXPECT_EQ(decoded->id, 2);

  EXPECT_FALSE(DecodeWalRecord("not json", kDim).ok());
  EXPECT_FALSE(DecodeWalRecord("{\"op\":\"bogus\"}", kDim).ok());
}

TEST(WalWriterTest, AppendSyncReplay) {
  std::string dir = UniqueDir("wal_roundtrip");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal-000000.log";
  DurabilityMetrics metrics;
  auto writer = WalWriter::Open(path, &metrics);
  ASSERT_TRUE(writer.ok()) << writer.status().ToString();
  std::vector<std::string> payloads;
  for (int i = 0; i < 5; ++i) {
    KbMutation r;
    r.op = KbMutation::Op::kCorrect;
    r.id = i;
    r.text = "text " + std::to_string(i);
    payloads.push_back(EncodeWalRecord(r));
    ASSERT_TRUE(writer->Append(payloads.back()).ok());
  }
  ASSERT_TRUE(writer->Sync().ok());
  EXPECT_EQ(writer->offset(), writer->synced_offset());
  EXPECT_EQ(metrics.wal_appends.Value(), 5u);
  EXPECT_EQ(metrics.wal_fsyncs.Value(), 1u);

  std::vector<int> ids;
  WalReplayStats stats;
  Status st = ReplayWalSegment(
      path, kDim, /*truncate_torn_tail=*/true,
      [&](const KbMutation& r) {
        ids.push_back(r.id);
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(stats.replayed, 5u);
  EXPECT_EQ(stats.truncated, 0u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(ids, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(WalWriterTest, TornTailTruncatedOnReplay) {
  std::string dir = UniqueDir("wal_torn");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal-000000.log";
  {
    auto writer = WalWriter::Open(path, nullptr);
    ASSERT_TRUE(writer.ok());
    KbMutation r;
    r.op = KbMutation::Op::kExpire;
    r.id = 1;
    ASSERT_TRUE(writer->Append(EncodeWalRecord(r)).ok());
    ASSERT_TRUE(writer->Sync().ok());
  }
  uintmax_t clean_size = std::filesystem::file_size(path);
  {
    // A crash mid-append: only a few bytes of the next frame land on disk.
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out.write("\x40\x00\x00\x00\xde\xad", 6);
  }
  ASSERT_GT(std::filesystem::file_size(path), clean_size);
  WalReplayStats stats;
  uint64_t replayed = 0;
  Status st = ReplayWalSegment(
      path, kDim, /*truncate_torn_tail=*/true,
      [&](const KbMutation&) {
        ++replayed;
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_EQ(replayed, 1u);
  EXPECT_EQ(stats.truncated, 1u);
  EXPECT_EQ(stats.corrupt, 0u);
  // The torn bytes are gone: the writer can append at a clean boundary.
  EXPECT_EQ(std::filesystem::file_size(path), clean_size);
}

TEST(WalWriterTest, CorruptRecordStopsReplay) {
  std::string dir = UniqueDir("wal_corrupt");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/wal-000000.log";
  {
    auto writer = WalWriter::Open(path, nullptr);
    ASSERT_TRUE(writer.ok());
    for (int i = 0; i < 3; ++i) {
      KbMutation r;
      r.op = KbMutation::Op::kExpire;
      r.id = i;
      ASSERT_TRUE(writer->Append(EncodeWalRecord(r)).ok());
    }
    ASSERT_TRUE(writer->Sync().ok());
  }
  // Flip one payload byte inside the *second* record.
  KbMutation probe;
  probe.op = KbMutation::Op::kExpire;
  probe.id = 0;
  size_t frame = 8 + EncodeWalRecord(probe).size();
  {
    std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(static_cast<std::streamoff>(frame + 8 + 2));
    f.put('\xff');
  }
  WalReplayStats stats;
  uint64_t replayed = 0;
  Status st = ReplayWalSegment(
      path, kDim, /*truncate_torn_tail=*/true,
      [&](const KbMutation&) {
        ++replayed;
        return Status::OK();
      },
      &stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  // Record 0 survives; record 1 is corrupt; record 2 is unreachable.
  EXPECT_EQ(replayed, 1u);
  EXPECT_EQ(stats.corrupt, 1u);
}

TEST(KnowledgeBaseTest, SaveJsonIsAtomic) {
  std::string dir = UniqueDir("save_atomic");
  std::filesystem::create_directories(dir);
  std::string path = dir + "/kb.json";
  KnowledgeBase kb(kDim);
  ASSERT_TRUE(kb.Insert(MakeEntry(0)).ok());
  ASSERT_TRUE(kb.SaveJson(path).ok());
  // No temp file survives a successful save, and re-saving over an existing
  // export replaces it in one rename (never a half-written file).
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  ASSERT_TRUE(kb.Insert(MakeEntry(1)).ok());
  ASSERT_TRUE(kb.SaveJson(path).ok());
  EXPECT_FALSE(std::filesystem::exists(path + ".tmp"));
  KnowledgeBase loaded(kDim);
  ASSERT_TRUE(loaded.LoadJson(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  // A save into a directory that cannot be created fails without touching
  // the destination name.
  EXPECT_FALSE(kb.SaveJson(dir + "/no_such_subdir/kb.json").ok());
  EXPECT_FALSE(std::filesystem::exists(dir + "/no_such_subdir"));
}

TEST(KnowledgeBaseTest, LoadJsonRejectsBadExports) {
  std::string dir = UniqueDir("load_validation");
  std::filesystem::create_directories(dir);
  auto write = [&](const std::string& name, const std::string& text) {
    std::ofstream(dir + "/" + name) << text;
    return dir + "/" + name;
  };
  const char* header = "{\"dim\": 4, \"entries\": [";
  std::string good_entry =
      "{\"id\": 0, \"sql\": \"q\", \"embedding\": [1,0,0,0], "
      "\"sequence\": 5, \"explanation\": \"e\"}";

  // Whole-file dimension mismatch.
  KnowledgeBase kb(kDim);
  std::string p = write("dim.json", "{\"dim\": 3, \"entries\": []}");
  EXPECT_EQ(kb.LoadJson(p).code(), StatusCode::kInvalidArgument);

  // Per-entry embedding dimension mismatch.
  p = write("entry_dim.json",
            std::string(header) +
                "{\"id\": 0, \"sql\": \"q\", \"embedding\": [1,2]}]}");
  EXPECT_EQ(kb.LoadJson(p).code(), StatusCode::kInvalidArgument);

  // Duplicate ids.
  p = write("dup.json", std::string(header) + good_entry + "," +
                            good_entry + "]}");
  EXPECT_EQ(kb.LoadJson(p).code(), StatusCode::kInvalidArgument);

  // Negative id / negative sequence.
  p = write("neg_id.json",
            std::string(header) +
                "{\"id\": -2, \"sql\": \"q\", \"embedding\": [1,0,0,0]}]}");
  EXPECT_EQ(kb.LoadJson(p).code(), StatusCode::kInvalidArgument);
  p = write("neg_seq.json",
            std::string(header) +
                "{\"id\": 0, \"sql\": \"q\", \"embedding\": [1,0,0,0], "
                "\"sequence\": -7}]}");
  EXPECT_EQ(kb.LoadJson(p).code(), StatusCode::kInvalidArgument);

  // Validation is atomic: a bad trailing entry must not half-load the file.
  p = write("half.json", std::string(header) + good_entry +
                             ",{\"id\": 1, \"sql\": \"q2\", "
                             "\"embedding\": [1,2]}]}");
  EXPECT_FALSE(kb.LoadJson(p).ok());
  EXPECT_EQ(kb.size(), 0u);

  // A good file restores sequences and resumes the counter past them.
  p = write("good.json", std::string(header) + good_entry + "]}");
  ASSERT_TRUE(kb.LoadJson(p).ok());
  ASSERT_EQ(kb.size(), 1u);
  EXPECT_EQ(kb.Entries()[0]->sequence, 5);
  EXPECT_EQ(kb.next_sequence(), 6);
  auto id = kb.Insert(MakeEntry(9));
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(kb.Get(*id)->sequence, 6);
}

TEST(DurableKbTest, BootstrapRecoverRoundTrip) {
  std::string dir = UniqueDir("roundtrip");
  KnowledgeBase kb(kDim);
  ASSERT_TRUE(kb.Insert(MakeEntry(0)).ok());  // pre-attach seed content
  {
    DurabilityOptions opt;
    opt.dir = dir;
    DurableKnowledgeBase durable(opt);
    EXPECT_FALSE(DurableKnowledgeBase::HasState(dir));
    auto info = durable.Attach(&kb);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    EXPECT_FALSE(info->recovered);  // fresh dir => bootstrap
    EXPECT_TRUE(DurableKnowledgeBase::HasState(dir));
    // Mutations of every kind, logged write-ahead.
    for (int i = 1; i < 6; ++i) ASSERT_TRUE(kb.Insert(MakeEntry(i)).ok());
    ASSERT_TRUE(kb.CorrectExplanation(2, "corrected").ok());
    ASSERT_TRUE(kb.Expire(3).ok());
    EXPECT_EQ(durable.metrics()->wal_appends.Value(), 7u);
    EXPECT_EQ(durable.metrics()->wal_fsyncs.Value(), 7u);  // fsync_every_n=1
  }
  KnowledgeBase recovered(kDim);
  DurabilityOptions opt;
  opt.dir = dir;
  DurableKnowledgeBase durable(opt);
  auto info = durable.Attach(&recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_TRUE(info->recovered);
  EXPECT_EQ(info->snapshot_entries, 1u);  // the bootstrap snapshot
  EXPECT_EQ(info->replayed_records, 7u);
  EXPECT_EQ(info->snapshot_fallbacks, 0u);
  ExpectSameKb(recovered, kb);
  EXPECT_EQ(recovered.Get(2)->expert_explanation, "corrected");
  EXPECT_EQ(recovered.Get(3), nullptr);  // expired stays expired
  // The recovered instance keeps logging: one more mutation round-trips.
  ASSERT_TRUE(recovered.Insert(MakeEntry(6)).ok());
}

TEST(DurableKbTest, RecoverRequiresEmptyKb) {
  std::string dir = UniqueDir("nonempty");
  KnowledgeBase kb(kDim);
  {
    DurabilityOptions opt;
    opt.dir = dir;
    DurableKnowledgeBase durable(opt);
    ASSERT_TRUE(durable.Attach(&kb).ok());
    ASSERT_TRUE(kb.Insert(MakeEntry(0)).ok());
  }
  KnowledgeBase dirty(kDim);
  ASSERT_TRUE(dirty.Insert(MakeEntry(1)).ok());
  DurabilityOptions opt;
  opt.dir = dir;
  DurableKnowledgeBase durable(opt);
  EXPECT_EQ(durable.Attach(&dirty).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(DurableKbTest, SnapshotTriggerRotatesAndCollectsGarbage) {
  std::string dir = UniqueDir("rotation");
  KnowledgeBase kb(kDim);
  DurabilityOptions opt;
  opt.dir = dir;
  opt.snapshot_every_n = 3;
  DurableKnowledgeBase durable(opt);
  ASSERT_TRUE(durable.Attach(&kb).ok());
  for (int i = 0; i < 14; ++i) ASSERT_TRUE(kb.Insert(MakeEntry(i)).ok());
  EXPECT_GE(durable.metrics()->snapshots.Value(), 4u);
  EXPECT_GE(durable.metrics()->wal_rotations.Value(), 4u);
  EXPECT_GT(durable.metrics()->gc_files.Value(), 0u);
  // Only kKeptGenerations snapshots remain on disk; superseded WAL
  // segments are gone too.
  size_t snapshots = 0;
  size_t segments = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    std::string name = f.path().filename().string();
    if (name.rfind("snapshot-", 0) == 0) ++snapshots;
    if (name.rfind("wal-", 0) == 0) ++segments;
  }
  EXPECT_EQ(snapshots, 2u);
  EXPECT_LE(segments, 2u);
  // And the trimmed directory still recovers the full state.
  KnowledgeBase recovered(kDim);
  DurabilityOptions ropt;
  ropt.dir = dir;
  DurableKnowledgeBase rdurable(ropt);
  auto info = rdurable.Attach(&recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  ExpectSameKb(recovered, kb);
}

TEST(DurableKbTest, CorruptNewestSnapshotFallsBackOneGeneration) {
  std::string dir = UniqueDir("fallback");
  KnowledgeBase kb(kDim);
  DurabilityOptions opt;
  opt.dir = dir;
  DurableKnowledgeBase durable(opt);
  ASSERT_TRUE(durable.Attach(&kb).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(kb.Insert(MakeEntry(i)).ok());
  ASSERT_TRUE(durable.Snapshot().ok());  // generation 1
  ASSERT_TRUE(kb.Insert(MakeEntry(4)).ok());
  durable.Detach();

  // Rot the newest snapshot in place (its checksum no longer matches).
  std::string newest = dir + "/snapshot-000001.json";
  ASSERT_TRUE(std::filesystem::exists(newest));
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(10);
    f.put('\x00');
  }

  KnowledgeBase recovered(kDim);
  DurabilityOptions ropt;
  ropt.dir = dir;
  DurableKnowledgeBase rdurable(ropt);
  auto info = rdurable.Attach(&recovered);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->snapshot_fallbacks, 1u);
  // Generation 0's snapshot was empty, but its WAL segment (kept on disk
  // precisely for this fallback) replays the full history.
  EXPECT_EQ(info->replayed_records, 5u);
  ExpectSameKb(recovered, kb);
}

TEST(DurableKbTest, ShrinkToExpiriesAreDurable) {
  // KbManager::ShrinkTo routes through KnowledgeBase::Expire, so a usage-
  // based shrink is write-ahead logged like any hand-issued mutation.
  std::string dir = UniqueDir("shrink");
  KnowledgeBase kb(kDim);
  DurabilityOptions opt;
  opt.dir = dir;
  DurableKnowledgeBase durable(opt);
  ASSERT_TRUE(durable.Attach(&kb).ok());
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(kb.Insert(MakeEntry(i)).ok());
  auto removed = KbManager::ShrinkTo(&kb, 5);
  ASSERT_TRUE(removed.ok());
  EXPECT_EQ(*removed, 3);
  EXPECT_EQ(kb.size(), 5u);
  EXPECT_EQ(durable.metrics()->wal_appends.Value(), 11u);  // 8 + 3 expiries
  durable.Detach();

  KnowledgeBase recovered(kDim);
  DurabilityOptions ropt;
  ropt.dir = dir;
  DurableKnowledgeBase rdurable(ropt);
  ASSERT_TRUE(rdurable.Attach(&recovered).ok());
  ExpectSameKb(recovered, kb);
  EXPECT_EQ(recovered.size(), 5u);
}

TEST(DurableKbTest, DetachStopsLogging) {
  std::string dir = UniqueDir("detach");
  KnowledgeBase kb(kDim);
  DurabilityOptions opt;
  opt.dir = dir;
  DurableKnowledgeBase durable(opt);
  ASSERT_TRUE(durable.Attach(&kb).ok());
  ASSERT_TRUE(kb.Insert(MakeEntry(0)).ok());
  durable.Detach();
  ASSERT_TRUE(kb.Insert(MakeEntry(1)).ok());
  EXPECT_EQ(durable.metrics()->wal_appends.Value(), 1u);
  EXPECT_EQ(kb.mutation_sink(), nullptr);
}

}  // namespace
}  // namespace htapex
