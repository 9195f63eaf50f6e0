#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/file_io.h"
#include "common/json.h"
#include "common/string_util.h"
#include "durable/durable_kb.h"
#include "durable/wal.h"
#include "lifecycle/feedback_buffer.h"
#include "vectordb/knowledge_base.h"

namespace htapex {
namespace {

constexpr int kDim = 4;

std::string UniqueDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "htapex_crash_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

KbEntry MakeEntry(int i) {
  KbEntry e;
  e.sql = "SELECT " + std::to_string(i);
  e.embedding.assign(kDim, 0.0);
  e.embedding[i % kDim] = 1.0 + 0.25 * i;
  e.tp_plan_json = "{\"op\":\"tp\"}";
  e.ap_plan_json = "{\"op\":\"ap\"}";
  e.faster = (i % 2 == 0) ? EngineKind::kTp : EngineKind::kAp;
  e.tp_latency_ms = 1.0 + i;
  e.ap_latency_ms = 2.0 + i;
  e.expert_explanation = "explanation #" + std::to_string(i);
  return e;
}

void ExpectSameKb(const KnowledgeBase& a, const KnowledgeBase& b) {
  ASSERT_EQ(a.total_entries(), b.total_entries());
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
    EXPECT_EQ(x->expert_explanation, y->expert_explanation);
    EXPECT_EQ(x->sequence, y->sequence);
  }
}

/// One scripted mutation; the same deterministic sequence drives every
/// matrix cell so a cell is fully identified by (fault point, crash index).
struct ScriptOp {
  enum class Kind { kInsert, kCorrect, kExpire };
  Kind kind = Kind::kInsert;
  int arg = 0;  // insert ordinal, or the target id
};

std::vector<ScriptOp> BuildScript() {
  using K = ScriptOp::Kind;
  // Mixed so every WAL op kind crosses every fault point, with enough
  // inserts that the every-3-mutations snapshot trigger fires several
  // times mid-script (exercising the snapshot points at p=1).
  return {
      {K::kInsert, 0}, {K::kInsert, 1}, {K::kInsert, 2},  {K::kCorrect, 1},
      {K::kInsert, 3}, {K::kExpire, 2}, {K::kInsert, 4},  {K::kCorrect, 0},
      {K::kInsert, 5}, {K::kExpire, 0}, {K::kCorrect, 3}, {K::kInsert, 6},
  };
}

Status ApplyOp(KnowledgeBase* kb, const ScriptOp& op) {
  switch (op.kind) {
    case ScriptOp::Kind::kInsert:
      return kb->Insert(MakeEntry(op.arg)).status();
    case ScriptOp::Kind::kCorrect:
      return kb->CorrectExplanation(
          op.arg, "corrected #" + std::to_string(op.arg));
    case ScriptOp::Kind::kExpire:
      return kb->Expire(op.arg);
  }
  return Status::Internal("unreachable");
}

/// The tentpole guarantee, exhaustively: for every fault point and every
/// position in the mutation script, kill the write path at that exact step
/// and assert recovery equals the pre-crash state minus at most the one
/// in-flight mutation (exactly the mutations whose commit returned OK —
/// fsync_every_n == 1 means an aborted mutation is never half-durable).
TEST(CrashMatrixTest, EveryFaultPointAtEveryScriptStep) {
  const std::vector<ScriptOp> script = BuildScript();
  const char* points[] = {kFaultWalAppend, kFaultWalFsync, kFaultSnapshotWrite,
                          kFaultSnapshotRename};
  uint64_t seed = FaultInjector::EnvSeed(42);
  int cells = 0;
  int crashed_cells = 0;
  for (const char* point : points) {
    auto faults =
        FaultInjector::Parse(std::string(point) + ":p=1", seed);
    ASSERT_TRUE(faults.ok()) << faults.status().ToString();
    for (size_t crash_at = 0; crash_at < script.size(); ++crash_at) {
      SCOPED_TRACE(std::string(point) + " @ op " + std::to_string(crash_at));
      std::string dir = UniqueDir(std::string(point) + "_" +
                                  std::to_string(crash_at));
      KnowledgeBase kb(kDim);
      KnowledgeBase shadow(kDim);  // what a crash may never lose
      {
        DurabilityOptions opt;
        opt.dir = dir;
        opt.snapshot_every_n = 3;
        DurableKnowledgeBase durable(opt);
        ASSERT_TRUE(durable.Attach(&kb).ok());
        for (size_t j = 0; j < crash_at; ++j) {
          ASSERT_TRUE(ApplyOp(&kb, script[j]).ok());
          ASSERT_TRUE(ApplyOp(&shadow, script[j]).ok());
        }
        durable.set_fault_injector(&*faults);
        Status st = ApplyOp(&kb, script[crash_at]);
        if (st.ok()) {
          // The armed point was not on this op's write path (e.g. a
          // snapshot point with no trigger due): the mutation committed.
          ASSERT_TRUE(ApplyOp(&shadow, script[crash_at]).ok());
        } else {
          ++crashed_cells;
        }
        // The simulated process is dead; the destructor just detaches.
      }
      KnowledgeBase recovered(kDim);
      DurabilityOptions opt;
      opt.dir = dir;
      opt.snapshot_every_n = 3;
      DurableKnowledgeBase durable(opt);
      auto info = durable.Attach(&recovered);
      ASSERT_TRUE(info.ok()) << info.status().ToString();
      EXPECT_TRUE(info->recovered);
      ExpectSameKb(recovered, shadow);
      // The recovered directory is fully writable again.
      ASSERT_TRUE(recovered.Insert(MakeEntry(99)).ok());
      ++cells;
      std::filesystem::remove_all(dir);
    }
  }
  EXPECT_EQ(cells, static_cast<int>(4 * script.size()));
  // The WAL points sit on every mutation's path, so at least the whole
  // wal.append and wal.fsync rows must have actually simulated a crash.
  EXPECT_GE(crashed_cells, static_cast<int>(2 * script.size()));
}

/// A crash during an explicit Snapshot() call (not the mutation-path
/// trigger) must leave the WAL authoritative: nothing is lost, and the
/// next attach both recovers and can snapshot again.
TEST(CrashMatrixTest, SnapshotCrashLeavesWalAuthoritative) {
  for (const char* point : {kFaultSnapshotWrite, kFaultSnapshotRename}) {
    SCOPED_TRACE(point);
    std::string dir = UniqueDir(std::string("snap_") + point);
    auto faults = FaultInjector::Parse(std::string(point) + ":p=1", 42);
    ASSERT_TRUE(faults.ok());
    KnowledgeBase kb(kDim);
    {
      DurabilityOptions opt;
      opt.dir = dir;
      DurableKnowledgeBase durable(opt);
      ASSERT_TRUE(durable.Attach(&kb).ok());
      for (int i = 0; i < 5; ++i) ASSERT_TRUE(kb.Insert(MakeEntry(i)).ok());
      durable.set_fault_injector(&*faults);
      EXPECT_FALSE(durable.Snapshot().ok());
      EXPECT_EQ(durable.metrics()->snapshot_failures.Value(), 1u);
    }
    KnowledgeBase recovered(kDim);
    DurabilityOptions opt;
    opt.dir = dir;
    DurableKnowledgeBase durable(opt);
    auto info = durable.Attach(&recovered);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    ExpectSameKb(recovered, kb);
    ASSERT_TRUE(durable.Snapshot().ok());  // no longer armed: succeeds
    std::filesystem::remove_all(dir);
  }
}

/// Fuzz-style corruption: flip a bit or truncate the WAL at seeded
/// positions. Replay must never crash, must recover a strict prefix of the
/// original history, and must report any loss through DurabilityMetrics.
TEST(CrashMatrixTest, CorruptWalNeverCrashesAndReportsLoss) {
  constexpr int kRecords = 10;
  std::string pristine = UniqueDir("fuzz_pristine");
  KnowledgeBase original(kDim);
  {
    DurabilityOptions opt;
    opt.dir = pristine;
    DurableKnowledgeBase durable(opt);
    ASSERT_TRUE(durable.Attach(&original).ok());
    for (int i = 0; i < kRecords; ++i) {
      ASSERT_TRUE(original.Insert(MakeEntry(i)).ok());
    }
  }
  std::string wal = pristine + "/wal-000000.log";
  ASSERT_TRUE(std::filesystem::exists(wal));
  const auto wal_size =
      static_cast<uint64_t>(std::filesystem::file_size(wal));

  // Frame boundaries, recomputed from the record encoding: a truncation
  // exactly on a boundary yields a shorter-but-valid log (a loss replay
  // cannot detect), so truncation trials step off boundaries. Checking the
  // sum against the real file also pins the on-disk framing.
  std::vector<uint64_t> boundaries = {0};
  for (int i = 0; i < kRecords; ++i) {
    KbMutation r;
    r.op = KbMutation::Op::kInsert;
    r.entry = MakeEntry(i);
    boundaries.push_back(boundaries.back() + 8 + EncodeWalRecord(r).size());
  }
  ASSERT_EQ(boundaries.back(), wal_size);

  uint64_t seed = FaultInjector::EnvSeed(42);
  for (int trial = 0; trial < 24; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    std::string dir = UniqueDir("fuzz_" + std::to_string(trial));
    std::filesystem::copy(pristine, dir);
    std::string target = dir + "/wal-000000.log";
    // Deterministic pseudo-random position from the shared seed mixer.
    uint64_t pos =
        MixFaultSeed(seed, 0xF022, static_cast<uint64_t>(trial), 0) %
        wal_size;
    if (trial % 2 != 0) {
      for (uint64_t b : boundaries) {
        if (pos == b) pos += 1;
      }
    }
    if (trial % 2 == 0) {
      // Bit flip somewhere in the log (header, checksum or payload).
      std::fstream f(target, std::ios::binary | std::ios::in | std::ios::out);
      f.seekg(static_cast<std::streamoff>(pos));
      char byte = 0;
      f.get(byte);
      f.seekp(static_cast<std::streamoff>(pos));
      f.put(static_cast<char>(
          byte ^ static_cast<char>(1u << (trial / 2 % 8))));
    } else {
      std::filesystem::resize_file(target, pos);
    }

    KnowledgeBase recovered(kDim);
    DurabilityOptions opt;
    opt.dir = dir;
    DurableKnowledgeBase durable(opt);
    auto info = durable.Attach(&recovered);
    ASSERT_TRUE(info.ok()) << info.status().ToString();
    // Whatever survives is a strict prefix of the original history.
    ASSERT_LE(recovered.total_entries(), static_cast<size_t>(kRecords));
    for (int id = 0; id < static_cast<int>(recovered.total_entries()); ++id) {
      EXPECT_EQ(recovered.RawGet(id)->sql, original.RawGet(id)->sql);
      EXPECT_EQ(recovered.RawGet(id)->sequence,
                original.RawGet(id)->sequence);
    }
    // Any loss is visible in the metrics, never silent.
    uint64_t lost =
        static_cast<uint64_t>(kRecords) - recovered.total_entries();
    if (lost > 0) {
      EXPECT_GT(durable.metrics()->truncated_records.Value() +
                    durable.metrics()->corrupt_records.Value(),
                0u);
    }
    // And the salvaged state accepts new mutations.
    ASSERT_TRUE(recovered.Insert(MakeEntry(99)).ok());
    std::filesystem::remove_all(dir);
  }
  std::filesystem::remove_all(pristine);
}

// --- decoder fuzz --------------------------------------------------------

/// Object members under `node`, depth first.
size_t CountMembers(const JsonValue& node) {
  size_t n = 0;
  for (const auto& [key, value] : node.object()) n += 1 + CountMembers(value);
  for (const JsonValue& item : node.array()) n += CountMembers(item);
  return n;
}

/// Replaces the value of member number `*k` (depth first) with `value`.
bool ReplaceMember(JsonValue* node, size_t* k, const JsonValue& value) {
  for (auto& [key, member] : node->object()) {
    if ((*k)-- == 0) {
      member = value;
      return true;
    }
    if (ReplaceMember(&member, k, value)) return true;
  }
  for (JsonValue& item : node->array()) {
    if (ReplaceMember(&item, k, value)) return true;
  }
  return false;
}

/// Applies one to three seeded mutations to `bytes`. Half swap one member
/// of the parsed document for a hostile value (out-of-range or negative
/// numbers, wrong types) and re-serialize it, so the decoders' own checks
/// see the mutation, not just the JSON parser. The rest are byte-level:
/// an inserted token, a structural byte, a bit flip, a deleted range or a
/// truncation.
std::string Mutate(std::string bytes, uint64_t seed, uint64_t trial) {
  JsonValue hostile_array = JsonValue::MakeArray();
  hostile_array.Append(JsonValue::Double(1e300));
  hostile_array.Append(JsonValue::String("x"));
  const JsonValue kValues[] = {
      JsonValue::Double(1e300),      JsonValue::Double(-1e300),
      JsonValue::Int(INT64_MAX),     JsonValue::Int(-1),
      JsonValue::Int(4294967296),    JsonValue::Int(0),
      JsonValue::Null(),             JsonValue::Bool(true),
      JsonValue::String("AP"),       JsonValue::MakeArray(),
      JsonValue::MakeObject(),       hostile_array,
      JsonValue::Double(0.5)};
  static const char* kTokens[] = {"1e999", "-1", "null", "[]", "{}", ",",
                                  "\"", "]", "}", "9223372036854775807"};
  static const char kBytes[] = "{}[]\":,.-+eE0123456789 \\ntf";
  const int n = 1 + static_cast<int>(MixFaultSeed(seed, 0xF0, trial, 0) % 3);
  for (int m = 0; m < n; ++m) {
    const uint64_t d = MixFaultSeed(seed, 0xF0, trial, m + 1);
    const size_t pos = bytes.empty() ? 0 : (d >> 8) % bytes.size();
    const uint64_t pick = d >> 40;
    switch (d % 10) {
      case 0:
      case 1:
      case 2:
      case 3:
      case 4: {
        auto doc = JsonValue::Parse(bytes);
        if (!doc.ok() || CountMembers(*doc) == 0) break;
        size_t k = (d >> 8) % CountMembers(*doc);
        ReplaceMember(&*doc, &k, kValues[pick % std::size(kValues)]);
        bytes = doc->Dump();
        break;
      }
      case 5:
        bytes.insert(pos, kTokens[pick % std::size(kTokens)]);
        break;
      case 6:
        if (!bytes.empty()) bytes[pos] = kBytes[pick % (sizeof(kBytes) - 1)];
        break;
      case 7:
        if (!bytes.empty()) bytes[pos] ^= static_cast<char>(1u << pick % 8);
        break;
      case 8:
        bytes.erase(pos, 1 + pick % 8);
        break;
      default:
        bytes.resize(pos);
        break;
    }
  }
  return bytes;
}

void WriteBytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// A recovered directory must take new mutations; a refused one must say
/// why with a typed status.
void ExpectValueOrTypedStatus(const std::string& dir) {
  KnowledgeBase recovered(kDim);
  DurabilityOptions opt;
  opt.dir = dir;
  DurableKnowledgeBase durable(opt);
  auto info = durable.Attach(&recovered);
  if (!info.ok()) {
    EXPECT_FALSE(info.status().message().empty());
    return;
  }
  ASSERT_TRUE(recovered.Insert(MakeEntry(99)).ok());
}

/// Seeded byte-mutation fuzz over every decoder that reads KB and feedback
/// files: the KB export (LoadJson), the MANIFEST, a snapshot, WAL insert /
/// correct / expire payloads and feedback-sample payloads. Checksummed
/// bytes are re-framed (WAL and feedback frames) or re-checksummed (the
/// snapshot's CRC in the MANIFEST) after mutation, so every mutation
/// reaches the JSON decoders instead of stopping at the checksum. Every
/// input must end in a value or a typed Status.
TEST(CrashMatrixTest, MutatedDecoderInputsEndInValueOrStatus) {
  constexpr int kTrials = 100;
  const uint64_t seed = FaultInjector::EnvSeed(42);
  const std::string pristine = UniqueDir("decoder_pristine");
  KnowledgeBase original(kDim);
  {
    DurabilityOptions opt;
    opt.dir = pristine;
    opt.snapshot_every_n = 3;
    DurableKnowledgeBase durable(opt);
    ASSERT_TRUE(durable.Attach(&original).ok());
    for (const ScriptOp& op : BuildScript()) {
      ASSERT_TRUE(ApplyOp(&original, op).ok());
    }
  }
  auto manifest_text = ReadFile(pristine + "/MANIFEST");
  ASSERT_TRUE(manifest_text.ok());
  auto manifest = JsonValue::Parse(*manifest_text);
  ASSERT_TRUE(manifest.ok());
  const JsonValue& newest = manifest->Find("generations")->array().back();
  const std::string snapshot_name = newest.GetString("snapshot");
  const std::string active_segment =
      pristine + StrFormat("/wal-%06lld.log",
                           static_cast<long long>(newest.GetInt("wal_segment")));
  auto snapshot_text = ReadFile(pristine + "/" + snapshot_name);
  ASSERT_TRUE(snapshot_text.ok());
  auto segment_text = ReadFile(active_segment);
  ASSERT_TRUE(segment_text.ok());

  KbMutation insert;
  insert.op = KbMutation::Op::kInsert;
  insert.entry = MakeEntry(7);
  KbMutation correct;
  correct.op = KbMutation::Op::kCorrect;
  correct.id = 1;
  correct.text = "fuzzed correction";
  KbMutation expire;
  expire.op = KbMutation::Op::kExpire;
  expire.id = 3;
  const std::string wal_payloads[] = {EncodeWalRecord(insert),
                                      EncodeWalRecord(correct),
                                      EncodeWalRecord(expire)};

  const std::string export_path = pristine + "/export.json";
  ASSERT_TRUE(original.SaveJson(export_path).ok());
  auto export_text = ReadFile(export_path);
  ASSERT_TRUE(export_text.ok());

  FeedbackSample sample;
  for (PlanTreeFeatures* tree : {&sample.example.tp, &sample.example.ap}) {
    tree->num_nodes = 3;
    tree->feature_dim = 2;
    tree->x = {1, 0, 0.5, 1, 0.25, 1};
    tree->left = {1, -1, -1};
    tree->right = {2, -1, -1};
  }
  sample.p_ap = 0.75;
  const std::string sample_payload = EncodeFeedbackSample(sample);

  const std::string dir = UniqueDir("decoder_trial");
  int recovered_values = 0;
  for (int trial = 0; trial < kTrials; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    const auto t = static_cast<uint64_t>(trial);
    {
      // KB export: LoadJson validates the whole file before applying any.
      WriteBytes(export_path, Mutate(*export_text, seed, 5 * t));
      KnowledgeBase kb(kDim);
      Status st = kb.LoadJson(export_path);
      if (st.ok()) {
        ASSERT_TRUE(kb.Insert(MakeEntry(99)).ok());
      } else {
        EXPECT_EQ(kb.size(), 0u) << st;
      }
    }
    {
      // MANIFEST.
      std::filesystem::remove_all(dir);
      std::filesystem::copy(pristine, dir);
      WriteBytes(dir + "/MANIFEST", Mutate(*manifest_text, seed, 5 * t + 1));
      ExpectValueOrTypedStatus(dir);
    }
    {
      // Snapshot, with its CRC rewritten so recovery decodes it.
      std::filesystem::remove_all(dir);
      std::filesystem::copy(pristine, dir);
      const std::string bytes = Mutate(*snapshot_text, seed, 5 * t + 2);
      WriteBytes(dir + "/" + snapshot_name, bytes);
      JsonValue m = *manifest;
      for (auto& [key, value] : m.object()) {
        if (key != "generations") continue;
        for (JsonValue& g : value.array()) {
          if (g.GetString("snapshot") == snapshot_name) {
            g.Set("crc", JsonValue::Int(Crc32(bytes)));
          }
        }
      }
      WriteBytes(dir + "/MANIFEST", m.Dump());
      ExpectValueOrTypedStatus(dir);
    }
    {
      // WAL payload of each op kind, re-framed onto the active segment.
      std::filesystem::remove_all(dir);
      std::filesystem::copy(pristine, dir);
      std::string segment = *segment_text;
      AppendWalFrame(&segment, Mutate(wal_payloads[trial % 3], seed, 5 * t + 3));
      WriteBytes(dir + active_segment.substr(pristine.size()), segment);
      KnowledgeBase recovered(kDim);
      DurabilityOptions opt;
      opt.dir = dir;
      DurableKnowledgeBase durable(opt);
      auto info = durable.Attach(&recovered);
      ASSERT_TRUE(info.ok()) << info.status();  // bad records never fail it
      ASSERT_GE(recovered.total_entries(), original.total_entries());
      ASSERT_TRUE(recovered.Insert(MakeEntry(99)).ok());
      ++recovered_values;
    }
    {
      // Feedback sample between two good ones, framed as the log does.
      std::filesystem::remove_all(dir);
      std::filesystem::create_directories(dir);
      std::string log;
      AppendWalFrame(&log, sample_payload);
      AppendWalFrame(&log, Mutate(sample_payload, seed, 5 * t + 4));
      AppendWalFrame(&log, sample_payload);
      WriteBytes(dir + "/feedback.log", log);
      FeedbackBufferOptions fo;
      fo.dir = dir;
      FeedbackBuffer buffer(fo);
      ASSERT_TRUE(buffer.Open().ok());
      EXPECT_GE(buffer.size(), 1u);
      buffer.Add(sample);
      EXPECT_TRUE(buffer.durable());
    }
  }
  EXPECT_EQ(recovered_values, kTrials);
  std::filesystem::remove_all(dir);
  std::filesystem::remove_all(pristine);
}

}  // namespace
}  // namespace htapex
