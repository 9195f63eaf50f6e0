#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <utility>

#include "common/kernels.h"
#include "common/rng.h"
#include "vectordb/knowledge_base.h"
#include "vectordb/vector_store.h"

namespace htapex {
namespace {

std::vector<double> Vec(std::initializer_list<double> v) { return v; }

TEST(VectorStoreTest, AddSearchRemove) {
  VectorStore store(2);
  ASSERT_TRUE(store.Add(Vec({0, 0})).ok());
  ASSERT_TRUE(store.Add(Vec({1, 0})).ok());
  ASSERT_TRUE(store.Add(Vec({5, 5})).ok());
  EXPECT_EQ(store.size(), 3u);
  auto hits = store.Search(Vec({0.9, 0.1}), 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].id, 1);
  EXPECT_EQ(hits[1].id, 0);
  ASSERT_TRUE(store.Remove(1).ok());
  EXPECT_EQ(store.size(), 2u);
  hits = store.Search(Vec({0.9, 0.1}), 2);
  EXPECT_EQ(hits[0].id, 0);
  EXPECT_EQ(store.Remove(1).code(), StatusCode::kNotFound);
  EXPECT_EQ(store.Get(1), nullptr);
  ASSERT_NE(store.Get(0), nullptr);
}

TEST(VectorStoreTest, DimensionMismatchRejected) {
  VectorStore store(3);
  EXPECT_FALSE(store.Add(Vec({1, 2})).ok());
}

TEST(VectorStoreTest, KLargerThanStore) {
  VectorStore store(1);
  store.Add(Vec({1})).status();
  auto hits = store.Search(Vec({0}), 10);
  EXPECT_EQ(hits.size(), 1u);
}

TEST(VectorStoreTest, WrongDimensionOrBadKReturnsEmpty) {
  VectorStore store(3);
  ASSERT_TRUE(store.Add(Vec({1, 2, 3})).ok());
  EXPECT_TRUE(store.Search(Vec({1, 2, 3, 4}), 1).empty());
  EXPECT_TRUE(store.Search(Vec({1, 2}), 1).empty());
  EXPECT_TRUE(store.Search(Vec({1, 2, 3}), 0).empty());
  EXPECT_TRUE(store.Search(Vec({1, 2, 3}), -1).empty());
}

TEST(VectorStoreTest, TopKMatchesFullSortReference) {
  // Search keeps only the k best hits; the reference sorts every live hit
  // under the same (distance, id) order and takes the prefix. Duplicate
  // vectors tie on distance, so their relative order is the id order, and
  // removed ids must never come back.
  constexpr int kDim = 4;
  constexpr int kCount = 300;
  Rng rng(9);
  VectorStore store(kDim);
  std::vector<std::vector<double>> vecs;
  for (int i = 0; i < kCount; ++i) {
    std::vector<double> v(kDim);
    if (i % 5 == 4) {
      v = vecs[static_cast<size_t>(rng.Uniform(0, i - 1))];
    } else {
      for (double& x : v) x = rng.UniformReal(0, 1);
    }
    ASSERT_TRUE(store.Add(v).ok());
    vecs.push_back(std::move(v));
  }
  for (int id = 0; id < kCount; id += 7) ASSERT_TRUE(store.Remove(id).ok());
  const int live = static_cast<int>(store.size());

  for (int q = 0; q < 20; ++q) {
    // Even queries sit on a stored vector, so ties at distance 0 occur.
    std::vector<double> query =
        vecs[static_cast<size_t>(rng.Uniform(0, kCount - 1))];
    if (q % 2 == 1) {
      for (double& x : query) x = rng.UniformReal(0, 1);
    }
    std::vector<float> narrowed(query.begin(), query.end());
    std::vector<SearchHit> reference;
    for (int id = 0; id < kCount; ++id) {
      const float* row = store.Get(id);
      if (row == nullptr) continue;
      reference.push_back(SearchHit{
          id, static_cast<double>(
                  kernels::SquaredL2(narrowed.data(), row, kDim))});
    }
    ASSERT_EQ(static_cast<int>(reference.size()), live);
    std::sort(reference.begin(), reference.end(),
              [](const SearchHit& a, const SearchHit& b) {
                return a.distance < b.distance ||
                       (a.distance == b.distance && a.id < b.id);
              });
    for (int k : {1, 2, 5, live - 1, live, live + 10}) {
      std::vector<SearchHit> hits = store.Search(query, k);
      ASSERT_EQ(static_cast<int>(hits.size()), std::min(k, live)) << "k=" << k;
      for (size_t i = 0; i < hits.size(); ++i) {
        EXPECT_EQ(hits[i].id, reference[i].id) << "k=" << k << " hit " << i;
        EXPECT_EQ(hits[i].distance, reference[i].distance);
      }
    }
  }
}

KbEntry MakeEntry(std::vector<double> embedding, std::string sql,
                  EngineKind faster) {
  KbEntry e;
  e.sql = std::move(sql);
  e.embedding = std::move(embedding);
  e.tp_plan_json = "{'Node Type': 'Table Scan'}";
  e.ap_plan_json = "{'Node Type': 'Columnar scan'}";
  e.faster = faster;
  e.tp_latency_ms = 100;
  e.ap_latency_ms = 10;
  e.expert_explanation = "AP is faster.";
  return e;
}

TEST(KnowledgeBaseTest, InsertRetrieve) {
  KnowledgeBase kb(2);
  ASSERT_TRUE(kb.Insert(MakeEntry(Vec({0, 0}), "q0", EngineKind::kAp)).ok());
  ASSERT_TRUE(kb.Insert(MakeEntry(Vec({1, 1}), "q1", EngineKind::kTp)).ok());
  ASSERT_TRUE(kb.Insert(MakeEntry(Vec({5, 5}), "q2", EngineKind::kAp)).ok());
  EXPECT_EQ(kb.size(), 3u);
  auto hits = kb.Retrieve(Vec({0.8, 0.8}), 2);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0]->sql, "q1");
  EXPECT_EQ(hits[1]->sql, "q0");
}

TEST(KnowledgeBaseTest, DimensionMismatchRejected) {
  KnowledgeBase kb(4);
  EXPECT_FALSE(kb.Insert(MakeEntry(Vec({1, 2}), "q", EngineKind::kAp)).ok());
}

TEST(KnowledgeBaseTest, CorrectionAndExpiry) {
  KnowledgeBase kb(2);
  auto id0 = kb.Insert(MakeEntry(Vec({0, 0}), "q0", EngineKind::kAp));
  auto id1 = kb.Insert(MakeEntry(Vec({1, 1}), "q1", EngineKind::kAp));
  ASSERT_TRUE(id0.ok() && id1.ok());
  ASSERT_TRUE(kb.CorrectExplanation(*id0, "corrected text").ok());
  EXPECT_EQ(kb.Get(*id0)->expert_explanation, "corrected text");
  ASSERT_TRUE(kb.Expire(*id1).ok());
  EXPECT_EQ(kb.size(), 1u);
  EXPECT_EQ(kb.Get(*id1), nullptr);
  EXPECT_FALSE(kb.Expire(*id1).ok());
  EXPECT_FALSE(kb.CorrectExplanation(*id1, "x").ok());
  auto hits = kb.Retrieve(Vec({1, 1}), 2);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->sql, "q0");
}

TEST(KnowledgeBaseTest, SaveLoadRoundTrip) {
  KnowledgeBase kb(2);
  kb.Insert(MakeEntry(Vec({0.5, 1.5}), "query one", EngineKind::kAp)).status();
  kb.Insert(MakeEntry(Vec({2.5, 3.5}), "query 'two'", EngineKind::kTp)).status();
  std::string path = ::testing::TempDir() + "/kb.json";
  ASSERT_TRUE(kb.SaveJson(path).ok());
  KnowledgeBase loaded(2);
  ASSERT_TRUE(loaded.LoadJson(path).ok());
  EXPECT_EQ(loaded.size(), 2u);
  auto hits = loaded.Retrieve(Vec({0.5, 1.5}), 1);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->sql, "query one");
  EXPECT_EQ(hits[0]->faster, EngineKind::kAp);
  EXPECT_DOUBLE_EQ(hits[0]->tp_latency_ms, 100);
  // Dimension mismatch on load.
  KnowledgeBase wrong(3);
  EXPECT_FALSE(wrong.LoadJson(path).ok());
}

// Export values outside the decoder's ranges end in a typed status, never
// a narrowed or undefined integer: an id of 1e300 once read as INT64_MIN
// and was rejected as "negative".
TEST(KnowledgeBaseTest, LoadJsonRejectsOutOfRangeValues) {
  const std::string path = ::testing::TempDir() + "/kb_ranges.json";
  const std::pair<const char*, StatusCode> cases[] = {
      {R"({"id": 1e300, "embedding": [1, 2]})", StatusCode::kInvalidArgument},
      {R"({"id": 4294967296, "embedding": [1, 2]})",
       StatusCode::kInvalidArgument},
      {R"({"sequence": 1e999, "embedding": [1, 2]})",
       StatusCode::kInvalidArgument},
      {R"({"embedding": [1, "2"]})", StatusCode::kParseError},
      {R"({"embedding": {"a": 1}})", StatusCode::kParseError},
  };
  for (const auto& [entry, code] : cases) {
    std::ofstream(path) << R"({"dim": 2, "entries": [)" << entry << "]}";
    KnowledgeBase kb(2);
    EXPECT_EQ(kb.LoadJson(path).code(), code) << entry;
    EXPECT_EQ(kb.size(), 0u);
  }
  KnowledgeBase kb(2);
  EXPECT_EQ(kb.LoadJson(path + ".missing").code(), StatusCode::kNotFound);
  std::remove(path.c_str());
}

TEST(KnowledgeBaseTest, WrongDimensionOrBadKRetrieveReturnsEmpty) {
  KnowledgeBase kb(2);
  ASSERT_TRUE(kb.Insert(MakeEntry(Vec({0, 0}), "q0", EngineKind::kAp)).ok());
  EXPECT_TRUE(kb.Retrieve(Vec({0, 0, 0}), 1).empty());
  EXPECT_TRUE(kb.Retrieve(Vec({0}), 1).empty());
  EXPECT_TRUE(kb.Retrieve(Vec({0, 0}), 0).empty());
  EXPECT_TRUE(kb.Retrieve(Vec({0, 0}), -2).empty());
  EXPECT_EQ(kb.Retrieve(Vec({0, 0}), 1).size(), 1u);
}

}  // namespace
}  // namespace htapex
