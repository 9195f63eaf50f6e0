#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "catalog/tpch.h"
#include "common/rng.h"
#include "storage/btree.h"
#include "storage/column_store.h"
#include "storage/datagen.h"
#include "storage/row_store.h"

namespace htapex {
namespace {

/// The row ids whose key equals `key`, in index order: the point lookup
/// the executor makes, a RangeScan over [key, key].
std::vector<uint32_t> Lookup(const BTreeIndex& idx, const Value& key) {
  std::vector<uint32_t> out;
  idx.RangeScan(&key, true, &key, true, [&out](const Value&, uint32_t id) {
    out.push_back(id);
    return true;
  });
  return out;
}

TEST(BTreeTest, InsertAndPointLookup) {
  BTreeIndex idx;
  for (int i = 0; i < 1000; ++i) {
    idx.Insert(Value::Int(i * 2), static_cast<uint32_t>(i));
  }
  EXPECT_EQ(idx.num_entries(), 1000u);
  auto hits = Lookup(idx, Value::Int(500));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 250u);
  EXPECT_TRUE(Lookup(idx, Value::Int(501)).empty());
  EXPECT_GT(idx.height(), 1);
}

TEST(BTreeTest, DuplicateKeys) {
  BTreeIndex idx;
  // Many duplicates so they straddle leaf splits.
  for (uint32_t i = 0; i < 500; ++i) idx.Insert(Value::Int(7), i);
  for (uint32_t i = 500; i < 600; ++i) idx.Insert(Value::Int(9), i);
  auto hits = Lookup(idx, Value::Int(7));
  EXPECT_EQ(hits.size(), 500u);
  std::set<uint32_t> unique(hits.begin(), hits.end());
  EXPECT_EQ(unique.size(), 500u);
  EXPECT_EQ(Lookup(idx, Value::Int(9)).size(), 100u);
  EXPECT_TRUE(Lookup(idx, Value::Int(8)).empty());
}

TEST(BTreeTest, RangeScanOrdered) {
  BTreeIndex idx;
  Rng rng(5);
  std::vector<int64_t> keys;
  for (uint32_t i = 0; i < 2000; ++i) {
    int64_t k = rng.Uniform(0, 10000);
    keys.push_back(k);
    idx.Insert(Value::Int(k), i);
  }
  std::vector<int64_t> visited;
  idx.RangeScan(nullptr, true, nullptr, true,
                [&](const Value& k, uint32_t) {
                  visited.push_back(k.AsInt());
                  return true;
                });
  EXPECT_EQ(visited.size(), 2000u);
  EXPECT_TRUE(std::is_sorted(visited.begin(), visited.end()));
}

TEST(BTreeTest, RangeScanBounds) {
  BTreeIndex idx;
  for (uint32_t i = 0; i <= 100; ++i) idx.Insert(Value::Int(i), i);
  Value lo = Value::Int(10), hi = Value::Int(20);
  std::vector<int64_t> got;
  idx.RangeScan(&lo, true, &hi, true, [&](const Value& k, uint32_t) {
    got.push_back(k.AsInt());
    return true;
  });
  ASSERT_EQ(got.size(), 11u);
  EXPECT_EQ(got.front(), 10);
  EXPECT_EQ(got.back(), 20);
  got.clear();
  idx.RangeScan(&lo, false, &hi, false, [&](const Value& k, uint32_t) {
    got.push_back(k.AsInt());
    return true;
  });
  ASSERT_EQ(got.size(), 9u);
  EXPECT_EQ(got.front(), 11);
  EXPECT_EQ(got.back(), 19);
}

TEST(BTreeTest, RangeScanEarlyStopForLimit) {
  BTreeIndex idx;
  for (uint32_t i = 0; i < 1000; ++i) idx.Insert(Value::Int(i), i);
  int count = 0;
  idx.RangeScan(nullptr, true, nullptr, true, [&](const Value&, uint32_t) {
    return ++count < 5;
  });
  EXPECT_EQ(count, 5);
}

TEST(BTreeTest, FullScanDescReversesAscOrder) {
  BTreeIndex idx;
  Rng rng(8);
  for (uint32_t i = 0; i < 3000; ++i) {
    idx.Insert(Value::Int(rng.Uniform(0, 5000)), i);
  }
  std::vector<std::pair<int64_t, uint32_t>> asc, desc;
  idx.FullScan([&](const Value& k, uint32_t r) {
    asc.emplace_back(k.AsInt(), r);
    return true;
  });
  idx.FullScanDesc([&](const Value& k, uint32_t r) {
    desc.emplace_back(k.AsInt(), r);
    return true;
  });
  ASSERT_EQ(asc.size(), desc.size());
  std::reverse(desc.begin(), desc.end());
  EXPECT_EQ(asc, desc);
}

TEST(BTreeTest, FullScanDescEarlyStop) {
  BTreeIndex idx;
  for (uint32_t i = 0; i < 500; ++i) idx.Insert(Value::Int(i), i);
  std::vector<int64_t> got;
  idx.FullScanDesc([&](const Value& k, uint32_t) {
    got.push_back(k.AsInt());
    return got.size() < 3;
  });
  ASSERT_EQ(got.size(), 3u);
  EXPECT_EQ(got[0], 499);
  EXPECT_EQ(got[2], 497);
}

TEST(BTreeTest, StringKeys) {
  BTreeIndex idx;
  std::vector<std::string> names = {"egypt", "france", "algeria", "japan"};
  for (uint32_t i = 0; i < names.size(); ++i) {
    idx.Insert(Value::Str(names[i]), i);
  }
  auto hits = Lookup(idx, Value::Str("egypt"));
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0], 0u);
}

class DatagenTest : public ::testing::Test {
 protected:
  void SetUp() override { ASSERT_TRUE(tpch::BuildCatalog(&catalog_, 0.01).ok()); }
  Catalog catalog_;
  TpchDataGenerator gen_{0.01};
};

TEST_F(DatagenTest, RowCountsMatchScale) {
  auto customer = gen_.Generate("customer");
  ASSERT_TRUE(customer.ok());
  EXPECT_EQ(customer->num_rows(), 1500u);
  auto nation = gen_.Generate("nation");
  ASSERT_TRUE(nation.ok());
  EXPECT_EQ(nation->num_rows(), 25u);
  EXPECT_FALSE(gen_.Generate("bogus").ok());
}

TEST_F(DatagenTest, Deterministic) {
  TpchDataGenerator g1(0.01), g2(0.01);
  auto a = g1.Generate("customer");
  auto b = g2.Generate("customer");
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_EQ(a->num_rows(), b->num_rows());
  for (size_t i = 0; i < a->num_rows(); i += 100) {
    for (size_t c = 0; c < a->width; ++c) {
      EXPECT_EQ(a->RowAt(i)[c].Compare(b->RowAt(i)[c]), 0);
    }
  }
}

TEST_F(DatagenTest, PhonePrefixEncodesNation) {
  auto customer = gen_.Generate("customer");
  ASSERT_TRUE(customer.ok());
  auto schema = catalog_.GetTable("customer");
  int nk = (*schema)->ColumnIndex("c_nationkey");
  int ph = (*schema)->ColumnIndex("c_phone");
  for (size_t i = 0; i < customer->num_rows(); i += 37) {
    const Value* row = customer->RowAt(i);
    int64_t nation = row[static_cast<size_t>(nk)].AsInt();
    const std::string& phone = row[static_cast<size_t>(ph)].AsString();
    EXPECT_EQ(phone.substr(0, 2), std::to_string(10 + nation));
  }
}

TEST_F(DatagenTest, OrderStatusSkew) {
  auto orders = gen_.Generate("orders");
  ASSERT_TRUE(orders.ok());
  int p_count = 0;
  for (size_t i = 0; i < orders->num_rows(); ++i) {
    if (orders->RowAt(i)[2].AsString() == "p") ++p_count;
  }
  double frac = static_cast<double>(p_count) / static_cast<double>(orders->num_rows());
  EXPECT_GT(frac, 0.005);
  EXPECT_LT(frac, 0.06);  // 'p' is rare, ~2.6%
}

TEST_F(DatagenTest, LineitemForeignKeysValid) {
  auto orders = gen_.Generate("orders");
  auto lineitem = gen_.Generate("lineitem");
  ASSERT_TRUE(orders.ok() && lineitem.ok());
  std::set<int64_t> order_keys;
  for (size_t i = 0; i < orders->num_rows(); ++i) {
    order_keys.insert(orders->RowAt(i)[0].AsInt());
  }
  for (size_t i = 0; i < lineitem->num_rows(); i += 53) {
    EXPECT_TRUE(order_keys.count(lineitem->RowAt(i)[0].AsInt()) > 0);
  }
  EXPECT_GE(lineitem->num_rows(), orders->num_rows());
}

TEST_F(DatagenTest, RowStoreLoadAndIndex) {
  RowStore store;
  auto customer = gen_.Generate("customer");
  ASSERT_TRUE(customer.ok());
  ASSERT_TRUE(store.LoadTable(catalog_, std::move(*customer)).ok());
  EXPECT_EQ(store.RowCount("customer"), 1500u);
  // PK index was built automatically.
  const BTreeIndex* pk = store.GetIndex("pk_customer");
  ASSERT_NE(pk, nullptr);
  auto hits = Lookup(*pk, Value::Int(42));
  ASSERT_EQ(hits.size(), 1u);
  auto table = store.GetTable("customer");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->RowAt(hits[0])[0].AsInt(), 42);
}

TEST_F(DatagenTest, RowStoreUserIndexBuiltLater) {
  RowStore store;
  auto customer = gen_.Generate("customer");
  ASSERT_TRUE(customer.ok());
  ASSERT_TRUE(store.LoadTable(catalog_, std::move(*customer)).ok());
  EXPECT_EQ(store.GetIndex("idx_c_phone"), nullptr);
  IndexDef idx{"idx_c_phone", "customer", {"c_phone"}, false, false};
  ASSERT_TRUE(catalog_.AddIndex(idx).ok());
  ASSERT_TRUE(store.BuildIndex(catalog_, "idx_c_phone").ok());
  ASSERT_NE(store.GetIndex("idx_c_phone"), nullptr);
  EXPECT_EQ(store.GetIndex("idx_c_phone")->num_entries(), 1500u);
}

TEST_F(DatagenTest, ColumnStoreRoundTrip) {
  ColumnStore store;
  auto nation = gen_.Generate("nation");
  ASSERT_TRUE(nation.ok());
  TableData copy = *nation;
  ASSERT_TRUE(store.LoadTable(catalog_, copy).ok());
  auto table = store.GetTable("nation");
  ASSERT_TRUE(table.ok());
  EXPECT_EQ((*table)->num_rows, 25u);
  for (size_t r = 0; r < 25; ++r) {
    for (size_t c = 0; c < copy.width; ++c) {
      EXPECT_EQ((*table)->columns[c].Get(r).Compare(copy.RowAt(r)[c]), 0);
    }
  }
}

/// True when `a` and `b` are the same kind of value and compare equal.
bool SameCell(const Value& a, const Value& b) {
  return a.is_null() == b.is_null() && a.is_int() == b.is_int() &&
         a.is_double() == b.is_double() && a.Compare(b) == 0;
}

/// A table's flat rows, its column store and its B+-tree indexes hold the
/// same values: RowAt(r)[c] is the column store's Get(r), and every index
/// entry's row id leads to a row holding the entry's key.
class FlatStorageTest : public ::testing::TestWithParam<const char*> {};

TEST_P(FlatStorageTest, RowsColumnsAndIndexesAgree) {
  Catalog catalog;
  ASSERT_TRUE(tpch::BuildCatalog(&catalog, 0.01).ok());
  const std::string name = GetParam();
  auto data = TpchDataGenerator(0.01).Generate(name);
  ASSERT_TRUE(data.ok());
  ColumnStore column_store;
  ASSERT_TRUE(column_store.LoadTable(catalog, *data).ok());
  RowStore row_store;
  ASSERT_TRUE(row_store.LoadTable(catalog, std::move(*data)).ok());
  auto rows = row_store.GetTable(name);
  auto columns = column_store.GetTable(name);
  ASSERT_TRUE(rows.ok() && columns.ok());
  const TableData& flat = **rows;
  ASSERT_EQ(flat.num_rows(), (*columns)->num_rows);
  ASSERT_EQ(flat.width, (*columns)->columns.size());
  ASSERT_EQ(flat.cells.size(), flat.num_rows() * flat.width);
  size_t differ = 0;
  for (size_t r = 0; r < flat.num_rows(); ++r) {
    for (size_t c = 0; c < flat.width; ++c) {
      if (!SameCell(flat.RowAt(r)[c], (*columns)->columns[c].Get(r))) ++differ;
    }
  }
  EXPECT_EQ(differ, 0u) << name;

  auto schema = catalog.GetTable(name);
  ASSERT_TRUE(schema.ok());
  std::vector<const IndexDef*> indexes = catalog.IndexesOn(name);
  EXPECT_FALSE(indexes.empty()) << name;
  for (const IndexDef* def : indexes) {
    const BTreeIndex* index = row_store.GetIndex(def->name);
    ASSERT_NE(index, nullptr) << def->name;
    const int col = (*schema)->ColumnIndex(def->leading_column());
    ASSERT_GE(col, 0) << def->name;
    size_t entries = 0, wrong = 0;
    index->FullScan([&](const Value& key, uint32_t row_id) {
      ++entries;
      if (row_id >= flat.num_rows() ||
          !SameCell(flat.RowAt(row_id)[col], key)) {
        ++wrong;
      }
      return true;
    });
    EXPECT_EQ(entries, flat.num_rows()) << def->name;
    EXPECT_EQ(wrong, 0u) << def->name;
  }
}

INSTANTIATE_TEST_SUITE_P(TpchTables, FlatStorageTest,
                         ::testing::Values("region", "nation", "supplier",
                                           "customer", "part", "partsupp",
                                           "orders", "lineitem"));

TEST_F(DatagenTest, ZoneMapsPruneSegments) {
  ColumnStore store;
  auto customer = gen_.Generate("customer");
  ASSERT_TRUE(customer.ok());
  ASSERT_TRUE(store.LoadTable(catalog_, *customer).ok());
  auto table = store.GetTable("customer");
  ASSERT_TRUE(table.ok());
  const ColumnVector& custkey = (*table)->columns[0];  // 1..1500 in order
  ASSERT_EQ(custkey.num_segments(), 2u);               // 1500 rows, 1024/segment
  // Key 42 lives in segment 0 only.
  EXPECT_TRUE(custkey.SegmentMayContain(0, Value::Int(42)));
  EXPECT_FALSE(custkey.SegmentMayContain(1, Value::Int(42)));
  Value min, max;
  ASSERT_TRUE(custkey.ZoneRange(0, &min, &max));
  EXPECT_EQ(min.AsInt(), 1);
  EXPECT_EQ(max.AsInt(), 1024);
}

TEST(ColumnVectorTest, NullHandling) {
  ColumnVector col(DataType::kInt);
  col.Append(Value::Null());
  col.Append(Value::Int(5));
  EXPECT_TRUE(col.Get(0).is_null());
  EXPECT_EQ(col.Get(1).AsInt(), 5);
  Value min, max;
  ASSERT_TRUE(col.ZoneRange(0, &min, &max));
  EXPECT_EQ(min.AsInt(), 5);
  EXPECT_EQ(max.AsInt(), 5);
}

TEST(ColumnVectorTest, AllNullSegmentHasNoZoneRange) {
  ColumnVector col(DataType::kString);
  col.Append(Value::Null());
  Value min, max;
  EXPECT_FALSE(col.ZoneRange(0, &min, &max));
  EXPECT_FALSE(col.SegmentMayContain(0, Value::Str("x")));
}

// ---------------------------------------------------------------------------
// Zone-map pruning regressions: a wrong prune silently drops rows, so every
// prune decision below is checked against EvalPredicate semantics.
// ---------------------------------------------------------------------------

class ZonePruneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Segment 0: all NULL. Segment 1: values 1..1024 with one NULL at the
    // end. Segment 2 (partial): constant 7, no nulls.
    col_ = ColumnVector(DataType::kInt);
    for (size_t i = 0; i < ColumnVector::kSegmentRows; ++i) {
      col_.Append(Value::Null());
    }
    for (size_t i = 0; i + 1 < ColumnVector::kSegmentRows; ++i) {
      col_.Append(Value::Int(static_cast<int64_t>(i) + 1));
    }
    col_.Append(Value::Null());
    for (int i = 0; i < 10; ++i) col_.Append(Value::Int(7));
    ASSERT_EQ(col_.num_segments(), 3u);
    ASSERT_TRUE(col_.SegmentAllNull(0));
    ASSERT_TRUE(col_.SegmentHasNulls(1));
    ASSERT_FALSE(col_.SegmentAllNull(1));
    ASSERT_FALSE(col_.SegmentHasNulls(2));
  }

  static std::unique_ptr<Expr> Cmp(CompareOp op, Value lit) {
    return MakeComparison(op, MakeColumnRef("t", "x"),
                          MakeLiteral(std::move(lit)));
  }

  static std::unique_ptr<Expr> IsNull(bool negated) {
    auto e = std::make_unique<Expr>(ExprKind::kIsNull);
    e->negated = negated;
    e->children.push_back(MakeColumnRef("t", "x"));
    return e;
  }

  static std::unique_ptr<Expr> In(std::vector<Value> lits) {
    auto e = std::make_unique<Expr>(ExprKind::kIn);
    e->children.push_back(MakeColumnRef("t", "x"));
    for (Value& v : lits) e->children.push_back(MakeLiteral(std::move(v)));
    return e;
  }

  static std::unique_ptr<Expr> Between(Value lo, Value hi) {
    auto e = std::make_unique<Expr>(ExprKind::kBetween);
    e->children.push_back(MakeColumnRef("t", "x"));
    e->children.push_back(MakeLiteral(std::move(lo)));
    e->children.push_back(MakeLiteral(std::move(hi)));
    return e;
  }

  ColumnVector col_{DataType::kInt};
};

TEST_F(ZonePruneTest, AllNullSegmentMatchesOnlyIsNull) {
  // Regression: an all-NULL segment must be pruned for every value
  // predicate (NULL comparisons never pass) but NOT for IS NULL.
  auto eq = Cmp(CompareOp::kEq, Value::Int(5));
  ASSERT_TRUE(IsZoneCheckable(*eq));
  EXPECT_FALSE(SegmentMayMatch(col_, 0, *eq));
  EXPECT_TRUE(SegmentMayMatch(col_, 1, *eq));   // 5 is in [1, 1023]
  EXPECT_FALSE(SegmentMayMatch(col_, 2, *eq));  // constant-7 segment

  EXPECT_FALSE(SegmentMayMatch(col_, 0, *Cmp(CompareOp::kLt, Value::Int(5))));
  EXPECT_FALSE(SegmentMayMatch(col_, 0, *Between(Value::Int(1), Value::Int(9))));
  EXPECT_FALSE(SegmentMayMatch(col_, 0, *In({Value::Int(1), Value::Int(2)})));

  auto is_null = IsNull(false);
  ASSERT_TRUE(IsZoneCheckable(*is_null));
  EXPECT_TRUE(SegmentMayMatch(col_, 0, *is_null));
  EXPECT_TRUE(SegmentMayMatch(col_, 1, *is_null));   // has one null
  EXPECT_FALSE(SegmentMayMatch(col_, 2, *is_null));  // no nulls
}

TEST_F(ZonePruneTest, IsNotNullPrunesOnlyAllNullSegments) {
  auto not_null = IsNull(true);
  ASSERT_TRUE(IsZoneCheckable(*not_null));
  EXPECT_FALSE(SegmentMayMatch(col_, 0, *not_null));
  EXPECT_TRUE(SegmentMayMatch(col_, 1, *not_null));
  EXPECT_TRUE(SegmentMayMatch(col_, 2, *not_null));
}

TEST_F(ZonePruneTest, NullLiteralsMatchNothing) {
  // `x = NULL`, `x BETWEEN NULL AND ...`, `x IN (NULL)` are never true, so
  // every segment may be pruned — including ones whose zone range would
  // otherwise overlap.
  EXPECT_FALSE(SegmentMayMatch(col_, 1, *Cmp(CompareOp::kEq, Value::Null())));
  EXPECT_FALSE(SegmentMayMatch(col_, 1, *Between(Value::Null(), Value::Int(9))));
  EXPECT_FALSE(SegmentMayMatch(col_, 1, *Between(Value::Int(1), Value::Null())));
  EXPECT_FALSE(SegmentMayMatch(col_, 1, *In({Value::Null()})));
  // But a NULL *element* beside a matching one must not prune the segment.
  EXPECT_TRUE(SegmentMayMatch(col_, 1, *In({Value::Null(), Value::Int(5)})));
  EXPECT_FALSE(SegmentMayMatch(col_, 2, *In({Value::Null(), Value::Int(5)})));
}

TEST_F(ZonePruneTest, NotEqualPrunesOnlyConstantSegments) {
  // kNe can only prune a segment whose every value equals the literal.
  auto ne7 = Cmp(CompareOp::kNe, Value::Int(7));
  EXPECT_FALSE(SegmentMayMatch(col_, 2, *ne7));  // all rows are 7
  EXPECT_TRUE(SegmentMayMatch(col_, 1, *ne7));   // range segment
  auto ne8 = Cmp(CompareOp::kNe, Value::Int(8));
  EXPECT_TRUE(SegmentMayMatch(col_, 2, *ne8));   // 7 != 8 everywhere
  EXPECT_FALSE(SegmentMayMatch(col_, 0, *ne7));  // NULL != 7 is not true
}

TEST_F(ZonePruneTest, RangePredicatesRespectZoneBounds) {
  EXPECT_FALSE(SegmentMayMatch(col_, 1, *Cmp(CompareOp::kGt, Value::Int(1023))));
  EXPECT_TRUE(SegmentMayMatch(col_, 1, *Cmp(CompareOp::kGe, Value::Int(1023))));
  EXPECT_FALSE(SegmentMayMatch(col_, 1, *Cmp(CompareOp::kLt, Value::Int(1))));
  EXPECT_TRUE(SegmentMayMatch(col_, 1, *Cmp(CompareOp::kLe, Value::Int(1))));
  EXPECT_FALSE(SegmentMayMatch(col_, 1, *Between(Value::Int(2000), Value::Int(3000))));
  EXPECT_TRUE(SegmentMayMatch(col_, 1, *Between(Value::Int(1000), Value::Int(3000))));
}

TEST_F(ZonePruneTest, PruningAgreesWithExecutionOnAllNullSegments) {
  // End-to-end guard: a table whose first segment of a filtered column is
  // all-NULL still returns the right COUNT through the AP scan.
  // (Regression for wrongly treating a no-zone-range segment as prunable
  // under IS NULL, or unprunable under value predicates.)
  size_t n = col_.size();
  size_t nulls = 0, sevens = 0;
  for (size_t i = 0; i < n; ++i) {
    Value v = col_.Get(i);
    if (v.is_null()) {
      ++nulls;
    } else if (v.AsInt() == 7) {
      ++sevens;
    }
  }
  EXPECT_EQ(nulls, ColumnVector::kSegmentRows + 1);
  EXPECT_EQ(sevens, 11u);  // value 7 in segment 1 plus ten in segment 2
  // Each segment that may match `x = 7` must actually contain a 7 or be a
  // conservative keep; segments pruned must contain none.
  auto eq7 = Cmp(CompareOp::kEq, Value::Int(7));
  for (size_t seg = 0; seg < col_.num_segments(); ++seg) {
    if (SegmentMayMatch(col_, seg, *eq7)) continue;
    size_t begin = seg * ColumnVector::kSegmentRows;
    size_t end = std::min(n, begin + ColumnVector::kSegmentRows);
    for (size_t i = begin; i < end; ++i) {
      Value v = col_.Get(i);
      EXPECT_TRUE(v.is_null() || v.AsInt() != 7)
          << "segment " << seg << " wrongly pruned: row " << i << " matches";
    }
  }
}

}  // namespace
}  // namespace htapex
