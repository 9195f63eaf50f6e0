#include <gtest/gtest.h>

#include "catalog/tpch.h"
#include "storage/analyze.h"
#include "storage/datagen.h"

namespace htapex {
namespace {

TEST(AnalyzeTest, MeasuresSimpleTable) {
  TableSchema schema("t",
                     {{"a", DataType::kInt}, {"s", DataType::kString}}, {"a"});
  TableData data("t", 2);
  data.Append({Value::Int(1), Value::Str("xx")});
  data.Append({Value::Int(2), Value::Str("yyyy")});
  data.Append({Value::Int(2), Value::Null()});
  data.Append({Value::Int(3), Value::Str("zz")});
  auto stats = ComputeTableStats(schema, data);
  ASSERT_TRUE(stats.ok()) << stats.status();
  EXPECT_EQ(stats->row_count, 4);
  EXPECT_EQ(stats->columns[0].ndv, 3);
  EXPECT_EQ(stats->columns[0].min.AsInt(), 1);
  EXPECT_EQ(stats->columns[0].max.AsInt(), 3);
  EXPECT_DOUBLE_EQ(stats->columns[0].null_fraction, 0.0);
  EXPECT_EQ(stats->columns[1].ndv, 3);
  EXPECT_DOUBLE_EQ(stats->columns[1].null_fraction, 0.25);
  EXPECT_NEAR(stats->columns[1].avg_width, (2 + 4 + 2) / 3.0, 1e-9);
}

/// The core validation: the analytic statistics model in catalog/tpch.cc
/// must agree with measured statistics of actually generated data at the
/// same scale factor — the latency simulation and both optimizers rest on
/// that model.
class ModelValidationTest : public ::testing::TestWithParam<const char*> {};

TEST_P(ModelValidationTest, AnalyticStatsMatchMeasuredData) {
  const double kSf = 0.05;
  Catalog catalog;
  ASSERT_TRUE(tpch::BuildCatalog(&catalog, kSf).ok());
  TpchDataGenerator gen(kSf);
  const std::string table = GetParam();

  auto schema = catalog.GetTable(table);
  auto analytic = catalog.GetStats(table);
  ASSERT_TRUE(schema.ok() && analytic.ok());
  auto data = gen.Generate(table);
  ASSERT_TRUE(data.ok());
  auto measured = ComputeTableStats(**schema, *data);
  ASSERT_TRUE(measured.ok());

  // Row counts: exact for fixed tables; within 5x for lineitem (its row
  // count is stochastic, 1-7 lines per order around the TPC-H mean).
  double row_ratio = static_cast<double>(measured->row_count) /
                     static_cast<double>((*analytic)->row_count);
  EXPECT_GT(row_ratio, 0.5) << table;
  EXPECT_LT(row_ratio, 2.0) << table;

  for (size_t c = 0; c < (*schema)->num_columns(); ++c) {
    const ColumnStats& a = (*analytic)->columns[c];
    const ColumnStats& m = measured->columns[c];
    const std::string& col = (*schema)->column(c).name;
    // NDV within an order of magnitude (analytic NDVs are model values;
    // uniqueness/cardinality classes must match, exact counts need not).
    double ndv_ratio =
        static_cast<double>(std::max(a.ndv, m.ndv)) /
        static_cast<double>(std::max<int64_t>(std::min(a.ndv, m.ndv), 1));
    EXPECT_LT(ndv_ratio, 12.0) << table << "." << col;
    // Numeric ranges: measured values must lie within the modelled domain
    // (the model's min/max bound the generator's).
    if (!a.min.is_null() && !m.min.is_null() && !m.min.is_string()) {
      EXPECT_GE(m.min.AsDouble(), a.min.AsDouble() - 1e-6)
          << table << "." << col;
      EXPECT_LE(m.max.AsDouble(), a.max.AsDouble() + 1e-6)
          << table << "." << col;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(TpchTables, ModelValidationTest,
                         ::testing::Values("region", "nation", "supplier",
                                           "customer", "part", "orders"),
                         [](const ::testing::TestParamInfo<const char*>& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace htapex
