#include "storage/datagen.h"

#include <algorithm>

#include "catalog/tpch.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace htapex {

namespace {

using tpch::RowCountAtScale;

const std::vector<std::string> kWords = {
    "carefully", "quickly", "furiously", "slyly",  "blithely", "pending",
    "final",     "express", "regular",   "special", "ironic",  "even",
    "bold",      "silent",  "deposits",  "requests", "accounts", "packages",
    "instructions", "theodolites", "pinto", "beans", "foxes", "ideas"};

std::string RandomComment(Rng* rng, int words) {
  std::string out;
  for (int i = 0; i < words; ++i) {
    if (i > 0) out += ' ';
    out += rng->Choice(kWords);
  }
  return out;
}

std::string Phone(int64_t nationkey, Rng* rng) {
  return StrFormat("%lld-%03lld-%03lld-%04lld",
                   static_cast<long long>(10 + nationkey),
                   static_cast<long long>(rng->Uniform(100, 999)),
                   static_cast<long long>(rng->Uniform(100, 999)),
                   static_cast<long long>(rng->Uniform(1000, 9999)));
}

double Money(Rng* rng, double lo, double hi) {
  return std::round(rng->UniformReal(lo, hi) * 100.0) / 100.0;
}

TableData GenRegion(uint64_t seed) {
  Rng rng(seed ^ 0x1);
  TableData t("region", 3);
  t.Reserve(5);
  for (int64_t i = 0; i < 5; ++i) {
    t.Append({Value::Int(i), Value::Str(tpch::kRegions[i]),
              Value::Str(RandomComment(&rng, 6))});
  }
  return t;
}

TableData GenNation(uint64_t seed) {
  Rng rng(seed ^ 0x2);
  TableData t("nation", 4);
  t.Reserve(25);
  for (int64_t i = 0; i < 25; ++i) {
    t.Append({Value::Int(i), Value::Str(tpch::kNations[i]), Value::Int(i % 5),
              Value::Str(RandomComment(&rng, 7))});
  }
  return t;
}

TableData GenSupplier(double sf, uint64_t seed) {
  Rng rng(seed ^ 0x3);
  int64_t n = RowCountAtScale("supplier", sf);
  TableData t("supplier", 7);
  t.Reserve(static_cast<size_t>(n));
  for (int64_t i = 1; i <= n; ++i) {
    int64_t nation = rng.Uniform(0, 24);
    t.Append({Value::Int(i),
              Value::Str(StrFormat("supplier#%09lld", static_cast<long long>(i))),
              Value::Str(RandomComment(&rng, 3)),
              Value::Int(nation),
              Value::Str(Phone(nation, &rng)),
              Value::Double(Money(&rng, -999.99, 9999.99)),
              Value::Str(RandomComment(&rng, 6))});
  }
  return t;
}

TableData GenCustomer(double sf, uint64_t seed) {
  Rng rng(seed ^ 0x4);
  int64_t n = RowCountAtScale("customer", sf);
  TableData t("customer", 8);
  t.Reserve(static_cast<size_t>(n));
  for (int64_t i = 1; i <= n; ++i) {
    int64_t nation = rng.Uniform(0, 24);
    t.Append({Value::Int(i),
              Value::Str(StrFormat("customer#%09lld", static_cast<long long>(i))),
              Value::Str(RandomComment(&rng, 3)),
              Value::Int(nation),
              Value::Str(Phone(nation, &rng)),
              Value::Double(Money(&rng, -999.99, 9999.99)),
              Value::Str(rng.Choice(tpch::kMktSegments)),
              Value::Str(RandomComment(&rng, 8))});
  }
  return t;
}

TableData GenPart(double sf, uint64_t seed) {
  Rng rng(seed ^ 0x5);
  int64_t n = RowCountAtScale("part", sf);
  TableData t("part", 9);
  t.Reserve(static_cast<size_t>(n));
  for (int64_t i = 1; i <= n; ++i) {
    std::string type = rng.Choice(tpch::kPartTypes) + " " +
                       rng.Choice<std::string>({"anodized", "burnished", "plated",
                                                "polished", "brushed"}) +
                       " " +
                       rng.Choice<std::string>({"tin", "nickel", "brass", "steel",
                                                "copper"});
    t.Append({
        Value::Int(i),
        Value::Str(RandomComment(&rng, 4)),
        Value::Str(StrFormat("manufacturer#%lld", static_cast<long long>(rng.Uniform(1, 5)))),
        Value::Str(StrFormat("brand#%lld%lld", static_cast<long long>(rng.Uniform(1, 5)),
                             static_cast<long long>(rng.Uniform(1, 5)))),
        Value::Str(type),
        Value::Int(rng.Uniform(1, 50)),
        Value::Str(rng.Choice(tpch::kPartContainers)),
        Value::Double(Money(&rng, 900.0, 2100.0)),
        Value::Str(RandomComment(&rng, 2))});
  }
  return t;
}

TableData GenPartsupp(double sf, uint64_t seed) {
  Rng rng(seed ^ 0x6);
  int64_t parts = RowCountAtScale("part", sf);
  int64_t supps = RowCountAtScale("supplier", sf);
  TableData t("partsupp", 5);
  t.Reserve(static_cast<size_t>(parts * 4));
  for (int64_t p = 1; p <= parts; ++p) {
    for (int64_t k = 0; k < 4; ++k) {
      int64_t s = ((p + k * (supps / 4 + 1)) % supps) + 1;
      t.Append({Value::Int(p), Value::Int(s), Value::Int(rng.Uniform(1, 9999)),
                Value::Double(Money(&rng, 1.0, 1000.0)),
                Value::Str(RandomComment(&rng, 10))});
    }
  }
  return t;
}

// Order status skew matching TPC-H: ~48.7% 'f', ~48.7% 'o', ~2.6% 'p'.
std::string OrderStatus(Rng* rng) {
  double r = rng->NextDouble();
  if (r < 0.487) return "f";
  if (r < 0.974) return "o";
  return "p";
}

TableData GenOrders(double sf, uint64_t seed) {
  Rng rng(seed ^ 0x7);
  int64_t n = RowCountAtScale("orders", sf);
  int64_t custs = RowCountAtScale("customer", sf);
  TableData t("orders", 9);
  t.Reserve(static_cast<size_t>(n));
  int64_t date_span = tpch::kMaxOrderDate - tpch::kMinOrderDate;
  for (int64_t i = 1; i <= n; ++i) {
    // TPC-H leaves every third customer without orders.
    int64_t cust = rng.Uniform(1, custs);
    if (cust % 3 == 0) cust = (cust % custs) + 1;
    t.Append({
        Value::Int(i * 4 - 3),  // sparse order keys, as in TPC-H
        Value::Int(cust),
        Value::Str(OrderStatus(&rng)),
        Value::Double(Money(&rng, 850.0, 560000.0)),
        Value::Date(tpch::kMinOrderDate + rng.Uniform(0, date_span)),
        Value::Str(rng.Choice(tpch::kOrderPriority)),
        Value::Str(StrFormat("clerk#%09lld", static_cast<long long>(rng.Uniform(1, 1000)))),
        Value::Int(0),
        Value::Str(RandomComment(&rng, 6))});
  }
  return t;
}

TableData GenLineitem(double sf, uint64_t seed) {
  Rng rng(seed ^ 0x8);
  // Generate per order so l_orderkey is a real foreign key.
  TableData orders = GenOrders(sf, seed);
  int64_t parts = RowCountAtScale("part", sf);
  int64_t supps = RowCountAtScale("supplier", sf);
  TableData t("lineitem", 16);
  // An order has at most 7 lines. Reserving for that many never moves the
  // array, and the pages past the last row are never touched.
  t.Reserve(orders.num_rows() * 7);
  for (size_t o = 0; o < orders.num_rows(); ++o) {
    const Value* order = orders.RowAt(o);
    int64_t okey = order[0].AsInt();
    int64_t odate = order[4].AsInt();
    int64_t lines = rng.Uniform(1, 7);
    for (int64_t ln = 1; ln <= lines; ++ln) {
      int64_t ship = odate + rng.Uniform(1, 121);
      int64_t commit = odate + rng.Uniform(30, 90);
      int64_t receipt = ship + rng.Uniform(1, 30);
      double qty = static_cast<double>(rng.Uniform(1, 50));
      t.Append({
          Value::Int(okey),
          Value::Int(rng.Uniform(1, parts)),
          Value::Int(rng.Uniform(1, supps)),
          Value::Int(ln),
          Value::Double(qty),
          Value::Double(Money(&rng, 900.0, 105000.0)),
          Value::Double(std::round(rng.UniformReal(0.0, 0.10) * 100) / 100),
          Value::Double(std::round(rng.UniformReal(0.0, 0.08) * 100) / 100),
          Value::Str(rng.Choice<std::string>({"a", "n", "r"})),
          Value::Str(rng.Choice(tpch::kLineStatus)),
          Value::Date(ship),
          Value::Date(commit),
          Value::Date(receipt),
          Value::Str(rng.Choice<std::string>(
              {"deliver in person", "collect cod", "none", "take back return"})),
          Value::Str(rng.Choice(tpch::kShipModes)),
          Value::Str(RandomComment(&rng, 4))});
    }
  }
  return t;
}

}  // namespace

Result<TableData> TpchDataGenerator::Generate(const std::string& table) const {
  if (table == "region") return GenRegion(seed_);
  if (table == "nation") return GenNation(seed_);
  if (table == "supplier") return GenSupplier(scale_factor_, seed_);
  if (table == "customer") return GenCustomer(scale_factor_, seed_);
  if (table == "part") return GenPart(scale_factor_, seed_);
  if (table == "partsupp") return GenPartsupp(scale_factor_, seed_);
  if (table == "orders") return GenOrders(scale_factor_, seed_);
  if (table == "lineitem") return GenLineitem(scale_factor_, seed_);
  return Status::NotFound("unknown TPC-H table: " + table);
}

}  // namespace htapex
