#include "ap/ap_optimizer.h"

#include <algorithm>
#include <set>

#include "plan/cardinality.h"
#include "plan/planner_util.h"
#include "plan/pt_graph.h"

namespace htapex {

namespace {

// Cost constants, in AP-internal vector units.
constexpr double kScanValue = 0.0005;      // read one column value
constexpr double kAggRow = 0.0015;         // hash-aggregate one row
constexpr double kSortRowLog = 0.002;      // n*log2(n) multiplier
constexpr double kTopNRow = 0.0008;        // bounded-heap push
constexpr double kOutputRow = 0.0005;      // emit one row
constexpr double kStartup = 30.0;          // distributed dispatch overhead
constexpr double kBloomBuildRow = 0.001;   // insert one build key into a sift
constexpr double kBloomProbeRow = 0.0002;  // probe one scan row, one filter
// Insert one row into a join hash table, probe one row, emit one row.
constexpr HashJoinRates kHashRates{0.002, 0.001, kOutputRow};

class ApPlanBuilder {
 public:
  ApPlanBuilder(const Catalog& catalog, const ApCostParams& params,
                const BoundQuery& query)
      : params_(params), query_(query), est_(catalog) {}

  Result<PhysicalPlan> Build() {
    std::unique_ptr<PlanNode> root;
    HTAPEX_ASSIGN_OR_RETURN(root, BuildJoinTree());
    if (params_.sift && query_.num_tables() > 1 &&
        ApplyPredicateTransfer(query_, est_, root.get()) > 0) {
      RecostJoinTree(root.get());
    }
    HTAPEX_ASSIGN_OR_RETURN(
        root, AddAggregation(std::move(root), PlanOp::kHashAggregate, query_,
                             est_, kAggRow, &agg_slots_));
    HTAPEX_ASSIGN_OR_RETURN(root, AddOrderLimitProject(std::move(root)));
    root->total_cost += kStartup;
    PhysicalPlan plan;
    plan.engine = EngineKind::kAp;
    plan.root = std::move(root);
    plan.total_slots = query_.total_slots;
    return plan;
  }

 private:
  /// Cost of scanning `scan`'s referenced columns over its base rows.
  double ScanCost(const PlanNode& scan) const {
    return scan.base_rows * static_cast<double>(scan.columns_read.size()) *
           kScanValue;
  }

  /// Columnar scan with all single-table predicates pushed into the scan
  /// (the column store evaluates them during the scan, zone maps first).
  std::unique_ptr<PlanNode> BuildScan(int t) {
    double base_rows = est_.BaseTableRows(query_, t);
    auto scan = MakeScanNode(PlanOp::kColumnScan, query_, t, base_rows);
    scan->columns_read = ReferencedColumns(query_, t);
    if (scan->columns_read.empty()) {
      // COUNT(*)-only tables still read one (cheap) column.
      scan->columns_read.push_back(query_.table(t).schema->column(0).name);
    }
    double sel =
        AttachConjuncts(query_, est_, SingleTableConjuncts(query_, t),
                        scan.get());
    scan->estimated_rows = std::max(base_rows * sel, 1.0);
    scan->total_cost = ScanCost(*scan);
    return scan;
  }

  Result<std::unique_ptr<PlanNode>> BuildJoinTree() {
    const int n = query_.num_tables();
    std::vector<std::unique_ptr<PlanNode>> scans(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
      scans[static_cast<size_t>(t)] = BuildScan(t);
    }
    if (params_.enable_dp && n > 1 && n <= kApDpMaxTables) {
      return BuildJoinTreeDp(std::move(scans));
    }
    return BuildJoinTreeGreedy(std::move(scans));
  }

  /// Hash join node over `probe` and `build` (whose tables are
  /// `build_tables`) along `edge`. `out_rows` is the caller's output
  /// estimate (greedy: incremental, DP: closed form) with the edge's extra
  /// conjuncts already applied.
  std::unique_ptr<PlanNode> MakeHashJoin(std::unique_ptr<PlanNode> probe,
                                         std::unique_ptr<PlanNode> build,
                                         const std::set<int>& build_tables,
                                         const JoinEdge& edge,
                                         double out_rows) {
    // left = probe side, right = build side.
    auto join = MakeJoinNode(PlanOp::kHashJoin, query_, edge,
                             EdgeKeys(query_, edge, build_tables), out_rows);
    join->total_cost = HashJoinCost(kHashRates, probe->total_cost,
                                    probe->estimated_rows, build->total_cost,
                                    build->estimated_rows,
                                    join->estimated_rows);
    join->children.push_back(std::move(probe));
    join->children.push_back(std::move(build));
    return join;
  }

  /// Left-deep greedy join tree starting from the largest filtered table:
  /// it becomes the probe side of the first hash join, so hash tables are
  /// built on the smaller inputs.
  Result<std::unique_ptr<PlanNode>> BuildJoinTreeGreedy(
      std::vector<std::unique_ptr<PlanNode>> scans) {
    std::vector<double> rows;
    for (const auto& s : scans) rows.push_back(s->estimated_rows);
    int start = static_cast<int>(std::max_element(rows.begin(), rows.end()) -
                                 rows.begin());
    std::unique_ptr<PlanNode> current =
        std::move(scans[static_cast<size_t>(start)]);
    for (const GreedyStep& step : GreedyJoinOrder(query_, est_, rows, start)) {
      current = MakeHashJoin(std::move(current),
                             std::move(scans[static_cast<size_t>(step.table)]),
                             {step.table}, step.edge, step.out_rows);
    }
    return Result<std::unique_ptr<PlanNode>>(std::move(current));
  }

  /// Bitset DP over join orders (wing-style CostBasedOptimizer): for every
  /// table subset, the cheapest (probe, build) partition by modeled cost,
  /// preferring partitions connected by an equi conjunct and falling back
  /// to cross joins only when a subset has no connected partition (mirrors
  /// the greedy connected-first rule). Bushy trees fall out naturally.
  /// Subset output rows use a closed form — scan rows times the selectivity
  /// of every conjunct internal to the subset — so the estimate is
  /// independent of the split and DP comparisons are apples-to-apples.
  Result<std::unique_ptr<PlanNode>> BuildJoinTreeDp(
      std::vector<std::unique_ptr<PlanNode>> scans) {
    const int n = query_.num_tables();
    const uint32_t full = (1u << n) - 1u;

    // Per-conjunct table mask + selectivity factor for the closed form.
    struct ConjunctFactor {
      uint32_t mask = 0;
      double sel = 1.0;
    };
    std::vector<ConjunctFactor> factors;
    for (const auto& c : query_.conjuncts) {
      if (c.tables.size() <= 1) continue;
      ConjunctFactor f;
      for (int t : c.tables) f.mask |= 1u << t;
      if (c.is_equi_join) {
        double ndv = std::max({est_.ColumnNdv(query_, *c.left_column),
                               est_.ColumnNdv(query_, *c.right_column), 1.0});
        f.sel = 1.0 / ndv;
      } else {
        f.sel = CardinalityEstimator::kDefaultSelectivity;
      }
      factors.push_back(f);
    }

    struct DpEntry {
      double cost = 0.0;
      double rows = 0.0;
      uint32_t probe = 0;  // best split: probe-side subset (0 = leaf)
      bool valid = false;
    };
    std::vector<DpEntry> dp(static_cast<size_t>(full) + 1);
    std::vector<double> scan_rows(static_cast<size_t>(n));
    for (int t = 0; t < n; ++t) {
      const PlanNode& s = *scans[static_cast<size_t>(t)];
      scan_rows[static_cast<size_t>(t)] = s.estimated_rows;
      DpEntry& e = dp[1u << t];
      e.cost = s.total_cost;
      e.rows = s.estimated_rows;
      e.valid = true;
    }

    auto closed_form_rows = [&](uint32_t mask) {
      double r = 1.0;
      for (int t = 0; t < n; ++t) {
        if (mask & (1u << t)) r *= scan_rows[static_cast<size_t>(t)];
      }
      for (const ConjunctFactor& f : factors) {
        if ((f.mask & mask) == f.mask) r *= f.sel;
      }
      return std::max(r, 1.0);
    };
    auto tables_of = [&](uint32_t mask) {
      std::set<int> out;
      for (int t = 0; t < n; ++t) {
        if (mask & (1u << t)) out.insert(t);
      }
      return out;
    };

    for (uint32_t mask = 1; mask <= full; ++mask) {
      if ((mask & (mask - 1)) == 0) continue;  // singleton
      DpEntry& e = dp[mask];
      e.rows = closed_form_rows(mask);
      // Two passes: connected partitions first, cross joins only if the
      // subset has no equi-connected split at all.
      for (int pass = 0; pass < 2 && !e.valid; ++pass) {
        for (uint32_t probe = (mask - 1) & mask; probe != 0;
             probe = (probe - 1) & mask) {
          uint32_t build = mask & ~probe;
          if (!dp[probe].valid || !dp[build].valid) continue;
          JoinEdge edge =
              AnalyzeJoinEdge(query_, est_, tables_of(probe), tables_of(build));
          bool connected = edge.hash_conjunct >= 0;
          if (pass == 0 && !connected) continue;
          double cost = HashJoinCost(kHashRates, dp[probe].cost,
                                     dp[probe].rows, dp[build].cost,
                                     dp[build].rows, e.rows);
          if (!e.valid || cost < e.cost) {
            e.cost = cost;
            e.probe = probe;
            e.valid = true;
          }
        }
      }
      if (!e.valid) {
        return Status::PlanError("DP join enumeration found no plan");
      }
    }

    // Reconstruct the best tree; each scan is consumed exactly once.
    auto rebuild = [&](auto&& self, uint32_t mask) -> std::unique_ptr<PlanNode> {
      if ((mask & (mask - 1)) == 0) {
        int t = 0;
        while ((mask & (1u << t)) == 0) ++t;
        return std::move(scans[static_cast<size_t>(t)]);
      }
      const DpEntry& e = dp[mask];
      uint32_t build_mask = mask & ~e.probe;
      std::set<int> build_tables = tables_of(build_mask);
      JoinEdge edge =
          AnalyzeJoinEdge(query_, est_, tables_of(e.probe), build_tables);
      auto probe = self(self, e.probe);
      auto build = self(self, build_mask);
      auto join = MakeHashJoin(std::move(probe), std::move(build),
                               build_tables, edge, e.rows);
      // MakeHashJoin costs incrementally; pin the DP-modeled cost so the
      // tree reports exactly what the enumeration compared.
      join->total_cost = e.cost;
      return join;
    };
    return Result<std::unique_ptr<PlanNode>>(rebuild(rebuild, full));
  }

  /// Recomputes scan and join costs bottom-up after predicate transfer
  /// mutated the tree (sifted scans shrink every operator below a
  /// producing join; producers pay for building their Bloom filters).
  double RecostJoinTree(PlanNode* node) {
    if (node->op == PlanOp::kColumnScan || node->op == PlanOp::kSiftedScan) {
      node->total_cost = ScanCost(*node);
      // Bloom probes run on every row surviving the scan predicates; charge
      // base rows as a conservative bound (zone maps may skip some).
      node->total_cost += node->base_rows * kBloomProbeRow *
                          static_cast<double>(node->sift_probes.size());
      return node->total_cost;
    }
    if (node->op == PlanOp::kHashJoin) {
      double probe_cost = RecostJoinTree(node->children[0].get());
      double build_cost = RecostJoinTree(node->children[1].get());
      const PlanNode& probe = *node->children[0];
      const PlanNode& build = *node->children[1];
      node->total_cost = HashJoinCost(kHashRates, probe_cost,
                                      probe.estimated_rows, build_cost,
                                      build.estimated_rows,
                                      node->estimated_rows);
      if (node->sift_id >= 0) {
        node->total_cost += build.estimated_rows * kBloomBuildRow;
      }
      return node->total_cost;
    }
    return node->total_cost;
  }

  Result<std::unique_ptr<PlanNode>> AddOrderLimitProject(
      std::unique_ptr<PlanNode> child) {
    const SelectStatement& stmt = query_.stmt;
    if (!stmt.order_by.empty() && stmt.limit.has_value()) {
      // Bounded-heap Top-N: AP's way to avoid a full sort.
      auto topn = std::make_unique<PlanNode>(PlanOp::kTopN);
      HTAPEX_ASSIGN_OR_RETURN(topn->sort_keys, OrderByKeys(query_, agg_slots_));
      topn->limit = *stmt.limit;
      topn->offset = stmt.offset.value_or(0);
      double rows = child->estimated_rows;
      // Added as doubles: exact below 2^53, and LIMIT + OFFSET may not fit
      // in int64_t.
      double k = static_cast<double>(*stmt.limit) +
                 static_cast<double>(stmt.offset.value_or(0));
      topn->estimated_rows = std::min(rows, static_cast<double>(*stmt.limit));
      topn->total_cost =
          child->total_cost + rows * kTopNRow * Log2(k);
      topn->children.push_back(std::move(child));
      child = std::move(topn);
    } else {
      HTAPEX_ASSIGN_OR_RETURN(child, AddSort(std::move(child), query_,
                                             agg_slots_, kSortRowLog));
      child = AddLimit(std::move(child), stmt);
    }
    return AddProjection(std::move(child), query_, agg_slots_,
                         kOutputRow);
  }

  const ApCostParams& params_;
  const BoundQuery& query_;
  CardinalityEstimator est_;
  OutputSlotMap agg_slots_;
};

}  // namespace

Result<PhysicalPlan> ApOptimizer::Plan(const BoundQuery& query) const {
  if (query.num_tables() == 0) {
    return Status::PlanError("query has no tables");
  }
  ApPlanBuilder builder(catalog_, params_, query);
  return builder.Build();
}

}  // namespace htapex
