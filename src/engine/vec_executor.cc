#include "engine/vec_executor.h"

#include <algorithm>
#include <thread>
#include <utility>

#include "engine/vec_batch.h"

namespace htapex {

int VecExecutor::effective_workers() const {
  if (requested_workers_ > 0) return requested_workers_;
  unsigned hc = std::thread::hardware_concurrency();
  int avail = hc == 0 ? 1 : static_cast<int>(hc);
  return std::max(1, std::min(4, avail));
}

bool VecExecutor::IsPipelineChain(const PlanNode& node) {
  const PlanNode* cur = &node;
  while (cur->op == PlanOp::kHashJoin) cur = cur->children[0].get();
  return cur->op == PlanOp::kColumnScan || cur->op == PlanOp::kSiftedScan;
}

Status VecExecutor::BuildPipeline(const PlanNode& root, ExecContext* ctx,
                                  PipelineSpec* spec) const {
  // Walk the probe spine: join nodes top→down, ending at the scan.
  std::vector<const PlanNode*> join_chain;
  const PlanNode* cur = &root;
  while (cur->op == PlanOp::kHashJoin) {
    join_chain.push_back(cur);
    cur = cur->children[0].get();
  }
  spec->scan = cur;
  HTAPEX_ASSIGN_OR_RETURN(spec->table, column_store_.GetTable(cur->relation));
  HTAPEX_ASSIGN_OR_RETURN(const TableSchema* schema,
                          catalog_.GetTable(cur->relation));
  for (const auto& name : cur->columns_read) {
    int c = schema->ColumnIndex(name);
    if (c < 0) return Status::ExecutionError("unknown column: " + name);
    spec->ordinals.push_back(c);
  }
  // Build sides run top-down — the same order the row executor's
  // build-first RunHashJoin recursion visits them. An empty build side
  // empties every inner join above it regardless of the probe side, so the
  // pipeline cuts there: the joins already built record zero output rows
  // and the scan (plus everything below the cut) never executes — exactly
  // the node set and counts of the row oracle's early return. Within one
  // table the key-insertion sequence is the row executor's, so duplicate
  // chains replay equal_range order (LIFO — see JoinTable).
  for (const PlanNode* j : join_chain) {
    BuiltJoin bj;
    bj.node = j;
    HTAPEX_ASSIGN_OR_RETURN(bj.build_rows, Run(*j->children[1], ctx));
    CollectScanRanges(*j->children[1], &bj.build_ranges);
    if (bj.build_rows.empty()) {
      spec->joins.push_back(std::move(bj));
      spec->empty_cut = true;
      break;
    }
    if (j->left_key == nullptr || j->right_key == nullptr) {
      bj.cross = true;
    } else {
      bj.flat.Reserve(bj.build_rows.size());
      HTAPEX_RETURN_IF_ERROR(HashBuildKeys(
          *j, bj.build_rows, ctx, &bj.build_keys, [&bj](uint64_t h, size_t i) {
            bj.flat.Insert(h, static_cast<uint32_t>(i));
          }));
    }
    spec->joins.push_back(std::move(bj));
  }
  if (spec->empty_cut) {
    // Stats cover only the top-down prefix of joins whose builds ran.
    for (const BuiltJoin& bj : spec->joins) spec->nodes.push_back(bj.node);
    return Status::OK();
  }
  std::reverse(spec->joins.begin(), spec->joins.end());  // bottom-up probing
  spec->nodes.push_back(cur);
  for (const BuiltJoin& bj : spec->joins) spec->nodes.push_back(bj.node);
  ResolveKeySources(spec);
  // Resolve the scan's sift probes against the filters just built (the
  // producers are spine joins above the scan, so all ids are present now).
  for (const SiftProbe& sp : cur->sift_probes) {
    auto it = ctx->sift_filters.find(sp.sift_id);
    if (it == ctx->sift_filters.end()) {
      return Status::ExecutionError("sift filter not built before scan");
    }
    spec->scan_sifts.push_back(&it->second);
    if (sp.key->kind != ExprKind::kColumnRef) {
      return Status::ExecutionError("sift key must be a scan column");
    }
    spec->sift_ordinals.push_back(sp.key->flat_slot - cur->slot_offset);
  }
  return Status::OK();
}

void VecExecutor::ResolveKeySources(PipelineSpec* spec) const {
  for (size_t ji = 0; ji < spec->joins.size(); ++ji) {
    BuiltJoin& bj = spec->joins[ji];
    if (bj.cross || bj.node->left_key == nullptr) continue;
    const Expr& key = *bj.node->left_key;
    if (key.kind != ExprKind::kColumnRef || key.flat_slot < 0) continue;
    const int ordinal = key.flat_slot - spec->scan->slot_offset;
    // A scan-column key must be one the scan actually reads; otherwise the
    // composite row would hold NULL in that slot (the row executor's
    // semantics) and the gather would wrongly see stored values.
    if (ordinal >= 0 && std::find(spec->ordinals.begin(),
                                  spec->ordinals.end(),
                                  ordinal) != spec->ordinals.end()) {
      bj.key_source = KeySource::kScanColumn;
      bj.key_ordinal = ordinal;
      continue;
    }
    for (size_t e = 0; e < ji && bj.key_src_join < 0; ++e) {
      for (const auto& [lo, cnt] : spec->joins[e].build_ranges) {
        if (key.flat_slot < lo || key.flat_slot >= lo + cnt) continue;
        bj.key_source = KeySource::kBuildColumn;
        bj.key_src_join = static_cast<int>(e);
        bj.key_src_slot = key.flat_slot;
        // Hash each source build row's key value once per pipeline.
        const Rows& src = spec->joins[e].build_rows;
        bj.src_hashes.resize(src.size());
        bj.src_nulls.resize(src.size());
        for (size_t b = 0; b < src.size(); ++b) {
          const Value& v = src[b][static_cast<size_t>(key.flat_slot)];
          bj.src_nulls[b] = v.is_null() ? 1 : 0;
          bj.src_hashes[b] = v.is_null() ? 0 : v.Hash();
        }
        break;
      }
    }
  }
}

Status VecExecutor::TypedAggMorsel(const PipelineSpec& spec,
                                   const VecBatch& batch,
                                   kernels::Arena* arena,
                                   MorselOut* out) const {
  const PlanNode& node = *spec.agg;
  std::vector<AggState>& states =
      out->groups.try_emplace(Row{}, node.aggregates.size()).first->second;
  if (batch.sel.empty()) return Status::OK();
  for (size_t a = 0; a < node.aggregates.size(); ++a) {
    const Expr& agg = *node.aggregates[a];
    AggState& s = states[a];
    if (agg.count_star) {
      s.count = static_cast<int64_t>(batch.sel.size());
      continue;
    }
    bool sums = agg.agg_kind == AggKind::kSum || agg.agg_kind == AggKind::kAvg;
    int ordinal = agg.children[0]->flat_slot - spec.scan->slot_offset;
    const ColumnVector& col =
        spec.table->columns[static_cast<size_t>(ordinal)];
    if (col.type() == DataType::kDouble) {
      double* buf = arena->AllocDoubles(batch.sel.size());
      size_t k = GatherNonNullF64(col, batch, buf);
      if (k == 0) continue;
      s.count = static_cast<int64_t>(k);
      if (sums) {
        // Any double value flips SUM to the double accumulator — the same
        // promotion point AccumulateAggValue hits on the first value.
        s.sum_is_int = false;
        s.sum = kernels::SumF64(buf, static_cast<int>(k));
      }
      double mn = buf[0], mx = buf[0];
      for (size_t i = 1; i < k; ++i) {
        mn = std::min(mn, buf[i]);
        mx = std::max(mx, buf[i]);
      }
      s.min = Value::Double(mn);
      s.max = Value::Double(mx);
      s.any = true;
    } else {
      int64_t* buf = arena->AllocInt64s(batch.sel.size());
      size_t k = GatherNonNullI64(col, batch, buf);
      if (k == 0) continue;
      s.count = static_cast<int64_t>(k);
      if (sums) s.isum = kernels::SumI64(buf, static_cast<int>(k));
      int64_t mn = buf[0], mx = buf[0];
      for (size_t i = 1; i < k; ++i) {
        mn = std::min(mn, buf[i]);
        mx = std::max(mx, buf[i]);
      }
      s.min = Value::Int(mn);
      s.max = Value::Int(mx);
      s.any = true;
    }
  }
  return Status::OK();
}

Status VecExecutor::ProcessMorsel(const PipelineSpec& spec,
                                  const Morsel& morsel, int total_slots,
                                  kernels::Arena* arena,
                                  MorselOut* out) const {
  VecBatch batch;
  batch.table = spec.table;
  batch.begin = morsel.begin;
  batch.end = morsel.end;
  HTAPEX_RETURN_IF_ERROR(ComputeScanSelection(*spec.scan, spec.ordinals,
                                              total_slots, arena, &batch));
  // Fused sift: gather each sift key column through the selection vector,
  // bulk-hash it (kernels::HashI64/F64/Bytes are bit-identical to
  // Value::Hash), test the Bloom filters, and compact. NULL keys can never
  // join and are dropped, exactly like RunSiftedScan. Surviving hash
  // arrays are compacted alongside the selection so the first join can
  // reuse them instead of rehashing the same column.
  std::vector<uint64_t*> sift_hashes(spec.scan_sifts.size(), nullptr);
  if (!spec.scan_sifts.empty() && !batch.sel.empty()) {
    const size_t n = batch.sel.size();
    std::vector<uint8_t*> sift_nulls(spec.scan_sifts.size(), nullptr);
    for (size_t s = 0; s < spec.scan_sifts.size(); ++s) {
      sift_hashes[s] = arena->AllocU64s(n);
      sift_nulls[s] = arena->AllocU8(n);
      GatherKeyHashes(
          spec.table->columns[static_cast<size_t>(spec.sift_ordinals[s])],
          batch.begin, batch.sel.data(), n, arena, sift_hashes[s],
          sift_nulls[s]);
    }
    size_t w = 0;
    for (size_t i = 0; i < n; ++i) {
      bool keep = true;
      for (size_t s = 0; s < spec.scan_sifts.size(); ++s) {
        if (sift_nulls[s][i] ||
            !spec.scan_sifts[s]->MayContain(sift_hashes[s][i])) {
          keep = false;
          break;
        }
      }
      if (!keep) continue;
      for (size_t s = 0; s < spec.scan_sifts.size(); ++s) {
        sift_hashes[s][w] = sift_hashes[s][i];
      }
      batch.sel[w] = batch.sel[i];
      ++w;
    }
    batch.sel.resize(w);
  }
  out->counts[0] = batch.sel.size();
  if (spec.sink == SinkKind::kTypedAgg) {
    return TypedAggMorsel(spec, batch, arena, out);
  }

  // The late-materialized tuple set: per surviving tuple, its scan offset
  // plus one build-row index per completed join. Composite rows exist only
  // transiently below (computed keys, residual predicates) until the sink.
  std::vector<uint32_t> cur_off(batch.sel.begin(), batch.sel.end());
  std::vector<std::vector<uint32_t>> bidx;

  // Scratch composite row for EvalExpr/PassesPredicates fallbacks. Filled
  // lazily per tuple; made to equal the row executor's probe row exactly:
  // scan columns + completed joins' slots, current join's build range
  // nulled (candidates merge over it per match). Slots outside the
  // pipeline stay NULL from init, as they would in a materialized row.
  Row scratch;
  auto fill_scratch = [&](size_t t, const BuiltJoin& bj) {
    if (scratch.empty()) {
      scratch.assign(static_cast<size_t>(total_slots), Value::Null());
    }
    for (int c : spec.ordinals) {
      scratch[static_cast<size_t>(spec.scan->slot_offset + c)] =
          spec.table->columns[static_cast<size_t>(c)].Get(batch.begin +
                                                          cur_off[t]);
    }
    for (size_t p = 0; p < bidx.size(); ++p) {
      MergeSlots(spec.joins[p].build_ranges,
                 spec.joins[p].build_rows[bidx[p][t]], &scratch);
    }
    for (const auto& [lo, cnt] : bj.build_ranges) {
      for (int s = 0; s < cnt; ++s) {
        scratch[static_cast<size_t>(lo + s)] = Value::Null();
      }
    }
  };

  for (size_t ji = 0; ji < spec.joins.size(); ++ji) {
    const BuiltJoin& bj = spec.joins[ji];
    const PlanNode& jn = *bj.node;
    const size_t nt = cur_off.size();
    std::vector<uint32_t> next_off;
    std::vector<std::vector<uint32_t>> next_bidx(bidx.size() + 1);
    size_t scratch_t = static_cast<size_t>(-1);

    auto emit = [&](size_t t, uint32_t b) {
      next_off.push_back(cur_off[t]);
      for (size_t p = 0; p < bidx.size(); ++p) {
        next_bidx[p].push_back(bidx[p][t]);
      }
      next_bidx[bidx.size()].push_back(b);
    };
    auto candidate_passes = [&](size_t t, uint32_t b) -> Result<bool> {
      if (jn.predicates.empty()) return true;
      if (scratch_t != t) {
        fill_scratch(t, bj);
        scratch_t = t;
      }
      MergeSlots(bj.build_ranges, bj.build_rows[b], &scratch);
      return PassesPredicates(jn, scratch);
    };

    if (bj.cross) {
      const uint32_t nb = static_cast<uint32_t>(bj.build_rows.size());
      for (size_t t = 0; t < nt; ++t) {
        for (uint32_t b = 0; b < nb; ++b) {
          HTAPEX_ASSIGN_OR_RETURN(bool pass, candidate_passes(t, b));
          if (pass) emit(t, b);
        }
      }
    } else {
      // Per-tuple key hashes + null flags, gathered by resolved source.
      const uint64_t* hashes = nullptr;
      const uint8_t* nulls = nullptr;  // nullptr: no key is null
      const ColumnVector* key_col = nullptr;
      std::vector<Value> computed;
      switch (bj.key_source) {
        case KeySource::kScanColumn: {
          key_col = &spec.table->columns[static_cast<size_t>(bj.key_ordinal)];
          // The fused sift already hashed (and null-stripped) this column
          // when it feeds the first join — reuse the compacted array.
          if (ji == 0) {
            for (size_t s = 0; s < spec.sift_ordinals.size(); ++s) {
              if (spec.sift_ordinals[s] == bj.key_ordinal) {
                hashes = sift_hashes[s];
                break;
              }
            }
          }
          if (hashes == nullptr) {
            uint64_t* h = arena->AllocU64s(nt);
            uint8_t* nn = arena->AllocU8(nt);
            GatherKeyHashes(*key_col, batch.begin, cur_off.data(), nt, arena,
                            h, nn);
            hashes = h;
            nulls = nn;
          }
          break;
        }
        case KeySource::kBuildColumn: {
          uint64_t* h = arena->AllocU64s(nt);
          uint8_t* nn = arena->AllocU8(nt);
          const std::vector<uint32_t>& src =
              bidx[static_cast<size_t>(bj.key_src_join)];
          for (size_t t = 0; t < nt; ++t) {
            h[t] = bj.src_hashes[src[t]];
            nn[t] = bj.src_nulls[src[t]];
          }
          hashes = h;
          nulls = nn;
          break;
        }
        case KeySource::kComputed: {
          uint64_t* h = arena->AllocU64s(nt);
          uint8_t* nn = arena->AllocU8(nt);
          computed.resize(nt);
          for (size_t t = 0; t < nt; ++t) {
            fill_scratch(t, bj);
            scratch_t = t;
            HTAPEX_ASSIGN_OR_RETURN(Value k, EvalExpr(*jn.left_key, scratch));
            nn[t] = k.is_null() ? 1 : 0;
            h[t] = k.is_null() ? 0 : k.Hash();
            computed[t] = std::move(k);
          }
          hashes = h;
          nulls = nn;
          break;
        }
      }
      // Key Value for candidate confirmation, fetched only for tuples
      // whose hash actually hits a chain.
      auto key_value = [&](size_t t) -> Value {
        switch (bj.key_source) {
          case KeySource::kScanColumn:
            return key_col->Get(batch.begin + cur_off[t]);
          case KeySource::kBuildColumn: {
            const size_t sj = static_cast<size_t>(bj.key_src_join);
            return spec.joins[sj].build_rows[bidx[sj][t]]
                                            [static_cast<size_t>(
                                                bj.key_src_slot)];
          }
          case KeySource::kComputed:
            return computed[t];
        }
        return Value::Null();
      };
      constexpr size_t kPrefetchAhead = 8;
      for (size_t t = 0; t < nt; ++t) {
        if (t + kPrefetchAhead < nt &&
            (nulls == nullptr || !nulls[t + kPrefetchAhead])) {
          bj.flat.Prefetch(hashes[t + kPrefetchAhead]);
        }
        if (nulls != nullptr && nulls[t]) continue;
        uint32_t b = bj.flat.Probe(hashes[t]);
        if (b == JoinTable::kNone) continue;
        const Value pk = key_value(t);
        for (; b != JoinTable::kNone; b = bj.flat.Next(b)) {
          if (bj.build_keys[b].Compare(pk) != 0) continue;
          HTAPEX_ASSIGN_OR_RETURN(bool pass, candidate_passes(t, b));
          if (pass) emit(t, b);
        }
      }
    }
    out->counts[1 + ji] = next_off.size();
    cur_off = std::move(next_off);
    bidx = std::move(next_bidx);
  }

  // Single materialization, at the sink. An aggregating sink consumes each
  // composite row immediately, so it reuses ONE scratch row (every
  // pipeline-owned slot is overwritten per tuple; slots outside the
  // pipeline stay NULL) instead of allocating per tuple — the accumulation
  // itself is AccumulateRow, as in the row executor's RunAggregate.
  auto fill_row = [&](size_t t, Row* row) {
    for (int c : spec.ordinals) {
      (*row)[static_cast<size_t>(spec.scan->slot_offset + c)] =
          spec.table->columns[static_cast<size_t>(c)].Get(batch.begin +
                                                          cur_off[t]);
    }
    for (size_t p = 0; p < bidx.size(); ++p) {
      MergeSlots(spec.joins[p].build_ranges,
                 spec.joins[p].build_rows[bidx[p][t]], row);
    }
  };
  if (spec.sink == SinkKind::kGroups) {
    Row row(static_cast<size_t>(total_slots), Value::Null());
    for (size_t t = 0; t < cur_off.size(); ++t) {
      fill_row(t, &row);
      HTAPEX_RETURN_IF_ERROR(AccumulateRow(*spec.agg, row, &out->groups));
    }
    return Status::OK();
  }
  Rows rows;
  rows.reserve(cur_off.size());
  for (size_t t = 0; t < cur_off.size(); ++t) {
    Row row(static_cast<size_t>(total_slots), Value::Null());
    fill_row(t, &row);
    rows.push_back(std::move(row));
  }
  out->rows = std::move(rows);
  return Status::OK();
}

void VecExecutor::RunMorselLoop(const PipelineSpec& spec, int total_slots,
                                std::vector<MorselOut>* outs) const {
  MorselDispatcher dispatcher(spec.table->num_rows, kMorselRows);
  auto work = [&](int) {
    Morsel m;
    while (dispatcher.Next(&m)) {
      MorselOut& mo = (*outs)[m.index];
      mo.counts.assign(spec.nodes.size(), 0);
      kernels::Arena& arena = kernels::ThreadArena();
      arena.Reset();
      mo.status = ProcessMorsel(spec, m, total_slots, &arena, &mo);
    }
  };
  const int workers = effective_workers();
  if (workers <= 1 || dispatcher.morsel_count() <= 1) {
    work(0);
    return;
  }
  std::lock_guard<std::mutex> lock(pool_mu_);
  if (pool_ == nullptr || pool_->workers() != workers) {
    pool_ = std::make_unique<WorkerPool>(workers);
  }
  pool_->Run(work);
}

void VecExecutor::RecordPipelineStats(const PipelineSpec& spec,
                                      const std::vector<MorselOut>& outs,
                                      ExecContext* ctx) {
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    size_t total = 0;
    for (const MorselOut& mo : outs) total += mo.counts[i];
    ctx->Record(*spec.nodes[i], total);
  }
}

Result<Rows> VecExecutor::RunPipeline(const PlanNode& root,
                                      ExecContext* ctx) const {
  PipelineSpec spec;
  HTAPEX_RETURN_IF_ERROR(BuildPipeline(root, ctx, &spec));
  if (spec.empty_cut) {
    RecordPipelineStats(spec, {}, ctx);
    return Rows{};
  }
  MorselDispatcher sizing(spec.table->num_rows, kMorselRows);
  std::vector<MorselOut> outs(sizing.morsel_count());
  RunMorselLoop(spec, ctx->total_slots, &outs);
  // Merge in morsel index order: output (and the error surfaced, if any)
  // is independent of worker count and scheduling.
  for (const MorselOut& mo : outs) HTAPEX_RETURN_IF_ERROR(mo.status);
  Rows all;
  for (MorselOut& mo : outs) {
    all.insert(all.end(), std::make_move_iterator(mo.rows.begin()),
               std::make_move_iterator(mo.rows.end()));
  }
  RecordPipelineStats(spec, outs, ctx);
  return all;
}

bool VecExecutor::TypedAggEligible(const PlanNode& node,
                                   const PipelineSpec& spec) {
  if (!node.group_keys.empty() || !spec.joins.empty()) return false;
  for (const auto& agg : node.aggregates) {
    if (agg->count_star) continue;
    if (agg->distinct) return false;
    if (agg->children.size() != 1 ||
        agg->children[0]->kind != ExprKind::kColumnRef) {
      return false;
    }
    int ordinal = agg->children[0]->flat_slot - spec.scan->slot_offset;
    if (ordinal < 0 ||
        static_cast<size_t>(ordinal) >= spec.table->columns.size()) {
      return false;
    }
    DataType t = spec.table->columns[static_cast<size_t>(ordinal)].type();
    if (t == DataType::kString) return false;
  }
  return true;
}

Result<Rows> VecExecutor::RunFusedAggregate(const PlanNode& node,
                                            ExecContext* ctx) const {
  // Each morsel accumulates partial states; partials merge at the pipeline
  // breaker in morsel order.
  PipelineSpec spec;
  spec.agg = &node;
  HTAPEX_RETURN_IF_ERROR(BuildPipeline(*node.children[0], ctx, &spec));
  GroupMap global;
  if (spec.empty_cut) {
    // The join spine is empty; aggregate over zero input rows, exactly
    // like the row executor aggregating its early-returned empty join.
    RecordPipelineStats(spec, {}, ctx);
    return FinalizeGroups(node, global);
  }
  spec.sink = TypedAggEligible(node, spec) ? SinkKind::kTypedAgg
                                           : SinkKind::kGroups;
  MorselDispatcher sizing(spec.table->num_rows, kMorselRows);
  std::vector<MorselOut> outs(sizing.morsel_count());
  RunMorselLoop(spec, ctx->total_slots, &outs);
  for (const MorselOut& mo : outs) HTAPEX_RETURN_IF_ERROR(mo.status);
  RecordPipelineStats(spec, outs, ctx);
  for (const MorselOut& mo : outs) {
    for (const auto& [key, states] : mo.groups) {
      auto [it, inserted] = global.try_emplace(key, node.aggregates.size());
      for (size_t a = 0; a < node.aggregates.size(); ++a) {
        MergeAggState(*node.aggregates[a], states[a], &it->second[a]);
      }
    }
  }
  return FinalizeGroups(node, global);
}

Result<Rows> VecExecutor::Run(const PlanNode& node, ExecContext* ctx) const {
  Result<Rows> rows = RunDispatch(node, ctx);
  if (rows.ok()) ctx->Record(node, rows->size());
  return rows;
}

Result<Rows> VecExecutor::RunDispatch(const PlanNode& node,
                                      ExecContext* ctx) const {
  ChildRunner run = [this, ctx](const PlanNode& child) {
    return Run(child, ctx);
  };
  switch (node.op) {
    case PlanOp::kColumnScan:
    case PlanOp::kSiftedScan:
      return RunPipeline(node, ctx);
    case PlanOp::kHashJoin:
      if (IsPipelineChain(node)) return RunPipeline(node, ctx);
      return RunHashJoin(node, run, ctx);
    case PlanOp::kGroupAggregate:
    case PlanOp::kHashAggregate:
      if (IsPipelineChain(*node.children[0])) {
        return RunFusedAggregate(node, ctx);
      }
      return RunAggregate(node, run);
    case PlanOp::kFilter:
      return RunFilter(node, run);
    case PlanOp::kNestedLoopJoin:
      return RunNestedLoopJoin(node, run);
    case PlanOp::kSort:
      return RunSort(node, run);
    case PlanOp::kTopN:
      return RunTopN(node, run);
    case PlanOp::kLimit:
      return RunLimit(node, run);
    case PlanOp::kProject:
      return RunProject(node, run);
    case PlanOp::kExchange:
      return run(*node.children[0]);
    case PlanOp::kTableScan:
    case PlanOp::kIndexScan:
    case PlanOp::kIndexNestedLoopJoin:
      return Status::ExecutionError(
          std::string("vectorized executor cannot run TP operator: ") +
          PlanOpName(node.op));
  }
  return Status::Internal("unknown plan operator");
}

Result<QueryResultSet> VecExecutor::Execute(
    const PhysicalPlan& plan, std::vector<std::string> output_names,
    ExecStats* stats) const {
  ExecContext ctx{plan.total_slots, stats, {}};
  HTAPEX_ASSIGN_OR_RETURN(Rows rows, Run(*plan.root, &ctx));
  return QueryResultSet{std::move(output_names), std::move(rows)};
}

}  // namespace htapex
