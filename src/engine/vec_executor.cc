#include "engine/vec_executor.h"

#include <algorithm>
#include <atomic>
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
  // build-first hash join recursion visits them. An empty build side
  // empties every inner join above it regardless of the probe side, so the
  // pipeline cuts there: the joins already built record zero output rows
  // and the scan (plus everything below the cut) never executes — exactly
  // the node set and counts of the row oracle's early return. Within one
  // table the key-insertion sequence is the row executor's, so duplicate
  // chains replay equal_range order (LIFO — see JoinTable).
  for (const PlanNode* j : join_chain) {
    BuiltJoin bj;
    bj.node = j;
    HTAPEX_ASSIGN_OR_RETURN(bj.build_rows, ctx->Materialize(*j->children[1]));
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
  spec->row_slots.ordinals = spec->ordinals;
  for (size_t p = 0; p < spec->joins.size(); ++p) {
    spec->row_slots.joins.push_back(p);
  }
  HTAPEX_RETURN_IF_ERROR(ResolveKeySources(spec));
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

Status VecExecutor::ResolveKeySources(PipelineSpec* spec) {
  for (size_t ji = 0; ji < spec->joins.size(); ++ji) {
    BuiltJoin& bj = spec->joins[ji];
    if (bj.cross) continue;
    const Expr& key = *bj.node->left_key;
    if (key.kind != ExprKind::kColumnRef || key.flat_slot < 0) {
      return Status::Internal("hash-join probe key is not a column: " +
                              key.ToString());
    }
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
        break;
      }
    }
    if (bj.key_src_join < 0) {
      return Status::Internal("hash-join probe key is not read below it: " +
                              key.ToString());
    }
  }
  return Status::OK();
}

Status VecExecutor::TypedAggMorsel(const PipelineSpec& spec,
                                   const VecBatch& batch,
                                   kernels::Arena* arena,
                                   MorselOut* out) const {
  const PlanNode& node = *spec.consumer;
  out->groups = GroupMap(0, node.aggregates.size());
  AggState* states = out->groups.States(out->groups.FindOrInsert(nullptr));
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
      s.any = true;
      if (sums) {
        // Any double value flips SUM to the double accumulator — the same
        // promotion point AccumulateAggValue hits on the first value.
        s.sum_is_int = false;
        s.sum = kernels::SumF64(buf, static_cast<int>(k));
      } else if (agg.agg_kind == AggKind::kMin) {
        s.min = Value::Double(*std::min_element(buf, buf + k));
      } else if (agg.agg_kind == AggKind::kMax) {
        s.max = Value::Double(*std::max_element(buf, buf + k));
      }
    } else {
      int64_t* buf = arena->AllocInt64s(batch.sel.size());
      size_t k = GatherNonNullI64(col, batch, buf);
      if (k == 0) continue;
      s.count = static_cast<int64_t>(k);
      s.any = true;
      if (sums) {
        s.isum = kernels::SumI64(buf, static_cast<int>(k));
      } else if (agg.agg_kind == AggKind::kMin) {
        s.min = Value::Int(*std::min_element(buf, buf + k));
      } else if (agg.agg_kind == AggKind::kMax) {
        s.max = Value::Int(*std::max_element(buf, buf + k));
      }
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
  out->begin = morsel.begin;
  // The morsel's first evaluation error in the oracle's row-at-a-time
  // order. Each level keeps only its tuples before its first error; an
  // error a level finds is on a tuple that precedes every error found
  // below it, so it replaces them.
  Status err = ComputeScanSelection(*spec.scan, spec.ordinals, total_slots,
                                    arena, &batch);
  // Fused sift: gather each sift key column through the selection vector,
  // bulk-hash it (kernels::HashI64/F64/Bytes are bit-identical to
  // Value::Hash), test the Bloom filters, and compact. NULL keys can never
  // join and are dropped, exactly like the row executor's sifted scan.
  if (!spec.scan_sifts.empty() && !batch.sel.empty()) {
    const size_t n = batch.sel.size();
    std::vector<uint64_t*> sift_hashes(spec.scan_sifts.size(), nullptr);
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
      if (keep) batch.sel[w++] = batch.sel[i];
    }
    batch.sel.resize(w);
  }
  out->counts[0] = batch.sel.size();
  if (spec.sink == SinkKind::kTypedAgg) {
    HTAPEX_RETURN_IF_ERROR(TypedAggMorsel(spec, batch, arena, out));
    return err;
  }

  // The late-materialized tuple set: per surviving tuple, its scan offset
  // plus one build-row index per completed join, and per join the index of
  // each tuple's parent in the level below. Composite rows exist only
  // transiently below (residual predicates) until the sink.
  std::vector<uint32_t> cur_off(batch.sel.begin(), batch.sel.end());
  std::vector<std::vector<uint32_t>> bidx;
  std::vector<std::vector<uint32_t>> parents;

  // Scratch composite row for residual predicates. Filled lazily per
  // tuple; made to equal the row executor's probe row exactly: scan
  // columns + completed joins' slots, current join's build range nulled
  // (candidates merge over it per match). Slots outside the pipeline stay
  // NULL from init, as they would in a materialized row.
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
    std::vector<uint32_t> next_parent;
    size_t scratch_t = static_cast<size_t>(-1);
    Status level_err = Status::OK();

    // Emits candidate (t, b) if it passes the join's residual predicates;
    // false once one fails to evaluate.
    auto try_emit = [&](size_t t, uint32_t b) {
      if (!jn.predicates.empty()) {
        if (scratch_t != t) {
          fill_scratch(t, bj);
          scratch_t = t;
        }
        MergeSlots(bj.build_ranges, bj.build_rows[b], &scratch);
        Result<bool> pass = PassesPredicates(jn, scratch);
        if (!pass.ok()) {
          level_err = pass.status();
          return false;
        }
        if (!*pass) return true;
      }
      next_off.push_back(cur_off[t]);
      next_parent.push_back(static_cast<uint32_t>(t));
      for (size_t p = 0; p < bidx.size(); ++p) {
        next_bidx[p].push_back(bidx[p][t]);
      }
      next_bidx[bidx.size()].push_back(b);
      return true;
    };

    if (bj.cross) {
      const uint32_t nb = static_cast<uint32_t>(bj.build_rows.size());
      bool going = true;
      for (size_t t = 0; t < nt && going; ++t) {
        for (uint32_t b = 0; b < nb && going; ++b) going = try_emit(t, b);
      }
    } else {
      // Per-tuple key hashes and null flags, gathered by resolved source.
      uint64_t* hashes = arena->AllocU64s(nt);
      uint8_t* nulls = arena->AllocU8(nt);
      const ColumnVector* key_col = nullptr;
      // kBuildColumn: the tuple's key in its lower join's build row.
      auto build_key = [&](size_t t) -> const Value& {
        const size_t sj = static_cast<size_t>(bj.key_src_join);
        return spec.joins[sj].build_rows[bidx[sj][t]]
                                        [static_cast<size_t>(bj.key_src_slot)];
      };
      if (bj.key_source == KeySource::kScanColumn) {
        key_col = &spec.table->columns[static_cast<size_t>(bj.key_ordinal)];
        GatherKeyHashes(*key_col, batch.begin, cur_off.data(), nt, arena,
                        hashes, nulls);
      } else {
        for (size_t t = 0; t < nt; ++t) {
          const Value& k = build_key(t);
          nulls[t] = k.is_null() ? 1 : 0;
          hashes[t] = k.is_null() ? 0 : k.Hash();
        }
      }
      bool going = true;
      for (size_t t = 0; t < nt && going; ++t) {
        if (nulls[t]) continue;
        uint32_t b = bj.flat.Probe(hashes[t]);
        if (b == JoinTable::kNone) continue;
        // The key Value confirms candidates, fetched only on a chain hit.
        const Value pk = key_col != nullptr
                             ? key_col->Get(batch.begin + cur_off[t])
                             : build_key(t);
        for (; b != JoinTable::kNone && going; b = bj.flat.Next(b)) {
          if (bj.build_keys[b].Compare(pk) == 0) going = try_emit(t, b);
        }
      }
    }
    if (!level_err.ok()) err = std::move(level_err);
    out->counts[1 + ji] = next_off.size();
    cur_off = std::move(next_off);
    bidx = std::move(next_bidx);
    parents.push_back(std::move(next_parent));
  }

  // The sink. A kRows or kTopN morsel keeps its tuple lists (for
  // PushMorsel, or the heap's late materialization); an aggregating sink
  // consumes each tuple at once, materialized into ONE reused composite
  // row (every pipeline-owned slot is overwritten per tuple; slots outside
  // the pipeline stay NULL).
  if (spec.sink != SinkKind::kGroups) {
    out->offs = std::move(cur_off);
    out->bidx = std::move(bidx);
    out->parents = std::move(parents);
    return err;
  }
  out->groups = GroupMap(spec.consumer->group_keys.size(),
                         spec.consumer->aggregates.size());
  Row row(static_cast<size_t>(total_slots), Value::Null());
  KeyRefs key(spec.consumer->group_keys.size());
  for (size_t t = 0; t < cur_off.size(); ++t) {
    FillRow(spec, spec.row_slots, batch.begin, cur_off, bidx, t, &row);
    HTAPEX_RETURN_IF_ERROR(
        AccumulateRow(*spec.consumer, row, &key, &out->groups));
  }
  return err;
}

void VecExecutor::FillRow(const PipelineSpec& spec, const SlotSet& slots,
                          size_t base, const std::vector<uint32_t>& offs,
                          const std::vector<std::vector<uint32_t>>& bidx,
                          size_t t, Row* row) {
  for (int c : slots.ordinals) {
    (*row)[static_cast<size_t>(spec.scan->slot_offset + c)] =
        spec.table->columns[static_cast<size_t>(c)].Get(base + offs[t]);
  }
  for (size_t p : slots.joins) {
    MergeSlots(spec.joins[p].build_ranges,
               spec.joins[p].build_rows[bidx[p][t]], row);
  }
}

void VecExecutor::RunMorsel(const PipelineSpec& spec, const Morsel& morsel,
                            int total_slots, MorselOut* out,
                            TopNHeap* heap) const {
  out->counts.assign(spec.nodes.size(), 0);
  kernels::Arena& arena = kernels::ThreadArena();
  arena.Reset();
  out->status = ProcessMorsel(spec, morsel, total_slots, &arena, out);
  if (heap == nullptr || !out->status.ok()) return;
  // Only the slots the sort keys read are filled, and only the keys enter
  // the heap; sequence numbers (morsel, position) follow the oracle's
  // input order, so the workers' heaps merge into the whole input's.
  Row row(static_cast<size_t>(total_slots), Value::Null());
  for (size_t t = 0; t < out->offs.size() && out->status.ok(); ++t) {
    FillRow(spec, spec.key_slots, out->begin, out->offs, out->bidx, t, &row);
    out->status =
        heap->Offer(row, (static_cast<uint64_t>(morsel.index) << 32) | t);
  }
}

size_t VecExecutor::RunMorselLoop(const PipelineSpec& spec, int total_slots,
                                  size_t bound, std::vector<MorselOut>* outs,
                                  std::vector<TopNHeap>* heaps) const {
  MorselDispatcher dispatcher(spec.table->num_rows, kMorselRows);
  outs->resize(dispatcher.morsel_count());
  // With a bound: the leading morsels completed so far and their tuples.
  // Once they reach the bound (or one holds an error, which the consumer
  // either stops before or receives), no later morsel can reach the
  // consumer, so workers stop claiming there.
  std::mutex frontier_mu;
  size_t frontier = 0;  // guarded by frontier_mu
  size_t produced = 0;  // guarded by frontier_mu
  std::atomic<size_t> claim_end{outs->size()};
  auto work = [&](int worker) {
    TopNHeap* heap =
        heaps != nullptr ? &(*heaps)[static_cast<size_t>(worker)] : nullptr;
    Morsel m;
    while (dispatcher.Next(&m) &&
           m.index < claim_end.load(std::memory_order_relaxed)) {
      MorselOut& mo = (*outs)[m.index];
      RunMorsel(spec, m, total_slots, &mo, heap);
      if (bound == kUnbounded) continue;
      std::lock_guard<std::mutex> lock(frontier_mu);
      mo.done = true;
      while (frontier < claim_end.load(std::memory_order_relaxed) &&
             (*outs)[frontier].done) {
        const MorselOut& f = (*outs)[frontier++];
        produced += f.offs.size();
        if (!f.status.ok() || produced >= bound) {
          claim_end.store(frontier, std::memory_order_relaxed);
        }
      }
    }
  };
  if (effective_workers() == 1 || outs->size() <= 1) {
    work(0);
  } else {
    const int workers = effective_workers();
    std::lock_guard<std::mutex> lock(pool_mu_);
    if (pool_ == nullptr || pool_->workers() != workers) {
      pool_ = std::make_unique<WorkerPool>(workers);
    }
    pool_->Run(work);
  }
  return claim_end.load(std::memory_order_relaxed);
}

Result<bool> VecExecutor::PushMorsel(const PipelineSpec& spec,
                                     const MorselOut& mo, Row* row,
                                     RowSink out,
                                     std::vector<size_t>* totals) const {
  for (size_t t = 0; t < mo.offs.size(); ++t) {
    FillRow(spec, spec.row_slots, mo.begin, mo.offs, mo.bidx, t, row);
    HTAPEX_ASSIGN_OR_RETURN(bool more, out(*row));
    if (more) continue;
    // Stopped at tuple t. In the oracle's nested push, each pipeline node
    // had pushed the tuples of its level up to t's ancestor there.
    size_t idx = t;
    for (size_t level = spec.joins.size();; --level) {
      (*totals)[level] += idx + 1;
      if (level == 0) break;
      idx = mo.parents[level - 1][idx];
    }
    return false;
  }
  // The consumer still wants rows, so the oracle reached the failing tuple.
  HTAPEX_RETURN_IF_ERROR(mo.status);
  for (size_t i = 0; i < totals->size(); ++i) (*totals)[i] += mo.counts[i];
  return true;
}

void VecExecutor::RecordPipelineStats(const PipelineSpec& spec,
                                      const std::vector<size_t>& totals,
                                      bool stopped, ExecContext* ctx) {
  for (size_t i = 0; i < spec.nodes.size(); ++i) {
    ctx->Record(*spec.nodes[i], totals[i], stopped);
  }
}

Status VecExecutor::SumCounts(const PipelineSpec& spec,
                              const std::vector<MorselOut>& outs,
                              std::vector<size_t>* totals) {
  // In morsel index order: the error surfaced, if any, is independent of
  // worker count and scheduling.
  for (const MorselOut& mo : outs) {
    HTAPEX_RETURN_IF_ERROR(mo.status);
    for (size_t i = 0; i < spec.nodes.size(); ++i) {
      (*totals)[i] += mo.counts[i];
    }
  }
  return Status::OK();
}

Result<bool> VecExecutor::RunPipeline(const PlanNode& root, ExecContext* ctx,
                                      size_t bound, RowSink out) const {
  PipelineSpec spec;
  HTAPEX_RETURN_IF_ERROR(BuildPipeline(root, ctx, &spec));
  std::vector<size_t> totals(spec.nodes.size(), 0);
  bool more = true;
  if (!spec.empty_cut) {
    // Buffered per morsel, pushed in morsel order: results and ExecStats
    // do not depend on the worker count.
    std::vector<MorselOut> outs;
    const size_t completed = RunMorselLoop(spec, ctx->total_slots, bound, &outs);
    Row row(static_cast<size_t>(ctx->total_slots), Value::Null());
    for (size_t m = 0; m < outs.size() && more; ++m) {
      if (m == completed) {
        return Status::Internal("pipeline consumer took more than its bound");
      }
      HTAPEX_ASSIGN_OR_RETURN(more,
                              PushMorsel(spec, outs[m], &row, out, &totals));
    }
  }
  RecordPipelineStats(spec, totals, !more, ctx);
  return more;
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

Result<bool> VecExecutor::RunFusedAggregate(const PlanNode& node,
                                            ExecContext* ctx,
                                            RowSink out) const {
  // Each morsel accumulates partial states; partials merge at the pipeline
  // breaker in morsel order.
  PipelineSpec spec;
  spec.consumer = &node;
  HTAPEX_RETURN_IF_ERROR(BuildPipeline(*node.children[0], ctx, &spec));
  std::vector<size_t> totals(spec.nodes.size(), 0);
  GroupMap global(node.group_keys.size(), node.aggregates.size());
  // An empty_cut spine aggregates zero input rows, exactly like the row
  // executor aggregating its early-returned empty join.
  if (!spec.empty_cut) {
    spec.sink = TypedAggEligible(node, spec) ? SinkKind::kTypedAgg
                                             : SinkKind::kGroups;
    std::vector<MorselOut> outs;
    RunMorselLoop(spec, ctx->total_slots, kUnbounded, &outs);
    HTAPEX_RETURN_IF_ERROR(SumCounts(spec, outs, &totals));
    // Each group merges its partial states in morsel order.
    for (const MorselOut& mo : outs) {
      HTAPEX_RETURN_IF_ERROR(MergeGroups(node, mo.groups, &global));
    }
  }
  RecordPipelineStats(spec, totals, false, ctx);
  return PushGroups(node, global, out);
}

Result<bool> VecExecutor::RunFusedTopN(const PlanNode& node, ExecContext* ctx,
                                       RowSink out) const {
  TopNHeap heap(node, /*keep_rows=*/false);
  PipelineSpec spec;
  spec.sink = SinkKind::kTopN;
  spec.consumer = &node;
  HTAPEX_RETURN_IF_ERROR(BuildPipeline(*node.children[0], ctx, &spec));
  std::vector<size_t> totals(spec.nodes.size(), 0);
  if (spec.empty_cut) {
    RecordPipelineStats(spec, totals, false, ctx);
    return true;
  }
  std::vector<const Expr*> refs;
  for (const SortKey& k : node.sort_keys) k.expr->CollectColumnRefs(&refs);
  auto read_by_keys = [&refs](int lo, int count) {
    for (const Expr* r : refs) {
      if (r->flat_slot >= lo && r->flat_slot < lo + count) return true;
    }
    return false;
  };
  for (int c : spec.ordinals) {
    if (read_by_keys(spec.scan->slot_offset + c, 1)) {
      spec.key_slots.ordinals.push_back(c);
    }
  }
  for (size_t p = 0; p < spec.joins.size(); ++p) {
    for (const auto& [lo, count] : spec.joins[p].build_ranges) {
      if (read_by_keys(lo, count)) {
        spec.key_slots.joins.push_back(p);
        break;
      }
    }
  }
  std::vector<MorselOut> outs;
  std::vector<TopNHeap> heaps(static_cast<size_t>(effective_workers()), heap);
  RunMorselLoop(spec, ctx->total_slots, kUnbounded, &outs, &heaps);
  HTAPEX_RETURN_IF_ERROR(SumCounts(spec, outs, &totals));
  RecordPipelineStats(spec, totals, false, ctx);
  for (TopNHeap& h : heaps) heap.Merge(std::move(h));
  // Only the rows the window emits are materialized.
  Row row(static_cast<size_t>(ctx->total_slots), Value::Null());
  auto emit = [&](const Row&, uint64_t seq) {
    const MorselOut& mo = outs[seq >> 32];
    FillRow(spec, spec.row_slots, mo.begin, mo.offs, mo.bidx,
            seq & 0xffffffffu, &row);
    return out(row);
  };
  return heap.Emit(emit);
}

Result<bool> VecExecutor::Dispatch(const PlanNode& node, ExecContext* ctx,
                                   RowSink out, size_t bound) const {
  switch (node.op) {
    case PlanOp::kColumnScan:
    case PlanOp::kSiftedScan:
      return RunPipeline(node, ctx, bound, out);
    case PlanOp::kHashJoin:
      if (IsPipelineChain(node)) return RunPipeline(node, ctx, bound, out);
      break;
    case PlanOp::kGroupAggregate:
    case PlanOp::kHashAggregate:
      if (IsPipelineChain(*node.children[0])) {
        return RunFusedAggregate(node, ctx, out);
      }
      break;
    case PlanOp::kTopN:
      if (IsPipelineChain(*node.children[0])) {
        return RunFusedTopN(node, ctx, out);
      }
      break;
    case PlanOp::kTableScan:
    case PlanOp::kIndexScan:
    case PlanOp::kIndexNestedLoopJoin:
      return Status::ExecutionError(
          std::string("vectorized executor cannot run TP operator: ") +
          PlanOpName(node.op));
    default:
      break;
  }
  return PushOperator(node, ctx, out, bound);
}

Result<QueryResultSet> VecExecutor::Execute(
    const PhysicalPlan& plan, std::vector<std::string> output_names,
    ExecStats* stats) const {
  auto dispatch = [this](const PlanNode& node, ExecContext* ctx, RowSink out,
                         size_t bound) {
    return Dispatch(node, ctx, out, bound);
  };
  return ExecutePlan(plan, std::move(output_names), stats, dispatch);
}

}  // namespace htapex
