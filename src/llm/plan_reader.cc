#include "llm/plan_reader.h"

#include <algorithm>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/string_util.h"

namespace htapex {

namespace {

/// The members ReadPlanSurface reads; any other key is kOther.
enum Member {
  kNodeType,
  kRelation,
  kIndexColumn,
  kCondition,
  kPlanRows,
  kTableRows,
  kTotalCost,
  kLimit,
  kOffset,
  kSortKey,
  kColumns,
  kPlans,
  kMemberCount,
  kOther = kMemberCount,
};

Member MemberOf(const JsonString& key) {
  static constexpr std::string_view kNames[kMemberCount] = {
      "Node Type",  "Relation Name", "Index Column", "Condition",
      "Plan Rows",  "Table Rows",    "Total Cost",   "Limit",
      "Offset",     "Sort Key",      "Columns",      "Plans"};
  std::string decoded;
  std::string_view name = key.raw;
  if (key.escaped) {
    decoded = key.Decode();
    name = decoded;
  }
  for (int m = 0; m < kMemberCount; ++m) {
    if (name == kNames[m]) return static_cast<Member>(m);
  }
  return kOther;
}

/// A member's last value, reduced to what JsonValue's getters see in it.
struct MemberValue {
  enum class Kind { kAbsent, kString, kNumber, kOther };
  Kind kind = Kind::kAbsent;
  JsonString text;      // kString
  double number = 0.0;  // kNumber, as double_value() reads it
  int64_t integer = 0;  // kNumber, as int_value() reads it

  static MemberValue Of(Kind kind) {
    MemberValue v;
    v.kind = kind;
    return v;
  }
};

/// One plan node: its members (a later occurrence of a key overwrites an
/// earlier one, as JsonValue::Set does) and, when the last 'Plans' is an
/// array, its elements as child nodes linked in document order. A
/// non-object element is a node with no members.
struct NodeFields {
  MemberValue members[kMemberCount];
  int columns = 0;  // elements of 'Columns' when its last value is an array
  int num_children = 0;
  int first_child = -1;
  int last_child = -1;
  int next_sibling = -1;

  JsonString GetString(Member m) const {
    return members[m].kind == MemberValue::Kind::kString ? members[m].text
                                                         : JsonString();
  }
  double GetDouble(Member m) const {
    return members[m].kind == MemberValue::Kind::kNumber ? members[m].number
                                                         : 0.0;
  }
  bool IsNumber(Member m) const {
    return members[m].kind == MemberValue::Kind::kNumber;
  }
};

/// Collects NodeFields from the tokenizer's events. Each open container
/// has a frame saying what its elements are: members of a node, nodes of
/// a 'Plans' array, elements of a 'Columns' array, or ignored values.
class SurfaceReader final : public JsonEvents {
 public:
  SurfaceReader() {
    nodes_.reserve(16);
    nodes_.emplace_back();  // the root, memberless unless it is an object
    frames_.reserve(16);
  }

  const std::vector<NodeFields>& nodes() const { return nodes_; }

  void Null() override { Scalar(MemberValue::Of(MemberValue::Kind::kOther)); }
  void Bool(bool) override {
    Scalar(MemberValue::Of(MemberValue::Kind::kOther));
  }
  void Int(int64_t i) override { Number(static_cast<double>(i), i); }
  void Double(double d) override { Number(d, SaturatingInt64(d)); }
  void String(const JsonString& s) override {
    MemberValue v = MemberValue::Of(MemberValue::Kind::kString);
    v.text = s;
    Scalar(v);
  }
  void Key(const JsonString& key) override { member_ = MemberOf(key); }
  void BeginObject() override { Open(/*is_object=*/true); }
  void BeginArray() override { Open(/*is_object=*/false); }
  void EndObject() override { frames_.pop_back(); }
  void EndArray() override { frames_.pop_back(); }

 private:
  enum class Frame { kNode, kPlans, kColumns, kIgnored };
  struct Level {
    Frame kind;
    int node;  // the node this container belongs to
  };

  void Number(double d, int64_t i) {
    MemberValue v = MemberValue::Of(MemberValue::Kind::kNumber);
    v.number = d;
    v.integer = i;
    Scalar(v);
  }

  /// A value that is not an array or object.
  void Scalar(const MemberValue& value) {
    if (frames_.empty()) return;
    const Level& top = frames_.back();
    if (top.kind == Frame::kNode) {
      SetMember(top.node, value);
    } else if (top.kind == Frame::kPlans) {
      AddChild(top.node);
    } else if (top.kind == Frame::kColumns) {
      ++nodes_[top.node].columns;
    }
  }

  /// Gives the current member of `node` a new last value; an earlier
  /// 'Plans' or 'Columns' array no longer counts.
  void SetMember(int node, const MemberValue& value) {
    if (member_ == kOther) return;
    NodeFields& n = nodes_[node];
    n.members[member_] = value;
    if (member_ == kColumns) n.columns = 0;
    if (member_ == kPlans) {
      n.num_children = 0;
      n.first_child = n.last_child = -1;
    }
  }

  int AddChild(int parent) {
    const int child = static_cast<int>(nodes_.size());
    nodes_.emplace_back();
    NodeFields& p = nodes_[parent];
    if (p.last_child >= 0) {
      nodes_[p.last_child].next_sibling = child;
    } else {
      p.first_child = child;
    }
    p.last_child = child;
    ++p.num_children;
    return child;
  }

  void Open(bool is_object) {
    if (frames_.empty()) {
      frames_.push_back({is_object ? Frame::kNode : Frame::kIgnored, 0});
      return;
    }
    const Level top = frames_.back();
    Frame kind = Frame::kIgnored;
    int node = top.node;
    if (top.kind == Frame::kNode) {
      SetMember(node, MemberValue::Of(MemberValue::Kind::kOther));
      if (!is_object && member_ == kPlans) kind = Frame::kPlans;
      if (!is_object && member_ == kColumns) kind = Frame::kColumns;
    } else if (top.kind == Frame::kPlans) {
      node = AddChild(node);
      if (is_object) kind = Frame::kNode;
    } else if (top.kind == Frame::kColumns) {
      ++nodes_[node].columns;
    }
    frames_.push_back({kind, node});
  }

  std::vector<NodeFields> nodes_;
  std::vector<Level> frames_;
  Member member_ = kOther;
};

/// The operator whose PlanOpName is `name`, if any (kTopN is the last
/// PlanOp).
std::optional<PlanOp> PlanOpFromName(const JsonString& name) {
  std::string decoded;
  std::string_view text = name.raw;
  if (name.escaped) {
    decoded = name.Decode();
    text = decoded;
  }
  for (int i = 0; i <= static_cast<int>(PlanOp::kTopN); ++i) {
    PlanOp op = static_cast<PlanOp>(i);
    if (text == PlanOpName(op)) return op;
  }
  return std::nullopt;
}

/// Folds node `index` and its subtree into `out`, parents before children.
void WalkPlan(const std::vector<NodeFields>& nodes, int index,
              PlanSurface* out, bool is_root) {
  const NodeFields& node = nodes[index];
  std::optional<PlanOp> op = PlanOpFromName(node.GetString(kNodeType));
  if (op.has_value()) out->node_types.insert(*op);
  const bool nested_loop =
      op == PlanOp::kNestedLoopJoin || op == PlanOp::kIndexNestedLoopJoin;
  if (nested_loop || op == PlanOp::kHashJoin) ++out->num_joins;
  if (op == PlanOp::kSort) out->has_sort = true;
  if (op == PlanOp::kTopN) {
    out->has_topn = true;
    out->has_limit = true;
  }
  // An escape decodes to one byte, so a non-empty raw string decodes to a
  // non-empty value.
  const JsonString relation = node.GetString(kRelation);
  if (!relation.raw.empty()) out->relations.insert(relation.Decode());
  const JsonString index_col = node.GetString(kIndexColumn);
  if (!index_col.raw.empty()) out->index_columns.push_back(index_col.Decode());
  const JsonString condition_text = node.GetString(kCondition);
  if (!condition_text.raw.empty()) {
    out->conditions.push_back(condition_text.Decode());
    const std::string& condition = out->conditions.back();
    if (ContainsIgnoreCase(condition, "substring(") ||
        ContainsIgnoreCase(condition, "lower(") ||
        ContainsIgnoreCase(condition, "upper(") ||
        ContainsIgnoreCase(condition, "year(")) {
      out->condition_applies_function = true;
    }
  }
  out->max_plan_rows = std::max(out->max_plan_rows, node.GetDouble(kPlanRows));
  out->max_table_rows =
      std::max(out->max_table_rows, node.GetDouble(kTableRows));
  if (is_root) out->root_cost = node.GetDouble(kTotalCost);
  if (node.IsNumber(kLimit)) {
    out->has_limit = true;
    out->limit = node.members[kLimit].integer;
  }
  if (node.IsNumber(kOffset)) {
    out->offset = std::max(out->offset, node.members[kOffset].integer);
  }
  if (op == PlanOp::kIndexScan &&
      node.members[kSortKey].kind != MemberValue::Kind::kAbsent) {
    out->ordered_index_scan = true;
  }
  out->max_columns_read = std::max(out->max_columns_read, node.columns);
  for (int c = node.first_child; c >= 0; c = nodes[c].next_sibling) {
    WalkPlan(nodes, c, out, /*is_root=*/false);
  }
  if (nested_loop && node.num_children == 2) {
    const NodeFields& outer = nodes[node.first_child];
    const NodeFields& inner = nodes[outer.next_sibling];
    // For an index NLJ the inner 'Plan Rows' is matches-per-probe; for a
    // plain NLJ the inner side is rescanned, so its base table size (or
    // output) is the per-iteration volume.
    double inner_rows = op == PlanOp::kIndexNestedLoopJoin
                            ? inner.GetDouble(kPlanRows)
                            : std::max(inner.GetDouble(kTableRows),
                                       inner.GetDouble(kPlanRows));
    out->max_loop_join_volume = std::max(
        out->max_loop_join_volume, outer.GetDouble(kPlanRows) * inner_rows);
  }
}

}  // namespace

Result<PlanSurface> ReadPlanSurface(const std::string& plan_json) {
  SurfaceReader reader;
  HTAPEX_RETURN_IF_ERROR(ParseJson(plan_json, &reader));
  PlanSurface surface;
  WalkPlan(reader.nodes(), 0, &surface, /*is_root=*/true);
  return surface;
}

Result<PairSurface> ReadPairSurface(const std::string& tp_plan_json,
                                    const std::string& ap_plan_json) {
  PairSurface pair;
  HTAPEX_ASSIGN_OR_RETURN(pair.tp, ReadPlanSurface(tp_plan_json));
  HTAPEX_ASSIGN_OR_RETURN(pair.ap, ReadPlanSurface(ap_plan_json));
  return pair;
}

PairSignature ComputeSignature(const PairSurface& s, EngineKind faster) {
  PairSignature sig;
  sig.faster = faster;
  sig.tp_plain_nlj = s.tp.HasNode(PlanOp::kNestedLoopJoin);
  sig.tp_index_join = s.tp.HasNode(PlanOp::kIndexNestedLoopJoin);
  sig.tp_heavy_loop_join = s.tp.max_loop_join_volume > 300'000;
  sig.tp_small_index_access =
      s.tp.HasNode(PlanOp::kIndexScan) && s.tp.max_plan_rows < 10'000;
  sig.tp_ordered_stream_limit =
      s.tp.ordered_index_scan && s.tp.has_limit && !s.tp.has_sort;
  sig.tp_big_sort = s.tp.has_sort && s.tp.max_plan_rows > 100'000;
  sig.big_offset = std::max(s.tp.offset, s.ap.offset) > 10'000;
  sig.function_predicate =
      s.tp.condition_applies_function || s.ap.condition_applies_function;
  sig.multi_join = s.ap.num_joins >= 2 || s.tp.num_joins >= 2;
  sig.grouped_agg = s.ap.HasNode(PlanOp::kHashAggregate);
  // "Tiny" means both engines touch little data: no big base relation is
  // scanned end to end and no big intermediate result exists.
  sig.tiny_work =
      std::max(s.tp.max_plan_rows, s.ap.max_plan_rows) < 100'000 &&
      std::max(s.tp.max_table_rows, s.ap.max_table_rows) < 30'000'000;
  sig.ap_topn = s.ap.has_topn;
  return sig;
}

double PairSignature::Similarity(const PairSignature& other) const {
  if (faster != other.faster) return 0.0;
  struct Weighted {
    bool a;
    bool b;
    double w;
  };
  const Weighted bits[] = {
      {tp_plain_nlj, other.tp_plain_nlj, 2.0},
      {tp_index_join, other.tp_index_join, 2.0},
      {tp_heavy_loop_join, other.tp_heavy_loop_join, 2.5},
      {tp_small_index_access, other.tp_small_index_access, 1.5},
      {tp_ordered_stream_limit, other.tp_ordered_stream_limit, 2.0},
      {tp_big_sort, other.tp_big_sort, 1.5},
      {big_offset, other.big_offset, 1.5},
      {function_predicate, other.function_predicate, 1.5},
      {multi_join, other.multi_join, 1.0},
      {grouped_agg, other.grouped_agg, 0.5},
      {tiny_work, other.tiny_work, 1.5},
      {ap_topn, other.ap_topn, 1.0},
  };
  double total = 0.0, agree = 0.0;
  for (const Weighted& bit : bits) {
    total += bit.w;
    if (bit.a == bit.b) agree += bit.w;
  }
  return agree / total;
}

}  // namespace htapex
