#include "lifecycle/feedback_buffer.h"

#include <algorithm>
#include <climits>
#include <filesystem>
#include <utility>

#include "common/file_io.h"
#include "common/json.h"

namespace htapex {

namespace {

constexpr char kLogName[] = "feedback.log";

JsonValue TreeToJson(const PlanTreeFeatures& tree) {
  JsonValue node = JsonValue::MakeObject();
  node.Set("n", JsonValue::Int(tree.num_nodes));
  node.Set("f", JsonValue::Int(tree.feature_dim));
  JsonValue x = JsonValue::MakeArray();
  for (double v : tree.x) x.Append(JsonValue::Double(v));
  node.Set("x", std::move(x));
  JsonValue left = JsonValue::MakeArray();
  for (int v : tree.left) left.Append(JsonValue::Int(v));
  node.Set("l", std::move(left));
  JsonValue right = JsonValue::MakeArray();
  for (int v : tree.right) right.Append(JsonValue::Int(v));
  node.Set("r", std::move(right));
  return node;
}

Status TreeFromJson(const JsonValue& node, PlanTreeFeatures* tree) {
  const int64_t num_nodes = node.GetInt("n", 0);
  const int64_t feature_dim = node.GetInt("f", 0);
  const JsonValue* x = node.Find("x");
  const JsonValue* left = node.Find("l");
  const JsonValue* right = node.Find("r");
  if (x == nullptr || !x->is_array() || left == nullptr ||
      !left->is_array() || right == nullptr || !right->is_array()) {
    return Status::ParseError("feedback sample tree missing arrays");
  }
  if (num_nodes < 0 || feature_dim < 0 || num_nodes > INT_MAX ||
      feature_dim > INT_MAX ||
      x->array().size() != static_cast<size_t>(num_nodes) *
                               static_cast<size_t>(feature_dim) ||
      left->array().size() != static_cast<size_t>(num_nodes) ||
      right->array().size() != static_cast<size_t>(num_nodes)) {
    return Status::ParseError("feedback sample tree shape mismatch");
  }
  tree->num_nodes = static_cast<int>(num_nodes);
  tree->feature_dim = static_cast<int>(feature_dim);
  tree->x.reserve(x->array().size());
  for (const JsonValue& v : x->array()) tree->x.push_back(v.double_value());
  // Children are node indices or -1; anything else would index past the
  // tree when the sample is trained on.
  for (auto [from, to] : {std::pair{left, &tree->left},
                          std::pair{right, &tree->right}}) {
    to->reserve(from->array().size());
    for (const JsonValue& v : from->array()) {
      int64_t child = v.int_value();
      if (child < -1 || child >= num_nodes) {
        return Status::ParseError("feedback sample tree child out of range");
      }
      to->push_back(static_cast<int>(child));
    }
  }
  return Status::OK();
}

}  // namespace

std::string EncodeFeedbackSample(const FeedbackSample& sample) {
  JsonValue root = JsonValue::MakeObject();
  root.Set("tp", TreeToJson(sample.example.tp));
  root.Set("ap", TreeToJson(sample.example.ap));
  root.Set("label", JsonValue::Int(sample.example.label));
  root.Set("p_ap", JsonValue::Double(sample.p_ap));
  root.Set("correct", JsonValue::Int(sample.correct ? 1 : 0));
  return root.Dump();
}

Result<FeedbackSample> DecodeFeedbackSample(std::string_view payload) {
  JsonValue root;
  HTAPEX_ASSIGN_OR_RETURN(root, JsonValue::Parse(payload));
  FeedbackSample sample;
  const JsonValue* tp = root.Find("tp");
  const JsonValue* ap = root.Find("ap");
  if (tp == nullptr || ap == nullptr) {
    return Status::ParseError("feedback sample missing plan trees");
  }
  HTAPEX_RETURN_IF_ERROR(TreeFromJson(*tp, &sample.example.tp));
  HTAPEX_RETURN_IF_ERROR(TreeFromJson(*ap, &sample.example.ap));
  sample.example.label = static_cast<int>(root.GetInt("label", 0));
  sample.p_ap = root.GetDouble("p_ap", -1.0);
  sample.correct = root.GetInt("correct", 0) != 0;
  return sample;
}

FeedbackBuffer::FeedbackBuffer(FeedbackBufferOptions options)
    : options_(std::move(options)) {
  if (options_.capacity == 0) options_.capacity = 1;
}

void FeedbackBuffer::set_fault_injector(const FaultInjector* faults) {
  std::lock_guard<std::mutex> lock(mu_);
  faults_ = faults;
  if (wal_.is_open()) wal_.set_fault_injector(faults);
}

Status FeedbackBuffer::Open() {
  std::lock_guard<std::mutex> lock(mu_);
  if (opened_ || options_.dir.empty()) {
    opened_ = true;
    return Status::OK();
  }
  std::error_code ec;
  std::filesystem::create_directories(options_.dir, ec);
  if (ec) {
    return Status::IoError("cannot create feedback dir " + options_.dir +
                           ": " + ec.message());
  }
  const std::string path = options_.dir + "/" + kLogName;
  Status replay = ReplayWalFrames(
      path, /*truncate_torn_tail=*/true,
      [this](std::string_view payload) -> Status {
        Result<FeedbackSample> sample = DecodeFeedbackSample(payload);
        if (!sample.ok()) return sample.status();
        samples_.push_back(std::move(*sample));
        if (samples_.size() > options_.capacity) samples_.pop_front();
        return Status::OK();
      },
      &recovery_);
  HTAPEX_RETURN_IF_ERROR(replay);
  total_added_ = recovery_.replayed;
  wal_records_ = recovery_.replayed;
  HTAPEX_ASSIGN_OR_RETURN(wal_, WalWriter::Open(path, nullptr));
  wal_.set_fault_injector(faults_);
  opened_ = true;
  return Status::OK();
}

void FeedbackBuffer::Add(FeedbackSample sample) {
  std::lock_guard<std::mutex> lock(mu_);
  if (wal_.is_open() && !wal_dead_) {
    if (!AppendLocked(sample).ok()) {
      // Feedback durability is best-effort by design: a dead log must not
      // stall serving, so the buffer degrades to memory-only and counts
      // the failure instead of propagating it.
      wal_failures_ += 1;
      wal_dead_ = true;
    }
  }
  samples_.push_back(std::move(sample));
  if (samples_.size() > options_.capacity) samples_.pop_front();
  total_added_ += 1;
  MaybeCompactLocked();
}

Status FeedbackBuffer::AppendLocked(const FeedbackSample& sample) {
  HTAPEX_RETURN_IF_ERROR(wal_.Append(EncodeFeedbackSample(sample)));
  wal_records_ += 1;
  if (++unsynced_ >= std::max(options_.fsync_every_n, 1)) {
    HTAPEX_RETURN_IF_ERROR(wal_.Sync());
    unsynced_ = 0;
  }
  return Status::OK();
}

void FeedbackBuffer::MaybeCompactLocked() {
  if (!wal_.is_open() || wal_dead_ ||
      wal_records_ <= kFeedbackCompactFactor * options_.capacity) {
    return;
  }
  // Rewrite the log as exactly the in-memory window, atomically: a crash
  // at any point leaves either the full old log or the full new one.
  const std::string path = options_.dir + "/" + kLogName;
  std::string log;
  for (const FeedbackSample& sample : samples_) {
    AppendWalFrame(&log, EncodeFeedbackSample(sample));
  }
  if (!WriteFileAtomic(path, log).ok()) {
    wal_failures_ += 1;  // the old log stays authoritative
    return;
  }
  Result<WalWriter> fresh = WalWriter::Open(path, nullptr);
  if (!fresh.ok()) {
    // The rewritten log is in place but takes no appends: memory-only.
    wal_failures_ += 1;
    wal_dead_ = true;
    return;
  }
  wal_ = std::move(*fresh);  // old fd closes; writer now appends to `path`
  wal_.set_fault_injector(faults_);
  wal_records_ = samples_.size();
  unsynced_ = 0;
}

size_t FeedbackBuffer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_.size();
}

uint64_t FeedbackBuffer::total_added() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_added_;
}

uint64_t FeedbackBuffer::wal_failures() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_failures_;
}

bool FeedbackBuffer::durable() const {
  std::lock_guard<std::mutex> lock(mu_);
  return wal_.is_open() && !wal_dead_;
}

WalReplayStats FeedbackBuffer::recovery_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return recovery_;
}

double FeedbackBuffer::WindowAccuracy(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.empty()) return 0.0;
  size_t count = std::min(n, samples_.size());
  size_t correct = 0;
  for (size_t i = samples_.size() - count; i < samples_.size(); ++i) {
    if (samples_[i].correct) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(count);
}

std::vector<PairExample> FeedbackBuffer::NewestExamples(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t count = std::min(n, samples_.size());
  std::vector<PairExample> out;
  out.reserve(count);
  for (size_t i = samples_.size() - count; i < samples_.size(); ++i) {
    out.push_back(samples_[i].example);
  }
  return out;
}

}  // namespace htapex
