#include "obs/trace.h"

#include <algorithm>

#include "common/string_util.h"

namespace htapex {

int Trace::Begin(std::string name) {
  Span span;
  span.name = std::move(name);
  span.parent = open_stack_.empty() ? -1 : open_stack_.back();
  span.start_ms = now_ms_;
  span.open = true;
  int id = static_cast<int>(spans_.size());
  spans_.push_back(std::move(span));
  open_stack_.push_back(id);
  return id;
}

void Trace::Advance(double ms) {
  if (ms > 0.0) now_ms_ += ms;
}

void Trace::End(int span, bool simulated) {
  if (span < 0 || span >= static_cast<int>(spans_.size())) return;
  Span& s = spans_[static_cast<size_t>(span)];
  if (!s.open) return;
  s.open = false;
  s.dur_ms = now_ms_ - s.start_ms;
  s.simulated = simulated;
  // Unwind the open stack through this span: a caller that forgets to End
  // a child must not leave the stack wedged.
  auto it = std::find(open_stack_.begin(), open_stack_.end(), span);
  if (it != open_stack_.end()) open_stack_.erase(it, open_stack_.end());
}

int Trace::AddSpan(std::string name, double dur_ms, bool simulated) {
  int id = Begin(std::move(name));
  Advance(dur_ms);
  End(id, simulated);
  return id;
}

void Trace::Event(std::string name, std::string detail) {
  SpanEvent event;
  event.name = std::move(name);
  event.detail = std::move(detail);
  event.at_ms = now_ms_;
  if (!open_stack_.empty()) {
    spans_[static_cast<size_t>(open_stack_.back())].events.push_back(
        std::move(event));
  } else if (!spans_.empty()) {
    spans_.back().events.push_back(std::move(event));
  }
  // An event before any span exists is silently dropped — there is nothing
  // to anchor it to, and traces always open a span first in practice.
}

double Trace::CoveredMs() const {
  // Leaf spans only: a composite span's duration already contains its
  // children, so counting both would double-charge.
  std::vector<bool> has_child(spans_.size(), false);
  for (const Span& s : spans_) {
    if (s.parent >= 0) has_child[static_cast<size_t>(s.parent)] = true;
  }
  double sum = 0.0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (!has_child[i]) sum += spans_[i].dur_ms;
  }
  return sum;
}

const Span* Trace::Find(const std::string& name) const {
  for (const Span& s : spans_) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string Trace::ToString() const {
  std::string out = StrFormat(
      "trace #%llu total=%.3fms covered=%.3fms (%.1f%%)",
      static_cast<unsigned long long>(id_), total_ms(), CoveredMs(),
      total_ms() > 0.0 ? 100.0 * CoveredMs() / total_ms() : 100.0);
  if (!label_.empty()) out += "  " + label_;
  // Depth from parent chain (spans are appended in open order, so a
  // parent always precedes its children).
  std::vector<int> depth(spans_.size(), 0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    depth[i] = s.parent < 0 ? 0 : depth[static_cast<size_t>(s.parent)] + 1;
    out += StrFormat("\n%*s%-14s %10.3f ms%s", 2 + 2 * depth[i], "",
                     s.name.c_str(), s.dur_ms, s.simulated ? " (sim)" : "");
    for (const SpanEvent& e : s.events) {
      out += StrFormat("\n%*s* %s", 4 + 2 * depth[i], "", e.name.c_str());
      if (!e.detail.empty()) out += ": " + e.detail;
    }
  }
  return out;
}

std::string Trace::TreeSignature() const {
  std::string out;
  for (const Span& s : spans_) {
    out += StrFormat("%d|%s", s.parent, s.name.c_str());
    if (s.simulated) out += StrFormat("|%.3f", s.dur_ms);
    for (const SpanEvent& e : s.events) {
      out += StrFormat("{%s:%s}", e.name.c_str(), e.detail.c_str());
    }
    out += "\n";
  }
  return out;
}

int TraceMetrics::IndexOf(const std::string& name) {
  const auto& names = SpanNames();
  for (int i = 0; i < kNumSpanNames; ++i) {
    if (name == names[static_cast<size_t>(i)]) return i;
  }
  return -1;
}

void TraceMetrics::Record(const Trace& trace) {
  traces.Inc();
  for (const Span& s : trace.spans()) {
    int idx = IndexOf(s.name);
    if (idx < 0) {
      unknown_spans.Inc();
      continue;
    }
    spans[static_cast<size_t>(idx)].Record(s.dur_ms);
  }
  spans[static_cast<size_t>(IndexOf(spanname::kTotal))].Record(
      trace.total_ms());
}

void TraceMetrics::RecordSpan(const char* name, double ms) {
  int idx = IndexOf(name);
  if (idx < 0) {
    unknown_spans.Inc();
    return;
  }
  spans[static_cast<size_t>(idx)].Record(ms);
}

TraceRing::TraceRing(size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<std::atomic<std::shared_ptr<const Trace>>[]>(
          capacity_)) {}

void TraceRing::Push(std::shared_ptr<const Trace> trace) {
  if (trace == nullptr) return;
  uint64_t slot = head_.fetch_add(1, std::memory_order_relaxed) % capacity_;
  slots_[slot].store(std::move(trace), std::memory_order_release);
}

std::vector<std::shared_ptr<const Trace>> TraceRing::Recent() const {
  std::vector<std::shared_ptr<const Trace>> out;
  out.reserve(capacity_);
  uint64_t head = head_.load(std::memory_order_acquire);
  // Walk backwards from the most recently claimed slot; slots not yet
  // published (or never written) read as null and are skipped.
  for (uint64_t i = 0; i < capacity_; ++i) {
    uint64_t slot = (head + capacity_ - 1 - i) % capacity_;
    std::shared_ptr<const Trace> t =
        slots_[slot].load(std::memory_order_acquire);
    if (t != nullptr) out.push_back(std::move(t));
  }
  return out;
}

}  // namespace htapex
