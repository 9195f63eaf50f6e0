#include "common/fault.h"

#include <cmath>
#include <cstdlib>

#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"

namespace htapex {

namespace {

bool IsKnownPoint(std::string_view name) {
  return name == kFaultLlmTimeout || name == kFaultLlmTransient ||
         name == kFaultLlmGarbled || name == kFaultLlmSlow ||
         name == kFaultKbInsert ||
         name == kFaultWalAppend || name == kFaultWalFsync ||
         name == kFaultSnapshotWrite || name == kFaultSnapshotRename ||
         name == kFaultShardKill || name == kFaultShardStall ||
         name == kFaultReplicateDrop || name == kFaultRetrainFail ||
         name == kFaultShadowStall || name == kFaultSwapPublish;
}

}  // namespace

uint64_t MixFaultSeed(uint64_t seed, uint64_t a, uint64_t b, uint64_t c) {
  uint64_t h = SplitMix64(seed);
  h = SplitMix64(h ^ a);
  h = SplitMix64(h ^ b);
  h = SplitMix64(h ^ c);
  return h;
}

Result<FaultInjector> FaultInjector::Parse(const std::string& spec,
                                           uint64_t seed) {
  FaultInjector out;
  std::string_view rest = Trim(spec);
  if (rest.empty()) return out;
  auto state = std::make_shared<State>();
  state->seed = seed;
  while (!rest.empty()) {
    size_t semi = rest.find(';');
    std::string_view frag = Trim(rest.substr(0, semi));
    rest = semi == std::string_view::npos ? std::string_view()
                                          : rest.substr(semi + 1);
    if (frag.empty()) continue;
    size_t colon = frag.find(':');
    if (colon == std::string_view::npos) {
      return Status::InvalidArgument("fault fragment missing ':': " +
                                     std::string(frag));
    }
    std::string name(Trim(frag.substr(0, colon)));
    if (!IsKnownPoint(name)) {
      return Status::InvalidArgument("unknown fault point: " + name);
    }
    FaultSpec fs;
    std::string_view params = frag.substr(colon + 1);
    while (!params.empty()) {
      size_t comma = params.find(',');
      std::string_view kv = Trim(params.substr(0, comma));
      params = comma == std::string_view::npos ? std::string_view()
                                               : params.substr(comma + 1);
      if (kv.empty()) continue;
      size_t eq = kv.find('=');
      if (eq == std::string_view::npos) {
        return Status::InvalidArgument("fault param missing '=': " +
                                       std::string(kv));
      }
      std::string_view k = Trim(kv.substr(0, eq));
      std::string v(Trim(kv.substr(eq + 1)));
      char* end = nullptr;
      double d = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0') {
        return Status::InvalidArgument("non-numeric fault param value: " + v);
      }
      if (!std::isfinite(d)) {
        return Status::InvalidArgument("non-finite fault param value: " + v);
      }
      if (k == "p" || k == "prob") {
        if (d < 0.0 || d > 1.0) {
          return Status::InvalidArgument("fault probability out of [0,1]: " +
                                         v);
        }
        fs.probability = d;
      } else if (k == "lat" || k == "latency_ms") {
        if (d < 0.0 || d > kMaxFaultLatencyMs) {
          return Status::InvalidArgument(
              StrFormat("fault latency out of [0, %.0f] ms: %s",
                        kMaxFaultLatencyMs, v.c_str()));
        }
        fs.latency_ms = d;
      } else {
        return Status::InvalidArgument("unknown fault param: " +
                                       std::string(k));
      }
    }
    state->points[name].spec = fs;
  }
  out.state_ = std::move(state);
  return out;
}

Result<FaultInjector> FaultInjector::FromConfig(const std::string& spec,
                                                uint64_t seed) {
  if (spec.empty()) return Parse(EnvSpec(), EnvSeed(seed));
  return Parse(spec == "off" ? "" : spec, seed);
}

std::string FaultInjector::EnvSpec() {
  const char* env = std::getenv("HTAPEX_FAULTS");
  return env == nullptr ? std::string() : std::string(env);
}

uint64_t FaultInjector::EnvSeed(uint64_t fallback) {
  const char* env = std::getenv("HTAPEX_FAULT_SEED");
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  unsigned long long v = std::strtoull(env, &end, 10);
  return (end == env || *end != '\0') ? fallback : static_cast<uint64_t>(v);
}

const FaultSpec* FaultInjector::Find(std::string_view point) const {
  if (state_ == nullptr) return nullptr;
  auto it = state_->points.find(point);
  return it == state_->points.end() ? nullptr : &it->second.spec;
}

FaultDraw FaultInjector::Draw(std::string_view point, uint64_t key,
                              uint64_t attempt) const {
  FaultDraw draw;
  if (state_ == nullptr) return draw;
  auto it = state_->points.find(point);
  if (it == state_->points.end() || it->second.spec.probability <= 0.0) {
    return draw;
  }
  Rng rng(MixFaultSeed(state_->seed, Fnv1a64(point), key, attempt));
  if (!rng.Bernoulli(it->second.spec.probability)) return draw;
  draw.fired = true;
  draw.latency_ms = it->second.spec.latency_ms;
  it->second.fires.fetch_add(1, std::memory_order_relaxed);
  return draw;
}

uint64_t FaultInjector::FireCount(std::string_view point) const {
  if (state_ == nullptr) return 0;
  auto it = state_->points.find(point);
  return it == state_->points.end()
             ? 0
             : it->second.fires.load(std::memory_order_relaxed);
}

std::string FaultInjector::ToString() const {
  if (!enabled()) return "";
  std::string out;
  for (const auto& [name, ps] : state_->points) {
    if (!out.empty()) out += ';';
    out += StrFormat("%s:p=%g", name.c_str(), ps.spec.probability);
    if (ps.spec.latency_ms > 0.0) {
      out += StrFormat(",lat=%g", ps.spec.latency_ms);
    }
  }
  return out;
}

}  // namespace htapex
