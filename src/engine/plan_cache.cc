#include "engine/plan_cache.h"

#include <utility>

#include "telemetry/metrics.h"

namespace partix::xdb {

namespace {

/// Process-wide plan-cache byte gauge, aggregated across caches with
/// Add() deltas (one cache per node).
telemetry::Gauge* PlanCacheBytesGauge() {
  static telemetry::Gauge* g = telemetry::MetricsRegistry::Global().GetGauge(
      "partix_plan_cache_bytes");
  return g;
}

}  // namespace

PlanCache::~PlanCache() {
  PlanCacheBytesGauge()->Add(-static_cast<double>(total_bytes_));
  AttachGovernor(nullptr);
}

void PlanCache::AttachGovernor(memory::MemoryGovernor* governor) {
  if (governor_ != nullptr) {
    governor_->UnregisterConsumer(governor_id_);  // releases our charge
    governor_id_ = -1;
  }
  governor_ = governor;
  if (governor_ != nullptr) {
    governor_id_ = governor_->RegisterConsumer(
        "plan_cache", memory::MemoryGovernor::kPriorityPlanCache,
        [this](size_t target) { return ShedBytes(target); });
    if (total_bytes_ > 0) governor_->Charge(governor_id_, total_bytes_);
  }
}

size_t PlanCache::EstimatePlanBytes(const std::string& text,
                                    const PreparedQuery& plan) {
  size_t bytes = sizeof(PreparedQuery) + 2 * text.size();  // key + copy
  bytes += text.size() * 6;  // compiled AST estimate
  for (const auto& [name, cplan] : plan.plans) {
    bytes += name.size() + sizeof(CollectionPlan);
    for (const SiteConstraints& site : cplan.sites) {
      bytes += sizeof(SiteConstraints);
      for (const std::string& e : site.required_elements) bytes += e.size();
      for (const SpineLevel& s : site.spine_levels) {
        bytes += sizeof(SpineLevel) + s.name.size();
      }
    }
  }
  return bytes;
}

PreparedQueryPtr PlanCache::Lookup(const std::string& text) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = index_.find(text);
  if (it == index_.end()) {
    ++stats_.misses;
    return nullptr;
  }
  ++stats_.hits;
  entries_.splice(entries_.begin(), entries_, it->second);
  return entries_.front().plan;
}

size_t PlanCache::Insert(const std::string& text, PreparedQueryPtr plan) {
  if (capacity_ == 0) return 0;
  const size_t bytes = EstimatePlanBytes(text, *plan);
  size_t evicted = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = index_.find(text);
    if (it != index_.end()) {
      // Replace in place (two threads raced to prepare the same text —
      // the plans are equivalent, last writer wins).
      total_bytes_ -= it->second->bytes;
      total_bytes_ += bytes;
      PlanCacheBytesGauge()->Add(static_cast<double>(bytes) -
                                 static_cast<double>(it->second->bytes));
      if (governor_ != nullptr) {
        governor_->Release(governor_id_, it->second->bytes);
      }
      it->second->plan = std::move(plan);
      it->second->bytes = bytes;
      entries_.splice(entries_.begin(), entries_, it->second);
    } else {
      entries_.push_front(Entry{text, std::move(plan), bytes});
      index_.emplace(text, entries_.begin());
      total_bytes_ += bytes;
      PlanCacheBytesGauge()->Add(static_cast<double>(bytes));
      while (entries_.size() > capacity_ ||
             (capacity_bytes_ > 0 && total_bytes_ > capacity_bytes_ &&
              entries_.size() > 1)) {
        EvictBack();
        ++evicted;
      }
      stats_.evictions += evicted;
    }
  }
  // Charge outside mu_: governor pressure may call back into ShedBytes
  // on this very cache, which takes the same lock.
  if (governor_ != nullptr) governor_->Charge(governor_id_, bytes);
  return evicted;
}

void PlanCache::EvictBack() {
  Entry& victim = entries_.back();
  total_bytes_ -= victim.bytes;
  PlanCacheBytesGauge()->Add(-static_cast<double>(victim.bytes));
  if (governor_ != nullptr) governor_->Release(governor_id_, victim.bytes);
  index_.erase(victim.text);
  entries_.pop_back();
}

size_t PlanCache::ShedBytes(size_t target) {
  std::lock_guard<std::mutex> lock(mu_);
  size_t freed = 0;
  size_t evicted = 0;
  while (freed < target && !entries_.empty()) {
    freed += entries_.back().bytes;
    EvictBack();
    ++evicted;
  }
  stats_.evictions += evicted;
  return freed;
}

size_t PlanCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t dropped = entries_.size();
  PlanCacheBytesGauge()->Add(-static_cast<double>(total_bytes_));
  if (governor_ != nullptr && total_bytes_ > 0) {
    governor_->Release(governor_id_, total_bytes_);
  }
  total_bytes_ = 0;
  entries_.clear();
  index_.clear();
  stats_.evictions += dropped;
  ++stats_.invalidations;
  return dropped;
}

size_t PlanCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

size_t PlanCache::total_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return total_bytes_;
}

PlanCacheStats PlanCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

}  // namespace partix::xdb
