#include "core/memory_arbiter.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/logging.h"

namespace sj {

namespace {

std::string HumanKb(size_t bytes) {
  std::ostringstream os;
  if (bytes >= (1u << 20)) {
    os << (bytes >> 20) << " MB";
  } else {
    os << ((bytes + 1023) / 1024) << " KB";
  }
  return os.str();
}

}  // namespace

MemoryGrant::MemoryGrant(MemoryGrant&& other) noexcept
    : arbiter_(other.arbiter_),
      component_(std::move(other.component_)),
      bytes_(other.bytes_) {
  other.arbiter_ = nullptr;
  other.bytes_ = 0;
}

MemoryGrant& MemoryGrant::operator=(MemoryGrant&& other) noexcept {
  if (this != &other) {
    Release();
    arbiter_ = other.arbiter_;
    component_ = std::move(other.component_);
    bytes_ = other.bytes_;
    other.arbiter_ = nullptr;
    other.bytes_ = 0;
  }
  return *this;
}

MemoryGrant::~MemoryGrant() { Release(); }

void MemoryGrant::NoteUsage(size_t used_bytes) {
  if (arbiter_ == nullptr) return;
  arbiter_->NoteUsage(component_, bytes_, used_bytes);
}

bool MemoryGrant::TryGrow(size_t new_bytes) {
  if (arbiter_ == nullptr) return false;
  if (new_bytes <= bytes_) return true;
  if (!arbiter_->TryGrow(component_, new_bytes - bytes_)) return false;
  bytes_ = new_bytes;
  return true;
}

void MemoryGrant::Release() {
  if (arbiter_ == nullptr) return;
  arbiter_->Release(component_, bytes_);
  arbiter_ = nullptr;
  bytes_ = 0;
}

MemoryArbiter::MemoryArbiter(size_t budget_bytes, bool strict)
    : budget_(budget_bytes), strict_(strict) {}

MemoryArbiter::~MemoryArbiter() {
  if (parent_grant_.active()) {
    // Tell the parent how much of the carved slice was actually at peak —
    // the global arbiter's per-query used high-water marks.
    parent_grant_.NoteUsage(peak_bytes());
  }
}

Result<std::shared_ptr<MemoryArbiter>> MemoryArbiter::CarveChild(
    std::string component, size_t bytes, bool strict) {
  SJ_ASSIGN_OR_RETURN(MemoryGrant slice, Acquire(std::move(component), bytes));
  auto child = std::make_shared<MemoryArbiter>(bytes, strict);
  child->parent_grant_ = std::move(slice);
  return child;
}

void MemoryArbiter::AddLocked(const std::string& component, size_t bytes) {
  in_use_ += bytes;
  peak_ = std::max(peak_, in_use_);
  Component& c = components_[component];
  c.live += bytes;
  c.granted_high_water = std::max(c.granted_high_water, c.live);
}

Result<MemoryGrant> MemoryArbiter::Acquire(std::string component,
                                           size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bytes > budget_ || in_use_ > budget_ - bytes) {
    return Status::ResourceExhausted(
        "memory grant denied: component \"" + component + "\" asked for " +
        std::to_string(bytes) + " B but only " +
        std::to_string(budget_ - std::min(budget_, in_use_)) + " B of the " +
        std::to_string(budget_) + " B budget remain");
  }
  AddLocked(component, bytes);
  return MemoryGrant(this, std::move(component), bytes);
}

MemoryGrant MemoryArbiter::AcquireShrinkable(std::string component,
                                             size_t bytes,
                                             size_t floor_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t avail = budget_ - std::min(budget_, in_use_);
  // Shrink to availability but never below the floor — and never above
  // the request (a floor is a progress minimum, not a lower bound on
  // what the caller asked for).
  const size_t granted = std::min(bytes, std::max(avail, floor_bytes));
  AddLocked(component, granted);
  return MemoryGrant(this, std::move(component), granted);
}

MemoryGrant MemoryArbiter::AcquireShrinkable(const GrantRequest& request) {
  if (request.component == nullptr) return MemoryGrant();
  return AcquireShrinkable(request.component, request.bytes,
                           request.floor_bytes);
}

void MemoryArbiter::FoldChild(const MemoryArbiter& child) {
  // Snapshot the child outside our lock (it has its own mutex).
  const size_t child_peak = child.peak_bytes();
  const std::vector<MemoryComponentStats> child_components =
      child.ComponentStats();
  std::lock_guard<std::mutex> lock(mu_);
  peak_ = std::max(peak_, in_use_ + child_peak);
  for (const MemoryComponentStats& cc : child_components) {
    Component& c = components_[cc.component];
    c.granted_high_water =
        std::max(c.granted_high_water, cc.granted_high_water);
    c.used_high_water = std::max(c.used_high_water, cc.used_high_water);
  }
}

size_t MemoryArbiter::in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return in_use_;
}

size_t MemoryArbiter::available() const {
  std::lock_guard<std::mutex> lock(mu_);
  return budget_ - std::min(budget_, in_use_);
}

size_t MemoryArbiter::peak_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return peak_;
}

std::vector<MemoryComponentStats> MemoryArbiter::ComponentStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MemoryComponentStats> out;
  out.reserve(components_.size());
  for (const auto& [name, c] : components_) {
    out.push_back(
        MemoryComponentStats{name, c.granted_high_water, c.used_high_water});
  }
  return out;
}

std::string MemoryArbiter::Describe() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ostringstream os;
  os << "budget " << HumanKb(budget_) << ", peak " << HumanKb(peak_);
  const char* sep = ": ";
  for (const auto& [name, c] : components_) {
    os << sep << name << " " << HumanKb(c.granted_high_water) << " granted";
    if (c.used_high_water > 0) os << " / " << HumanKb(c.used_high_water)
                                  << " used";
    sep = ", ";
  }
  return os.str();
}

void MemoryArbiter::Release(const std::string& component, size_t bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  SJ_DCHECK(bytes <= in_use_);
  in_use_ -= std::min(bytes, in_use_);
  Component& c = components_[component];
  c.live -= std::min(bytes, c.live);
}

void MemoryArbiter::NoteUsage(const std::string& component,
                              size_t granted_bytes, size_t used_bytes) {
  std::lock_guard<std::mutex> lock(mu_);
  Component& c = components_[component];
  c.used_high_water = std::max(c.used_high_water, used_bytes);
  if (strict_) {
    SJ_CHECK(used_bytes <= granted_bytes)
        << "ungoverned allocation: component \"" << component << "\" used "
        << used_bytes << " B above its " << granted_bytes << " B grant ("
        << budget_ << " B budget)";
  }
}

bool MemoryArbiter::TryGrow(const std::string& component, size_t delta) {
  std::lock_guard<std::mutex> lock(mu_);
  if (in_use_ + delta > budget_) return false;
  AddLocked(component, delta);
  return true;
}

MemoryPlan MemoryPlan::Of(const MemoryArbiter& arbiter) {
  MemoryPlan plan;
  plan.budget_bytes = arbiter.budget();
  for (const MemoryComponentStats& c : arbiter.ComponentStats()) {
    plan.grants.push_back(MemoryGrantSpec{c.component, c.granted_high_water});
  }
  return plan;
}

size_t MemoryPlan::GrantFor(std::string_view component) const {
  for (const MemoryGrantSpec& g : grants) {
    if (g.component == component) return g.bytes;
  }
  return 0;
}

std::string MemoryPlan::Describe() const {
  std::ostringstream os;
  os << "budget " << HumanKb(budget_bytes);
  const char* sep = ": ";
  for (const MemoryGrantSpec& g : grants) {
    os << sep << g.component << " " << HumanKb(g.bytes);
    sep = " + ";
  }
  return os.str();
}

}  // namespace sj
