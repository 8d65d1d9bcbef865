#include "util/fault_injection.hpp"

#if defined(APC_FAULT_INJECTION)

namespace apc::util {

FaultInjector& FaultInjector::instance() {
  static FaultInjector inj;
  return inj;
}

void FaultInjector::arm(const std::string& site, FaultPlan plan) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_[site] = Armed{plan, 0, 0};
}

void FaultInjector::disarm(const std::string& site) {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.erase(site);
}

void FaultInjector::disarm_all() {
  std::lock_guard<std::mutex> lock(mu_);
  sites_.clear();
}

bool FaultInjector::hit(const char* site, FaultPlan& plan) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(std::string_view(site));
  if (it == sites_.end()) return false;
  Armed& a = it->second;
  ++a.hits;
  if (a.hits <= a.plan.skip) return false;
  if (a.plan.count != 0 && a.fired >= a.plan.count) return false;
  ++a.fired;
  injected_.add(1);
  plan = a.plan;
  return true;
}

std::uint64_t FaultInjector::hits(const std::string& site) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.hits;
}

int fault_errno(const char* site, std::size_t* short_bytes) {
  FaultPlan plan;
  if (!FaultInjector::instance().hit(site, plan)) return 0;
  if (plan.kind == FaultPlan::Kind::kShortWrite && short_bytes != nullptr) {
    *short_bytes = plan.short_bytes;
    return 0;
  }
  return plan.err != 0 ? plan.err : 5 /* EIO */;
}

bool fault_fires(const char* site) {
  FaultPlan plan;
  return FaultInjector::instance().hit(site, plan);
}

std::uint64_t injected_fault_count() {
  return FaultInjector::instance().injected().value();
}

}  // namespace apc::util

#endif  // APC_FAULT_INJECTION
