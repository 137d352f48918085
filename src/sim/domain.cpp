#include "sim/domain.hpp"

#include <cstdlib>
#include <sstream>

#include "sim/engine.hpp"
#include "sim/log.hpp"

namespace tfsim::sim {

namespace {
const std::string kUnknownDomain = "<none>";
}  // namespace

std::string DomainViolation::to_string() const {
  std::ostringstream os;
  os << "cross-domain mutation: " << what << " on '" << object
     << "' owned by domain " << owner_name << " (#" << owner
     << ") while domain " << active_name << " (#" << active << ")";
  if (!guard_label.empty()) os << " [" << guard_label << "]";
  os << " was active at t=" << when << " event #" << event_index;
  return os.str();
}

DomainCheckMode DomainChecker::mode_from_env() {
  const char* env = std::getenv("TFSIM_DOMAIN_CHECK");
  if (env == nullptr) return DomainCheckMode::kStrict;
  const std::string s(env);
  if (s == "off") return DomainCheckMode::kOff;
  if (s == "collect") return DomainCheckMode::kCollect;
  if (s == "strict") return DomainCheckMode::kStrict;
  TFSIM_LOG(Warn) << "TFSIM_DOMAIN_CHECK: unknown mode '" << s
                  << "' (expected off|collect|strict); using strict";
  return DomainCheckMode::kStrict;
}

DomainId DomainChecker::add_domain(std::string name) {
  names_.push_back(std::move(name));
  return static_cast<DomainId>(names_.size() - 1);
}

const std::string& DomainChecker::domain_name(DomainId id) const {
  if (id >= names_.size()) return kUnknownDomain;
  return names_[id];
}

void DomainChecker::report(DomainViolation v) {
  if (mode_ == DomainCheckMode::kOff) return;
  ++total_;
  TFSIM_LOG(Error) << "[domain] " << v.to_string();
  if (mode_ == DomainCheckMode::kStrict) throw DomainError(v);
  if (violations_.size() < kMaxStored) violations_.push_back(std::move(v));
}

void DomainChecker::clear() {
  violations_.clear();
  total_ = 0;
}

void DomainHandle::report_mismatch(const char* what) const {
  DomainViolation v;
  v.object = object_;
  v.what = what;
  v.owner = domain_;
  v.active = checker_->active();
  v.owner_name = checker_->domain_name(domain_);
  v.active_name = checker_->domain_name(v.active);
  if (checker_->in_guard()) {
    // Innermost frame labels the activity that crossed the boundary.
    v.guard_label = checker_->stack_.back().label;
  }
  if (const Engine* e = checker_->engine_; e != nullptr) {
    v.when = e->now();
    v.event_index = e->executed();
  }
  checker_->report(std::move(v));
}

}  // namespace tfsim::sim
