#include "sim/pdes.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

namespace tfsim::sim {

ParallelEngine::ParallelEngine(std::size_t num_domains, PdesConfig cfg)
    : cfg_(cfg) {
  if (num_domains == 0) {
    throw std::invalid_argument("ParallelEngine: need at least one domain");
  }
  if (cfg_.threads > 1) {
    throw std::invalid_argument(
        "ParallelEngine: pdes.threads must be 0 or 1 (windows run serially), "
        "got " + std::to_string(cfg_.threads));
  }
  domains_.reserve(num_domains);
  for (std::size_t d = 0; d < num_domains; ++d) {
    domains_.push_back(std::make_unique<Engine>());
  }
  outboxes_.resize(num_domains);
  posted_.reserve(num_domains);
  next_.resize(num_domains, kTimeNever);
  active_.resize(num_domains);
}

void ParallelEngine::set_lookahead(Time lookahead) {
  if (running_) {
    throw std::logic_error("ParallelEngine::set_lookahead: run in progress");
  }
  cfg_.lookahead = lookahead;
}

void ParallelEngine::post(DomainId src, DomainId dst, Time t,
                          Engine::Callback&& cb) {
  if (src >= domains_.size() || dst >= domains_.size()) {
    throw std::out_of_range("ParallelEngine::post: domain id out of range");
  }
  if (!running_ || src == dst) {
    // Setup-time posts and same-domain sends go straight onto the target
    // calendar; zero-delay self-sends are legal because schedule_at only
    // requires t >= the domain's own now().
    domains_[dst]->schedule_at(t, std::move(cb));
    return;
  }
  if (t < horizon_) {
    throw std::logic_error(
        "ParallelEngine::post: cross-domain send at t=" + std::to_string(t) +
        " is below the lookahead horizon " + std::to_string(horizon_) +
        " (the model's delay to another domain must be >= the configured "
        "lookahead; derive lookahead from net::Network::min_propagation)");
  }
  // Buffered until the window's flush, which sequences same-time arrivals
  // (see flush_outboxes).
  std::vector<Pending>& box = outboxes_[src];
  if (box.empty()) posted_.push_back(src);
  box.emplace_back(dst, t, std::move(cb));
}

void ParallelEngine::flush_outboxes() {
  // Fixed (source domain, send order) flush so same-timestamp cross-domain
  // arrivals get their sequence numbers in the target calendar from the
  // model alone, never from the order the domains ran in (DESIGN.md
  // section 13).  posted_ is in source order already when every post
  // names its running domain as `src`; sorting its few ids keeps the order
  // fixed when one does not.
  std::sort(posted_.begin(), posted_.end());
  for (const DomainId src : posted_) {
    std::vector<Pending>& box = outboxes_[src];
    for (Pending& p : box) {
      domains_[p.dst]->schedule_at(p.time, std::move(p.cb));
      next_[p.dst] = std::min(next_[p.dst], p.time);
    }
    box.clear();
  }
  posted_.clear();
}

bool ParallelEngine::begin_window() {
  Time t = kTimeNever;
  for (const Time next : next_) t = std::min(t, next);
  if (t == kTimeNever) return false;
  window_start_ = t;
  horizon_ =
      (t > kTimeNever - cfg_.lookahead) ? kTimeNever : t + cfg_.lookahead;
  ++windows_;
  // Branch-free compaction: every id is written, only the ones with work
  // before the horizon advance the cursor.  A domain left out has nothing
  // to do this window and its calendar is not touched.
  std::size_t n = 0;
  for (std::size_t d = 0; d < next_.size(); ++d) {
    active_[n] = static_cast<DomainId>(d);
    n += static_cast<std::size_t>(next_[d] < horizon_);
  }
  active_count_ = n;
  return true;
}

void ParallelEngine::run() {
  if (running_) {
    throw std::logic_error("ParallelEngine::run: already running");
  }
  if (cfg_.lookahead == 0) {
    throw std::logic_error(
        "ParallelEngine::run: lookahead is unset (derive it from "
        "net::Network::min_propagation or set it explicitly)");
  }
  running_ = true;
  struct RunningScope {
    explicit RunningScope(bool& flag) : flag_(flag) {}
    RunningScope(const RunningScope&) = delete;
    RunningScope& operator=(const RunningScope&) = delete;
    ~RunningScope() { flag_ = false; }

   private:
    bool& flag_;
  };
  const RunningScope scope(running_);
  // Setup-time schedules and cancels went straight to the calendars, so
  // the cache is rebuilt from them once per run.
  for (std::size_t d = 0; d < domains_.size(); ++d) {
    next_[d] = domains_[d]->next_event_time().value_or(kTimeNever);
  }
  try {
    while (begin_window()) {
      // Each slice touches only its own calendar and outbox, so domain-id
      // order is as good as any; it is the one the golden digests pin.
      for (std::size_t i = 0; i < active_count_; ++i) {
        const DomainId d = active_[i];
        next_[d] = domains_[d]->run_before(horizon_);
      }
      flush_outboxes();
    }
  } catch (...) {
    // Keep "outboxes are empty between runs": a post buffered by the
    // aborted window would otherwise land in a later run's flush, possibly
    // in its target's past.
    for (const DomainId src : posted_) outboxes_[src].clear();
    posted_.clear();
    throw;
  }
}

std::uint64_t ParallelEngine::executed() const {
  std::uint64_t total = 0;
  for (const auto& d : domains_) total += d->executed();
  return total;
}

std::size_t ParallelEngine::pending() const {
  std::size_t total = 0;
  for (const auto& d : domains_) total += d->pending();
  return total;
}

}  // namespace tfsim::sim
