#include "core/serving.hpp"

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "ctrl/health.hpp"
#include "ctrl/qos.hpp"
#include "ctrl/serving_control.hpp"
#include "sim/log.hpp"

namespace tfsim::core {

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

namespace {

/// Lender-side serving state.  Mutated only by events on the lender's own
/// domain calendar (QoS credits, the serial service queue), which is the
/// PDES-safety contract: concurrent borrower domains reach it exclusively
/// through post_routed frames that arrive on the lender's calendar.
struct LenderState {
  net::NodeId net_id = 0;
  sim::Engine* engine = nullptr;
  sim::Time busy_until = 0;
  sim::Time dead_at = sim::kTimeNever;
  std::unique_ptr<ctrl::CreditQos> qos;  ///< null = uncapped lender
  std::uint64_t served = 0;
  /// Gray windows (chaos timeline): bandwidth_factor holds the service
  /// inflation (> 1), start/end the window.  Read-only after assembly.
  std::vector<net::FlapSpec> gray;
  std::uint64_t gray_seed = 0;   ///< jitter stream for inflated service
  std::uint64_t gray_draws = 0;  ///< monotone draw counter (lender-owned)
  std::uint64_t gray_hits = 0;   ///< requests served inside a gray window
  /// Names the lender in a service-queue time overflow.
  std::string service_what;
};

/// The run's state that request-path events reach through one pointer.
struct RequestPath {
  std::vector<std::unique_ptr<LenderState>>* lenders = nullptr;
  net::Network* net = nullptr;
  sim::ParallelEngine* pdes = nullptr;
  sim::Time svc = 0;  ///< lender service time per request
  std::uint64_t resp_bytes = 0;
};

/// Borrower-side per-(borrower, tenant) source state.  Mutated only from
/// the borrower's domain (arrival, completion, timeout and observer events
/// all run there).
struct SourceState {
  static constexpr std::uint32_t kNoLender = ~std::uint32_t{0};

  std::size_t borrower_idx = 0;
  std::uint32_t tenant_idx = 0;
  net::NodeId borrower_net = 0;
  std::uint32_t target = 0;               ///< current lender index
  std::vector<std::uint32_t> failover;    ///< remaining chain, lender indexes
  std::uint32_t consecutive_failures = 0;
  std::uint64_t failovers = 0;
  /// ECMP flow identity: the request salt is a pure function of (source
  /// index, stripe_shift), so every request of this source rides one spine
  /// path until a re-stripe bumps the shift and rehashes the flow.
  std::uint32_t stripe_shift = 0;
  std::uint64_t restripes = 0;
  std::uint64_t rejoins = 0;
  std::uint64_t dispatches = 0;
  /// Online detector over this source's view of its current target; absent
  /// when the scenario leaves detector.enabled false (timeout-only mode).
  std::optional<ctrl::HealthDetector> detector;
  /// Routing-decision generation, bumped on every re-stripe or migration.
  /// Outcomes of requests dispatched under an older epoch say nothing about
  /// the *current* route, so they feed the tail tracker but are invisible
  /// to the detector and the timeout backstop -- without this, the stale
  /// timeouts of a just-abandoned path re-trip the detector and every
  /// reaction triggers the next one.
  std::uint32_t epoch = 0;
  /// Dispatch id -> epoch at dispatch time (detector mode only; bounded by
  /// the source's in-flight window, erased at the terminal outcome).
  std::map<std::uint64_t, std::uint32_t> inflight_epoch;
  /// Two-strike escalation: the first sick verdict re-stripes (maybe it
  /// was the path -- the cheap fix), the second migrates (it was the
  /// lender).  Cleared by migration and rejoin.
  bool escalated = false;
  /// Lender abandoned on a detector migration, probed for rejoin; kNoLender
  /// when the source sits on its preferred target.
  std::uint32_t abandoned_primary = kNoLender;
  double healthy_baseline_us = 0.0;  ///< baseline snapshot at migration
  std::uint32_t good_probes = 0;
  /// Dispatch ids currently riding as probes to the abandoned primary.
  /// Probe outcomes feed the rejoin decision and the (honest) tail tracker
  /// but never the detector or the timeout-failover walk.
  std::set<std::uint64_t> probe_ids;
  TailTracker tracker;
  std::unique_ptr<workloads::OpenLoopSource> source;

  explicit SourceState(sim::Time window) : tracker(window) {}
};

std::string fmt_us(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.6f", v);
  return buf;
}

}  // namespace

ServingReport run_serving(node::Cluster& cluster) {
  const scenario::ScenarioSpec& spec = cluster.spec();
  const scenario::TrafficSpec& traffic = spec.traffic;
  if (!traffic.enabled()) {
    throw std::invalid_argument("run_serving: scenario has no traffic block");
  }
  sim::ParallelEngine* pdes = cluster.pdes();
  if (pdes == nullptr) {
    throw std::invalid_argument(
        "run_serving: the routed dispatcher needs per-node calendars; set "
        "pdes.threads = 1");
  }
  if (cluster.num_lenders() == 0) {
    throw std::invalid_argument("run_serving: no lender nodes");
  }

  // --- Tenant mix (default: one tenant carrying the whole rate). ----------
  std::vector<scenario::TrafficTenantSpec> tenants = traffic.tenants;
  if (tenants.empty()) tenants.push_back(scenario::TrafficTenantSpec{});

  // --- Control plane: admission + placement + failover chains. ------------
  ctrl::ServingConfig scfg;
  scfg.admission.lender_capacity_rps =
      traffic.lender_capacity_rps > 0.0 ? traffic.lender_capacity_rps : 1e18;
  scfg.failover_depth = static_cast<std::uint32_t>(cluster.num_lenders());
  ctrl::ServingController sctl(cluster.registry(),
                               ctrl::make_policy(spec.policy), scfg);

  std::map<std::uint32_t, std::uint32_t> lender_idx_by_registry;
  for (std::size_t i = 0; i < cluster.num_lenders(); ++i) {
    lender_idx_by_registry[cluster.registry_id(cluster.lender(i))] =
        static_cast<std::uint32_t>(i);
  }
  const std::uint32_t admission_borrower =
      cluster.registry_id(cluster.borrower(0));

  std::vector<ctrl::TenantSpec> tenant_specs;
  std::vector<ctrl::Placement> placements;
  for (const auto& t : tenants) {
    ctrl::TenantSpec ts;
    ts.name = t.name;
    ts.weight = t.weight;
    ts.rate_rps = traffic.rate_rps * t.rate_share;
    ts.bytes = static_cast<std::uint64_t>(traffic.tenant_gib *
                                          static_cast<double>(sim::kGiB));
    const auto placed = sctl.admit_tenant(ts, admission_borrower);
    if (!placed.has_value()) {
      throw std::runtime_error("run_serving: tenant \"" + t.name +
                               "\" rejected by admission control");
    }
    tenant_specs.push_back(ts);
    placements.push_back(*placed);
  }

  // --- Lender-side state. -------------------------------------------------
  const sim::Time svc =
      traffic.lender_capacity_rps > 0.0
          ? static_cast<sim::Time>(1e12 / traffic.lender_capacity_rps)
          : 0;
  // Gray-lender chaos windows, resolved once and attached read-only to the
  // lender whose name they target (service inflation happens inside the
  // lender's own domain events).
  const std::vector<scenario::ChaosWindow> chaos_windows =
      spec.chaos.enabled() ? scenario::resolve_chaos(spec.chaos)
                           : std::vector<scenario::ChaosWindow>{};
  for (const auto& w : chaos_windows) {
    if (w.kind == scenario::ChaosKind::kGrayLender &&
        traffic.lender_capacity_rps <= 0.0) {
      throw std::invalid_argument(
          "run_serving: chaos gray_lender needs traffic.lender_capacity_rps "
          "> 0 (an uncapped lender has no service time to inflate)");
    }
  }
  std::vector<std::unique_ptr<LenderState>> lenders;
  for (std::size_t i = 0; i < cluster.num_lenders(); ++i) {
    auto L = std::make_unique<LenderState>();
    L->net_id = cluster.lender(i).net_id();
    L->engine = &cluster.lender(i).engine();
    L->service_what =
        "run_serving: service queue of lender " + cluster.lender(i).name();
    if (!spec.faults.kill_lender.empty() &&
        cluster.lender(i).name() == spec.faults.kill_lender) {
      L->dead_at = sim::from_us(spec.faults.kill_at_us);
    }
    for (const auto& w : chaos_windows) {
      if (w.kind != scenario::ChaosKind::kGrayLender ||
          w.target != cluster.lender(i).name()) {
        continue;
      }
      net::FlapSpec g;
      g.start = w.start;
      g.duration = w.end == sim::kTimeNever ? sim::kTimeNever - w.start
                                            : w.end - w.start;
      g.bandwidth_factor = w.factor;  // here: service inflation, > 1
      L->gray.push_back(g);
    }
    std::sort(L->gray.begin(), L->gray.end(),
              [](const net::FlapSpec& a, const net::FlapSpec& b) {
                return a.start < b.start;
              });
    L->gray_seed = net::mix64(spec.chaos.seed ^ net::mix64(i));
    if (traffic.lender_capacity_rps > 0.0) {
      ctrl::QosConfig qcfg;
      qcfg.window = sim::from_us(traffic.qos_window_us);
      qcfg.capacity_per_window = static_cast<std::uint64_t>(
          traffic.lender_capacity_rps * traffic.qos_window_us * 1e-6);
      L->qos = std::make_unique<ctrl::CreditQos>(qcfg);
      // Every tenant is registered on every lender (slot == tenant index)
      // so a failed-over tenant arrives with its weight already in place.
      for (const auto& t : tenants) L->qos->add_tenant(t.name, t.weight);
    }
    lenders.push_back(std::move(L));
  }

  // --- Borrower-side sources: one per (borrower, tenant). -----------------
  const sim::Time slo_window = sim::from_us(spec.slo.window_us);
  const SloTargets targets{spec.slo.p50_us, spec.slo.p99_us, spec.slo.p999_us};
  const std::size_t nb = cluster.num_borrowers();
  net::Network& net = cluster.network();
  const RequestPath path{&lenders, &net, pdes, svc, traffic.resp_bytes};

  std::vector<std::unique_ptr<SourceState>> states;
  sim::SplitMix64 seeds(traffic.seed);
  for (std::size_t b = 0; b < nb; ++b) {
    for (std::uint32_t ti = 0; ti < tenants.size(); ++ti) {
      auto st = std::make_unique<SourceState>(slo_window);
      st->borrower_idx = b;
      st->tenant_idx = ti;
      st->borrower_net = cluster.borrower(b).net_id();
      st->target = lender_idx_by_registry.at(placements[ti].primary);
      for (const auto rid : placements[ti].failover) {
        st->failover.push_back(lender_idx_by_registry.at(rid));
      }
      if (spec.detector.enabled) {
        ctrl::HealthConfig hc;
        hc.alpha = spec.detector.alpha;
        hc.latency_threshold = spec.detector.latency_threshold;
        hc.timeout_weight = spec.detector.timeout_weight;
        hc.warmup = spec.detector.warmup;
        hc.confirm = spec.detector.confirm;
        st->detector.emplace(hc);
      }
      states.push_back(std::move(st));
    }
  }

  for (std::size_t si = 0; si < states.size(); ++si) {
    SourceState& st = *states[si];
    const std::uint32_t ti = st.tenant_idx;

    workloads::OpenLoopConfig ocfg;
    ocfg.arrivals.kind = workloads::arrival_kind_from(traffic.process);
    ocfg.arrivals.rate_rps =
        traffic.rate_rps * tenants[ti].rate_share / static_cast<double>(nb);
    ocfg.arrivals.seed = seeds.next();
    ocfg.arrivals.burst_on_us = traffic.burst_on_us;
    ocfg.arrivals.burst_off_us = traffic.burst_off_us;
    ocfg.arrivals.diurnal_period_us = traffic.diurnal_period_us;
    ocfg.arrivals.diurnal_amplitude = traffic.diurnal_amplitude;
    ocfg.clients = traffic.clients / std::max<std::size_t>(1, states.size());
    ocfg.max_in_flight = traffic.max_in_flight;
    ocfg.queue_depth = traffic.queue_depth;
    ocfg.stop_at = sim::from_us(traffic.duration_us);
    ocfg.request_timeout = sim::from_us(traffic.timeout_us);

    auto dispatch = [&, si](sim::Time now, std::uint64_t id,
                            workloads::OpenLoopSource::CompletionFn done) {
      SourceState& src = *states[si];
      std::uint32_t li = src.target;
      // Rejoin probing: while a migrated source holds an abandoned primary,
      // every probe_interval-th dispatch rides to it instead of the current
      // target; the observer judges the echo against the healthy baseline.
      ++src.dispatches;
      bool is_probe = false;
      if (src.abandoned_primary != SourceState::kNoLender &&
          spec.detector.probe_interval > 0 &&
          src.dispatches % spec.detector.probe_interval == 0) {
        li = src.abandoned_primary;
        src.probe_ids.insert(id);
        is_probe = true;
      }
      if (src.detector.has_value() && !is_probe) {
        src.inflight_epoch.emplace(id, src.epoch);
      }
      const std::uint32_t tenant = src.tenant_idx;
      // Per-flow sticky ECMP: real fabrics hash the 5-tuple, not the packet,
      // so one source's requests ride one spine path.  The salt is a pure
      // function of (source, stripe_shift); a detector re-stripe bumps the
      // shift and rehashes the flow somewhere else -- which is what makes
      // re-striping around a sick spine possible at all.
      const std::uint64_t salt = net::mix64(
          (static_cast<std::uint64_t>(si) << 20) ^ src.stripe_shift);
      // Every event of the request path stores its captures inside the
      // calendar's inline buffer and moves as a memcpy: the run's shared
      // state travels as one RequestPath pointer, the source's completion
      // handle as two words.
      auto on_request = [rp = &path, salt, done = std::move(done), li,
                         tenant, borrower = src.borrower_net](
                            const net::Delivery& d) {
        // Lender domain.
        LenderState& L = *(*rp->lenders)[li];
        if (d.arrival >= L.dead_at) return;  // dead: borrower times out
        if (L.qos != nullptr && !L.qos->try_admit(tenant, d.arrival)) {
          // Credit exhaustion: a small refusal frame goes straight back;
          // the request never reaches the service queue.
          rp->net->post_routed(
              *rp->pdes, d.arrival, L.net_id, borrower, 64,
              sim::Priority::kBulk, salt ^ 0x9e3779b97f4a7c15ULL,
              [done](const net::Delivery& r) {
                done(r.arrival, workloads::RequestOutcome::kRejected);
              });
          return;
        }
        // Serial service queue: one request at a time at the lender's
        // serving capacity.  Inside a gray window the lender still answers,
        // just `factor`x slower with seeded jitter -- the failure mode no
        // timeout ever sees.
        const sim::Time begin = std::max(d.arrival, L.busy_until);
        sim::Time eff_svc = rp->svc;
        if (const net::FlapSpec* g = net::active_window(L.gray, begin)) {
          const double jitter =
              1.0 + 0.5 * net::unit_interval(net::mix64(
                              L.gray_seed ^ net::mix64(L.gray_draws++)));
          eff_svc = static_cast<sim::Time>(static_cast<double>(rp->svc) *
                                          g->bandwidth_factor * jitter);
          ++L.gray_hits;
        }
        const sim::Time fin =
            sim::checked_add(begin, eff_svc, L.service_what.c_str());
        L.busy_until = fin;
        ++L.served;
        auto on_served = [rp, salt, fin, done, li, borrower] {
          LenderState& L2 = *(*rp->lenders)[li];
          if (fin >= L2.dead_at) return;  // died while request was queued
          rp->net->post_routed(
              *rp->pdes, fin, L2.net_id, borrower, rp->resp_bytes,
              sim::Priority::kBulk, salt ^ 0x5bd1e9955bd1e995ULL,
              [done](const net::Delivery& r) {
                done(r.arrival, workloads::RequestOutcome::kCompleted);
              });
        };
        static_assert(
            sim::Engine::Callback::stores_inline<decltype(on_served)>);
        L.engine->schedule_at(fin, std::move(on_served));
      };
      static_assert(
          net::Network::ArrivalFn::stores_inline<decltype(on_request)>);
      net.post_routed(*pdes, now, src.borrower_net, lenders[li]->net_id,
                      traffic.req_bytes, sim::Priority::kBulk, salt,
                      std::move(on_request));
    };

    st.source = std::make_unique<workloads::OpenLoopSource>(
        cluster.borrower(st.borrower_idx).engine(), ocfg, dispatch);
    st.source->set_observer([&, si](sim::Time arrival, sim::Time terminal,
                                    workloads::RequestOutcome outcome,
                                    std::uint64_t req_id) {
      SourceState& src = *states[si];
      // Probe outcomes feed the rejoin decision (and the honest tail
      // tracker) but never the detector or the timeout-failover walk: they
      // measure the *abandoned* lender, not the current target.
      const bool probe =
          req_id != workloads::OpenLoopSource::kNoRequestId &&
          src.probe_ids.erase(req_id) > 0;
      // Epoch attribution: an outcome only testifies about the route it was
      // dispatched under.  After a re-stripe or migration, the old route's
      // in-flight requests still terminate (mostly as timeouts); feeding
      // them to the detector would re-trip it against the *new* route.
      bool stale = false;
      if (!probe && req_id != workloads::OpenLoopSource::kNoRequestId) {
        const auto it = src.inflight_epoch.find(req_id);
        if (it != src.inflight_epoch.end()) {
          stale = it->second != src.epoch;
          src.inflight_epoch.erase(it);
        }
      }
      const auto restripe = [&src] {
        ++src.stripe_shift;
        ++src.restripes;
        ++src.epoch;
        src.consecutive_failures = 0;
        // Same lender over a new path: the healthy baseline still applies.
        src.detector->soft_reset();
      };
      const auto migrate = [&src] {
        if (src.failover.empty()) {
          src.detector->soft_reset();  // nowhere to go; keep watching
          return;
        }
        src.healthy_baseline_us = src.detector->baseline_us();
        src.abandoned_primary = src.target;
        src.target = src.failover.front();
        src.failover.erase(src.failover.begin());
        ++src.failovers;
        ++src.epoch;
        src.consecutive_failures = 0;
        src.good_probes = 0;
        src.escalated = false;
        src.detector->reset();  // a different lender: relearn the baseline
      };
      // Two-strike reaction ladder: the first sick verdict re-stripes the
      // ECMP flow (cheap; a killed spine or browned-out port is fixed by a
      // rehash), the second migrates off the lender (the gray-lender
      // signature: a new path did not help, so the lender itself is sick).
      const auto react = [&] {
        if (!src.detector.has_value() || !src.detector->sick()) return;
        if (!src.escalated) {
          src.escalated = true;
          restripe();
        } else {
          migrate();
        }
      };
      switch (outcome) {
        case workloads::RequestOutcome::kCompleted: {
          const double lat_us = sim::to_us(terminal - arrival);
          src.tracker.record_latency(terminal, lat_us);
          if (probe) {
            // A good probe completes within rejoin_margin x the healthy
            // baseline -- tighter than the sickness threshold, so a lender
            // that is merely *less* gray does not win the traffic back.
            const bool good =
                src.healthy_baseline_us <= 0.0 ||
                lat_us <=
                    spec.detector.rejoin_margin * src.healthy_baseline_us;
            if (good && ++src.good_probes >= spec.detector.rejoin_confirm) {
              // Rejoin the recovered primary; the stand-in lender returns
              // to the head of the failover chain.
              // (Grow, shift, then write the head: gcc 12 flags the
              // equivalent insert(begin()) as a null dereference at -O2.)
              src.failover.resize(src.failover.size() + 1);
              std::copy_backward(src.failover.begin(),
                                 src.failover.end() - 1, src.failover.end());
              src.failover.front() = src.target;
              src.target = src.abandoned_primary;
              src.abandoned_primary = SourceState::kNoLender;
              ++src.epoch;
              src.good_probes = 0;
              src.escalated = false;
              ++src.rejoins;
              if (src.detector.has_value()) src.detector->reset();
            } else if (!good) {
              src.good_probes = 0;
            }
            break;
          }
          if (stale) break;  // old route's echo: tracked above, nothing more
          src.consecutive_failures = 0;
          if (src.detector.has_value()) {
            src.detector->observe_latency(lat_us);
            react();
          }
          break;
        }
        case workloads::RequestOutcome::kFailed:
          src.tracker.record_failed(terminal);
          if (probe) {
            src.good_probes = 0;
            break;
          }
          if (stale) break;  // old route's timeout: not the current route
          if (src.detector.has_value()) {
            src.detector->observe_timeout();
            react();
          }
          // Reactive re-placement backstop: after enough consecutive
          // timeouts the source walks its precomputed failover chain.
          // Purely local state, so the decision is deterministic under any
          // worker count.
          if (++src.consecutive_failures >= traffic.failover_threshold &&
              !src.failover.empty()) {
            src.target = src.failover.front();
            src.failover.erase(src.failover.begin());
            ++src.failovers;
            if (src.detector.has_value()) ++src.epoch;
            src.consecutive_failures = 0;
          }
          break;
        case workloads::RequestOutcome::kRejected:
          src.tracker.record_rejected(terminal);
          if (probe) src.good_probes = 0;
          break;
        case workloads::RequestOutcome::kShed:
          src.tracker.record_shed(terminal);
          break;
      }
    });
    st.source->start();
  }

  pdes->run();

  // --- Post-run aggregation (single thread, fixed order). -----------------
  ServingReport report;
  report.targets = targets;
  TailTracker merged(slo_window);
  std::ostringstream ser;
  for (std::size_t si = 0; si < states.size(); ++si) {
    const SourceState& st = *states[si];
    const auto& c = st.source->counters();
    report.totals.offered += c.offered;
    report.totals.dispatched += c.dispatched;
    report.totals.completed += c.completed;
    report.totals.shed += c.shed;
    report.totals.rejected += c.rejected;
    report.totals.failed += c.failed;
    report.totals.in_flight += c.in_flight;
    report.totals.queued += c.queued;
    report.failovers += st.failovers;
    report.restripes += st.restripes;
    report.rejoins += st.rejoins;
    merged.merge(st.tracker);
    ser << "source " << si << " tenant=" << tenants[st.tenant_idx].name
        << " borrower=" << st.borrower_idx << " offered=" << c.offered
        << " completed=" << c.completed << " shed=" << c.shed
        << " rejected=" << c.rejected << " failed=" << c.failed
        << " in_flight=" << c.in_flight << " queued=" << c.queued
        << " target=" << st.target << " failovers=" << st.failovers
        << " restripes=" << st.restripes << " rejoins=" << st.rejoins
        << " stripe_shift=" << st.stripe_shift << "\n";
  }
  for (const auto& L : lenders) report.gray_inflated += L->gray_hits;
  for (const auto& [sw_id, sw] : cluster.network().switches()) {
    (void)sw_id;
    report.switch_chaos_drops += sw.total_chaos_drops();
  }
  for (std::uint32_t ti = 0; ti < tenants.size(); ++ti) {
    ServingTenantReport tr;
    tr.name = tenants[ti].name;
    tr.weight = tenants[ti].weight;
    tr.primary_lender = placements[ti].primary;
    for (const auto& st : states) {
      if (st->tenant_idx != ti) continue;
      const auto& c = st->source->counters();
      tr.totals.offered += c.offered;
      tr.totals.dispatched += c.dispatched;
      tr.totals.completed += c.completed;
      tr.totals.shed += c.shed;
      tr.totals.rejected += c.rejected;
      tr.totals.failed += c.failed;
      tr.totals.in_flight += c.in_flight;
      tr.totals.queued += c.queued;
      tr.failovers += st->failovers;
    }
    report.tenants.push_back(tr);
  }

  // Reconcile the registry with what the data plane did: when a tenant's
  // sources abandoned a dead primary, re-book it at the chain target the
  // first source settled on.
  for (std::uint32_t ti = 0; ti < tenants.size(); ++ti) {
    if (report.tenants[ti].failovers == 0) continue;
    for (const auto& st : states) {
      if (st->tenant_idx != ti || st->failovers == 0) continue;
      const std::uint32_t new_registry_id =
          cluster.registry_id(cluster.lender(st->target));
      sctl.record_failover(tenant_specs[ti], placements[ti].primary,
                           new_registry_id);
      break;
    }
  }

  report.windows = merged.windows(targets);
  report.overall = merged.overall();
  for (const auto& w : report.windows) {
    if (w.met) ++report.windows_met;
    ser << "window start_us=" << fmt_us(sim::to_us(w.start))
        << " completed=" << w.completed << " failed=" << w.failed
        << " shed=" << w.shed << " rejected=" << w.rejected
        << " p50=" << fmt_us(w.p50_us) << " p99=" << fmt_us(w.p99_us)
        << " p999=" << fmt_us(w.p999_us) << " met=" << (w.met ? 1 : 0)
        << "\n";
  }
  report.balanced = report.totals.balanced();
  ser << "totals offered=" << report.totals.offered
      << " completed=" << report.totals.completed
      << " shed=" << report.totals.shed
      << " rejected=" << report.totals.rejected
      << " failed=" << report.totals.failed
      << " in_flight=" << report.totals.in_flight
      << " queued=" << report.totals.queued
      << " failovers=" << report.failovers
      << " restripes=" << report.restripes
      << " rejoins=" << report.rejoins
      << " gray_inflated=" << report.gray_inflated
      << " chaos_drops=" << report.switch_chaos_drops
      << " balanced=" << (report.balanced ? 1 : 0) << "\n";
  report.serialized = ser.str();
  report.digest = fnv1a(report.serialized);
  return report;
}

}  // namespace tfsim::core
