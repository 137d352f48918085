#include "nic/nic.hpp"

#include <algorithm>
#include <stdexcept>

#include "capi/frame.hpp"
#include "capi/opcodes.hpp"
#include "net/packet.hpp"
#include "sim/log.hpp"

namespace tfsim::nic {

namespace {
// Wire sizes per direction (packet header + TL frame [+ line payload]).
constexpr std::uint64_t kCmdOnlyBytes =
    net::kPacketHeaderBytes + capi::kFrameBytes;
constexpr std::uint64_t kDataBytes =
    net::kPacketHeaderBytes + capi::kFrameBytes + mem::kCacheLineBytes;
}  // namespace

namespace {
std::uint16_t tag_space(std::uint32_t window_entries) {
  // One response-matching tag per window slot, clamped to the 16-bit aCTag.
  return static_cast<std::uint16_t>(
      std::min<std::uint32_t>(window_entries, 0xFFFF));
}
}  // namespace

DisaggNic::DisaggNic(const NicConfig& cfg, net::Network& network,
                     net::NodeId self, std::string name)
    : cfg_(cfg),
      network_(network),
      self_(self),
      name_(std::move(name)),
      window_(cfg.window_entries, cfg.latency_reserved_entries),
      injector_(std::make_unique<DelayInjector>(cfg.fpga_clock_hz, cfg.period)),
      timeout_(cfg.timeout),
      replay_(cfg.replay),
      credits_(cfg.window_entries),
      tags_(tag_space(cfg.window_entries)) {}

void DisaggNic::register_lender(std::uint32_t lender_id, net::NodeId lender_node,
                                mem::Dram* lender_dram,
                                sim::Time lender_nic_latency) {
  if (lender_dram == nullptr) {
    throw std::invalid_argument("DisaggNic: null lender DRAM");
  }
  if (!network_.has_route(self_, lender_node) ||
      !network_.has_route(lender_node, self_)) {
    throw std::invalid_argument("DisaggNic: no route to lender node");
  }
  lenders_[lender_id] = Lender{lender_node, lender_dram, lender_nic_latency};
}

void DisaggNic::set_lender_down(std::uint32_t lender_id, sim::Time at) {
  const auto it = lenders_.find(lender_id);
  if (it == lenders_.end()) {
    throw std::invalid_argument("DisaggNic: unknown lender");
  }
  it->second.down_at = at;
}

bool DisaggNic::lender_down(std::uint32_t lender_id, sim::Time at) const {
  const auto it = lenders_.find(lender_id);
  return it != lenders_.end() && at >= it->second.down_at;
}

bool DisaggNic::attach() {
  if (device_lost_) return false;
  const sim::Time tclk =
      injector_->mode() == DelayInjector::Mode::kPeriodGate
          ? injector_->clock_period()
          : 0;
  const auto probe =
      timeout_.probe(injector_->mode() == DelayInjector::Mode::kPeriodGate
                         ? injector_->period()
                         : 1,
                     tclk);
  if (!probe.detected) {
    device_lost_ = true;
    attached_ = false;
    TFSIM_LOG(Warn) << name_ << ": FPGA not detected (discovery "
                    << sim::to_ms(probe.discovery_time)
                    << " ms > deadline); disaggregated memory cannot attach";
    return false;
  }
  attached_ = true;
  return true;
}

void DisaggNic::reset_device() {
  device_lost_ = false;
  attached_ = false;
}

void DisaggNic::set_period(std::uint64_t period) {
  injector_->set_period(period);
}

void DisaggNic::set_distribution_injector(
    std::unique_ptr<net::LatencyDistribution> dist) {
  injector_ = std::make_unique<DelayInjector>(std::move(dist));
}

std::optional<sim::Time> DisaggNic::attempt_once(sim::Time depart,
                                                 Lender& lender, bool write,
                                                 sim::Priority prio,
                                                 std::uint32_t attempt,
                                                 AccessTrace& t) {
  // 3. Packetize + serialize onto the egress path.  Lost frames still cost
  //    the sender their wire time (they were serialized before vanishing).
  //    The attempt number salts the ECMP stripe, so retries re-roll the
  //    spine pick instead of hammering a dead parallel link.
  const std::uint64_t req_bytes = write ? kDataBytes : kCmdOnlyBytes;
  const auto req = network_.deliver_ex(depart, self_, lender.node, req_bytes,
                                       prio, attempt);
  wire_out_ += req_bytes;
  if (req.outcome == net::FaultOutcome::kLost ||
      req.outcome == net::FaultOutcome::kFlapDropped ||
      req.outcome == net::FaultOutcome::kSwitchDropped) {
    replay_.count_frame_lost();
    return std::nullopt;
  }
  if (req.outcome == net::FaultOutcome::kCorrupted) {
    // CRC check at the lender NIC rejects the frame; no response is sent.
    replay_.count_crc_drop();
    return std::nullopt;
  }
  if (req.arrival >= lender.down_at) {
    // The request reached a dead lender: from the borrower's side this is
    // indistinguishable from loss -- the retransmission timer fires.
    replay_.count_frame_lost();
    return std::nullopt;
  }
  t.tx_done = req.arrival;
  // 4. Lender NIC + lender memory bus (shared with local apps: MCLN).  The
  //    frame has crossed the network boundary, so activity transfers to the
  //    lender's domain -- the one mutation path that legitimately leaves the
  //    borrower's call graph, and exactly what PDES will turn into a
  //    cross-partition message.
  {
    const sim::DomainHandle& ld = lender.dram->tfsim_domain();
    const sim::DomainGuard g(ld.checker(), ld.id(), "net:deliver");
    t.mem_done = lender.dram->access(
        sim::checked_add(req.arrival, lender.nic_latency, "DisaggNic: lender"),
        mem::kCacheLineBytes, prio);
  }
  // 5. Response path (data-carrying for reads).
  const std::uint64_t resp_bytes = write ? kCmdOnlyBytes : kDataBytes;
  const auto resp = network_.deliver_ex(
      sim::checked_add(t.mem_done, lender.nic_latency, "DisaggNic: lender"),
      lender.node, self_, resp_bytes, prio, attempt);
  if (resp.outcome == net::FaultOutcome::kLost ||
      resp.outcome == net::FaultOutcome::kFlapDropped ||
      resp.outcome == net::FaultOutcome::kSwitchDropped) {
    replay_.count_frame_lost();
    return std::nullopt;
  }
  wire_in_ += resp_bytes;  // the frame reached the borrower (even corrupted)
  if (resp.outcome == net::FaultOutcome::kCorrupted) {
    replay_.count_crc_drop();
    return std::nullopt;
  }
  return resp.arrival;
}

void DisaggNic::note_abandoned(std::uint32_t lender_id, Lender& lender) {
  ++lender.consecutive_abandons;
  if (lender.detached ||
      lender.consecutive_abandons < replay_.config().detach_threshold) {
    return;
  }
  const std::size_t unmapped = translator_.remove_lender_segments(lender_id);
  lender.detached = true;
  ++detached_lenders_;
  TFSIM_LOG(Warn) << name_ << ": lender " << lender_id << " detached after "
                  << lender.consecutive_abandons
                  << " consecutive abandonments (" << unmapped
                  << " segment(s) unmapped)";
}

std::optional<AccessTrace> DisaggNic::remote_access(sim::Time now,
                                                    mem::Addr addr, bool write,
                                                    sim::Priority prio) {
  TFSIM_DOMAIN_TOUCH("DisaggNic::remote_access");
  if (!attached_ || device_lost_) {
    ++failures_;
    return std::nullopt;
  }
  const auto xlat = translator_.translate(addr);
  if (!xlat.has_value()) {
    ++failures_;
    return std::nullopt;
  }
  const auto lit = lenders_.find(xlat->lender_id);
  if (lit == lenders_.end() || lit->second.detached) {
    ++failures_;
    return std::nullopt;
  }
  Lender& lender = lit->second;

  AccessTrace t;
  t.issued = now;
  // 1. Window admission (stall while all MSHR entries are in flight).
  t.admitted = sim::checked_add(window_.admission_time(now, prio),
                               cfg_.processing_latency, "DisaggNic: request");
  // Protocol bookkeeping: the transaction holds one TL credit and one
  // response-matching tag for its whole life, retries included; both must
  // come home on every exit path (check_quiesced asserts they did).
  const auto tag = tags_.allocate();
  const bool credit = credits_.try_consume();
  if (!tag.has_value() || !credit) {
    // Window sizing guarantees a slot implies a tag and a credit; reaching
    // this means a reclamation bug upstream, so fail the access loudly.
    if (tag.has_value()) tags_.release(*tag);
    if (credit) credits_.restore();
    ++failures_;
    return std::nullopt;
  }

  sim::Time depart = t.admitted;
  for (std::uint32_t attempt = 0;; ++attempt) {
    // 2. Delay injector at the egress (between routing and multiplexing);
    //    retransmitted frames traverse it again like any other egress.
    const sim::Time gate = injector_->admit(depart);
    if (attempt == 0) t.gate_out = gate;
    const auto done = attempt_once(gate, lender, write, prio, attempt, t);
    if (done.has_value()) {
      t.completion =
          sim::checked_add(*done, cfg_.processing_latency, "DisaggNic: response");
      t.retries = attempt;
      if (attempt > 0) replay_.count_recovered();
      lender.consecutive_abandons = 0;
      break;
    }
    if (attempt >= replay_.config().max_retries) {
      // Abandon: surface a fail response at the final timer expiry and
      // reclaim the window slot, tag, and credit.
      replay_.count_abandoned();
      window_.record_completion(replay_.retry_at(gate, attempt), prio);
      tags_.release(*tag);
      credits_.restore();
      ++failures_;
      note_abandoned(xlat->lender_id, lender);
      return std::nullopt;
    }
    replay_.count_retry();
    // The retransmission timer was armed when this attempt left the egress;
    // the next attempt departs when it expires.
    depart = replay_.retry_at(gate, attempt);
  }

  window_.record_completion(t.completion, prio);
  tags_.release(*tag);
  credits_.restore();
  ++(write ? writes_ : reads_);
  latency_us_.add(sim::to_us(t.completion - t.issued));
  return t;
}

void DisaggNic::reset_stats() {
  reads_ = 0;
  writes_ = 0;
  failures_ = 0;
  wire_out_ = 0;
  wire_in_ = 0;
  latency_us_.reset();
  replay_.reset_stats();
}

}  // namespace tfsim::nic
