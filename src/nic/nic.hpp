// The disaggregated-memory NIC (compute/borrower side), assembled.
//
// Pipeline per remote cache-line transaction (Fig. 1 of the paper):
//   LLC miss -> request window (MSHR) -> [delay injector] -> packetizer
//   -> egress link -> lender NIC -> lender memory bus -> response path back.
// All stages are analytic FIFO servers, so each access costs O(1) host time;
// the cycle-level AXI model in src/axi validates the injector stage.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>

#include "capi/credit.hpp"
#include "mem/dram.hpp"
#include "net/network.hpp"
#include "nic/injector.hpp"
#include "nic/replay.hpp"
#include "nic/timeout.hpp"
#include "nic/translator.hpp"
#include "nic/window.hpp"
#include "sim/domain.hpp"
#include "sim/stats.hpp"
#include "sim/units.hpp"

namespace tfsim::nic {

struct NicConfig {
  /// Outstanding-transaction window; 129 entries x 128 B = 16.5 kB BDP.
  std::uint32_t window_entries = 129;
  /// Window slots reserved for the latency-sensitive QoS class (0 = off).
  std::uint32_t latency_reserved_entries = 0;
  /// FPGA clock driving the injector's COUNTER (Tclk = 3.125 ns).
  double fpga_clock_hz = 320e6;
  /// Injection PERIOD; 1 = vanilla ThymesisFlow.
  std::uint64_t period = 1;
  /// Fixed pipeline cost through each NIC crossing (OpenCAPI TL/DL,
  /// packetizer, AFU logic).
  sim::Time processing_latency = sim::from_ns(120.0);
  TimeoutConfig timeout;
  /// DL replay window: retransmission timers + bounded backoff for frames
  /// lost or corrupted on a faulty fabric (net::FaultyLink).
  ReplayConfig replay;
};

/// Per-access time breakdown (for validation and tests).
struct AccessTrace {
  sim::Time issued = 0;      ///< LLC miss reached the NIC
  sim::Time admitted = 0;    ///< entered the pipeline (window slot)
  sim::Time gate_out = 0;    ///< left the delay injector (first attempt)
  sim::Time tx_done = 0;     ///< request delivered to lender NIC
  sim::Time mem_done = 0;    ///< lender memory access complete
  sim::Time completion = 0;  ///< response received at borrower
  std::uint32_t retries = 0; ///< retransmissions this access needed
};

class DisaggNic {
 public:
  DisaggNic(const NicConfig& cfg, net::Network& network, net::NodeId self,
            std::string name = "disagg-nic");

  /// Register a lender reachable through the network.  `lender_dram` must
  /// outlive the NIC; `lender_nic_latency` is the remote NIC's fixed cost.
  void register_lender(std::uint32_t lender_id, net::NodeId lender_node,
                       mem::Dram* lender_dram,
                       sim::Time lender_nic_latency = sim::from_ns(120.0));

  /// Declare a lender dead from `at` on: requests reaching it at or after
  /// that time get no response (mid-run node failure).  After
  /// replay.detach_threshold consecutive abandonments the NIC gracefully
  /// detaches the lender -- its segments are unmapped so later accesses
  /// fail fast instead of burning a full retry ladder each.
  void set_lender_down(std::uint32_t lender_id, sim::Time at);
  bool lender_down(std::uint32_t lender_id, sim::Time at) const;
  /// Lenders detached after abandonment storms (graceful degradation).
  std::uint32_t detached_lenders() const { return detached_lenders_; }

  AddressTranslator& translator() { return translator_; }
  const AddressTranslator& translator() const { return translator_; }

  /// Attach handshake: discovers the FPGA through the gated path.  Fails
  /// (returns false and marks the device lost) when discovery exceeds the
  /// host detection deadline -- the Fig. 4 crash mode.
  bool attach();
  bool attached() const { return attached_; }
  /// Clear the device-lost state (host re-initializes the card).
  void reset_device();

  /// Full path for one cache-line transaction on the *borrower physical*
  /// address `addr`.  Returns nullopt if the address is unmapped or the
  /// device is lost.  FIFO model: callers must present non-decreasing `now`.
  /// `prio` selects the network QoS class (latency-sensitive traffic
  /// bypasses bulk backlog on every hop).
  std::optional<AccessTrace> remote_access(
      sim::Time now, mem::Addr addr, bool write,
      sim::Priority prio = sim::Priority::kBulk);

  /// Reconfigure the injector PERIOD (between runs, as in the paper).
  void set_period(std::uint64_t period);
  std::uint64_t period() const { return injector_->period(); }
  /// Swap in a distribution-mode injector (future-work extension).
  void set_distribution_injector(std::unique_ptr<net::LatencyDistribution> dist);

  DelayInjector& injector() { return *injector_; }
  const DelayInjector& injector() const { return *injector_; }
  RequestWindow& window() { return window_; }
  const ReplayWindow& replay() const { return replay_; }
  const capi::CreditPool& credits() const { return credits_; }
  const capi::TagAllocator& tags() const { return tags_; }
  const NicConfig& config() const { return cfg_; }

  /// Assert the protocol books balance with no transaction in flight:
  /// every credit restored, every tag released (replay reclamation held up
  /// even through abandonments).  Throws std::logic_error otherwise.
  void check_quiesced() const {
    credits_.check_quiesced();
    tags_.check_quiesced();
  }

  // --- statistics -----------------------------------------------------
  std::uint64_t reads() const { return reads_; }
  std::uint64_t writes() const { return writes_; }
  std::uint64_t failures() const { return failures_; }
  std::uint64_t wire_bytes_out() const { return wire_out_; }
  std::uint64_t wire_bytes_in() const { return wire_in_; }
  /// End-to-end remote access latency (us).
  const sim::Histogram& latency_us() const { return latency_us_; }
  void reset_stats();

  TFSIM_DOMAIN_OWNED

 private:
  struct Lender {
    net::NodeId node = 0;
    mem::Dram* dram = nullptr;
    sim::Time nic_latency = 0;
    sim::Time down_at = sim::kTimeNever;  ///< dead from this time on
    std::uint32_t consecutive_abandons = 0;
    bool detached = false;
  };

  /// One request/response round trip (no retry logic); nullopt when a frame
  /// was lost/dropped/corrupted or the lender is down at request arrival.
  /// `attempt` salts the fabric's ECMP stripe, so a retransmission can take
  /// a different parallel spine path than the attempt that died.
  std::optional<sim::Time> attempt_once(sim::Time depart, Lender& lender,
                                        bool write, sim::Priority prio,
                                        std::uint32_t attempt, AccessTrace& t);
  void note_abandoned(std::uint32_t lender_id, Lender& lender);

  NicConfig cfg_;
  net::Network& network_;
  net::NodeId self_;
  std::string name_;
  bool attached_ = false;
  bool device_lost_ = false;

  AddressTranslator translator_;
  RequestWindow window_;
  std::unique_ptr<DelayInjector> injector_;
  TimeoutDetector timeout_;
  ReplayWindow replay_;
  capi::CreditPool credits_;
  capi::TagAllocator tags_;
  std::map<std::uint32_t, Lender> lenders_;
  std::uint32_t detached_lenders_ = 0;

  std::uint64_t reads_ = 0;
  std::uint64_t writes_ = 0;
  std::uint64_t failures_ = 0;
  std::uint64_t wire_out_ = 0;
  std::uint64_t wire_in_ = 0;
  sim::Histogram latency_us_;
};

}  // namespace tfsim::nic
