#include "workloads/stream/stream.hpp"

#include <cmath>
#include <stdexcept>

namespace tfsim::workloads {

namespace {
constexpr std::uint64_t kElemsPerLine = mem::kCacheLineBytes / sizeof(double);
}

const StreamKernelResult& StreamResult::kernel(const std::string& name) const {
  for (const auto& k : kernels) {
    if (k.kernel == name) return k;
  }
  throw std::out_of_range("StreamResult: no kernel " + name);
}

Stream::Stream(node::Node& node, const StreamConfig& cfg)
    : node_(node), cfg_(cfg) {
  a_ = std::make_unique<SimArray<double>>(node, cfg.elements,
                                          cfg.placement, "stream/a", 1.0);
  b_ = std::make_unique<SimArray<double>>(node, cfg.elements,
                                          cfg.placement, "stream/b", 2.0);
  c_ = std::make_unique<SimArray<double>>(node, cfg.elements,
                                          cfg.placement, "stream/c", 0.0);
}

// Each kernel walks the arrays line by line: one timed cache access per
// array line (reads for sources, a write for the destination -- write-
// allocate makes the line fetch a read; the dirty data leaves later as a
// writeback), plus the host-side arithmetic on all 16 elements in the line.

void Stream::kernel_copy(node::MemContext& ctx) {
  const std::uint64_t n = cfg_.elements;
  auto& av = a_->host();
  auto& cv = c_->host();
  for (std::uint64_t i = 0; i < n; i += kElemsPerLine) {
    ctx.read(a_->addr_of(i));
    ctx.write(c_->addr_of(i));
    const std::uint64_t end = std::min(n, i + kElemsPerLine);
    for (std::uint64_t j = i; j < end; ++j) cv[j] = av[j];
  }
}

void Stream::kernel_scale(node::MemContext& ctx) {
  const std::uint64_t n = cfg_.elements;
  const double s = cfg_.scalar;
  auto& bv = b_->host();
  auto& cv = c_->host();
  for (std::uint64_t i = 0; i < n; i += kElemsPerLine) {
    ctx.read(c_->addr_of(i));
    ctx.write(b_->addr_of(i));
    const std::uint64_t end = std::min(n, i + kElemsPerLine);
    for (std::uint64_t j = i; j < end; ++j) bv[j] = s * cv[j];
    ctx.advance((end - i) * cfg_.flop_cost);
  }
}

void Stream::kernel_add(node::MemContext& ctx) {
  const std::uint64_t n = cfg_.elements;
  auto& av = a_->host();
  auto& bv = b_->host();
  auto& cv = c_->host();
  for (std::uint64_t i = 0; i < n; i += kElemsPerLine) {
    ctx.read(a_->addr_of(i));
    ctx.read(b_->addr_of(i));
    ctx.write(c_->addr_of(i));
    const std::uint64_t end = std::min(n, i + kElemsPerLine);
    for (std::uint64_t j = i; j < end; ++j) cv[j] = av[j] + bv[j];
    ctx.advance((end - i) * cfg_.flop_cost);
  }
}

void Stream::kernel_triad(node::MemContext& ctx) {
  const std::uint64_t n = cfg_.elements;
  const double s = cfg_.scalar;
  auto& av = a_->host();
  auto& bv = b_->host();
  auto& cv = c_->host();
  for (std::uint64_t i = 0; i < n; i += kElemsPerLine) {
    ctx.read(b_->addr_of(i));
    ctx.read(c_->addr_of(i));
    ctx.write(a_->addr_of(i));
    const std::uint64_t end = std::min(n, i + kElemsPerLine);
    for (std::uint64_t j = i; j < end; ++j) av[j] = bv[j] + s * cv[j];
    ctx.advance(2 * (end - i) * cfg_.flop_cost);
  }
}

bool Stream::validate() const {
  // Arrays start uniform and every kernel maps uniform -> uniform, so the
  // expected values follow from replaying the kernel sequence on scalars
  // (the original STREAM validation).
  double ea = 1.0, eb = 2.0, ec = 0.0;
  for (std::uint32_t r = 0; r < cfg_.repetitions; ++r) {
    ec = ea;                    // copy
    eb = cfg_.scalar * ec;      // scale
    ec = ea + eb;               // add
    ea = eb + cfg_.scalar * ec; // triad
  }
  const double eps = 1e-8;
  for (std::uint64_t i = 0; i < cfg_.elements;
       i += std::max<std::uint64_t>(1, cfg_.elements / 1024)) {
    if (std::abs((*a_)[i] - ea) > eps * std::abs(ea)) return false;
    if (std::abs((*b_)[i] - eb) > eps * std::abs(eb)) return false;
    if (std::abs((*c_)[i] - ec) > eps * std::abs(ec)) return false;
  }
  return true;
}

StreamResult Stream::run() {
  StreamResult result;
  struct KernelDef {
    const char* name;
    void (Stream::*fn)(node::MemContext&);
    std::uint64_t bytes_per_elem;
  };
  const KernelDef defs[] = {
      {"copy", &Stream::kernel_copy, 16},
      {"scale", &Stream::kernel_scale, 16},
      {"add", &Stream::kernel_add, 24},
      {"triad", &Stream::kernel_triad, 24},
  };

  for (std::uint32_t rep = 0; rep < cfg_.repetitions; ++rep) {
    for (const auto& def : defs) {
      node::MemContext ctx(node_, cfg_.cpu, std::string("stream/") + def.name);
      ctx.seek(node_.engine().now());
      const sim::Time start = ctx.now();
      (this->*def.fn)(ctx);
      const sim::Time end = ctx.drain();

      StreamKernelResult kr;
      kr.kernel = def.name;
      kr.elapsed = end - start;
      kr.bytes = def.bytes_per_elem * cfg_.elements;
      kr.bandwidth_gbps =
          static_cast<double>(kr.bytes) / sim::to_sec(kr.elapsed) / 1e9;
      kr.avg_latency_us = ctx.stats().miss_latency_us.mean();
      kr.context = ctx.stats();
      result.total_elapsed += kr.elapsed;
      if (rep + 1 == cfg_.repetitions) {
        result.kernels.push_back(kr);
      }
    }
  }

  const bool ok = validate();
  double lat_sum = 0.0;
  for (auto& k : result.kernels) {
    k.validated = ok;
    result.best_bandwidth_gbps =
        std::max(result.best_bandwidth_gbps, k.bandwidth_gbps);
    lat_sum += k.avg_latency_us;
  }
  result.avg_latency_us =
      result.kernels.empty() ? 0.0 : lat_sum / static_cast<double>(result.kernels.size());
  result.validated = ok;
  return result;
}

}  // namespace tfsim::workloads
