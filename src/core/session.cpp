#include "core/session.hpp"

namespace tfsim::core {

Session::Session(const SessionConfig& cfg)
    : cluster_(cfg.scenario), placement_(cfg.placement) {
  attached_ = cluster_.attach_remote();
  if (cfg.migration.has_value()) {
    cluster_.borrower().enable_migration(*cfg.migration);
  }
}

sim::Time Session::injector_interval() const {
  const auto& inj = nic().injector();
  return inj.mode() == nic::DelayInjector::Mode::kPeriodGate ? inj.interval()
                                                             : 0;
}

workloads::StreamResult Session::run_stream(const workloads::StreamConfig& cfg) {
  workloads::StreamConfig c = cfg;
  c.placement = placement_;
  workloads::Stream stream(cluster_.borrower(), c);
  return stream.run();
}

workloads::g500::BfsResult Session::run_bfs(
    const workloads::g500::Graph500Config& cfg,
    workloads::g500::CsrGraph graph, std::uint32_t root) {
  workloads::g500::Graph500Config c = cfg;
  c.placement = placement_;
  workloads::g500::Graph500 g(cluster_.borrower(), c, std::move(graph));
  return g.run_bfs(root);
}

workloads::g500::SsspResult Session::run_sssp(
    const workloads::g500::Graph500Config& cfg,
    workloads::g500::CsrGraph graph, std::uint32_t root) {
  workloads::g500::Graph500Config c = cfg;
  c.placement = placement_;
  workloads::g500::Graph500 g(cluster_.borrower(), c, std::move(graph));
  return g.run_sssp(root);
}

workloads::g500::JobResult Session::run_bfs_job(
    const workloads::g500::Graph500Config& cfg,
    const workloads::g500::EdgeList& edges, std::uint32_t root) {
  workloads::g500::Graph500Config c = cfg;
  c.placement = placement_;
  workloads::g500::Graph500 g(cluster_.borrower(), c, edges);
  return g.run_bfs_job(root);
}

workloads::g500::JobResult Session::run_sssp_job(
    const workloads::g500::Graph500Config& cfg,
    const workloads::g500::EdgeList& edges, std::uint32_t root) {
  workloads::g500::Graph500Config c = cfg;
  c.placement = placement_;
  workloads::g500::Graph500 g(cluster_.borrower(), c, edges);
  return g.run_sssp_job(root);
}

workloads::kv::MemtierResult Session::run_memtier(
    const workloads::kv::KvStoreConfig& store_cfg,
    const workloads::kv::MemtierConfig& load_cfg) {
  workloads::kv::KvStoreConfig sc = store_cfg;
  sc.placement = placement_;
  workloads::kv::KvStore store(cluster_.borrower(), sc);
  workloads::kv::Memtier memtier(cluster_.borrower(), store, load_cfg);
  return memtier.run();
}

const nic::DisaggNic& Session::nic() const {
  return cluster_.borrower().nic();
}

}  // namespace tfsim::core
