// Internals shared by the workload implementations: the factories, the
// per-worker cache warm-up, and the GEANT demand-sweep base that the storm
// and dual-link workloads share (set-up and the traced incremental cell).
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/protocols.hpp"
#include "analysis/traffic.hpp"
#include "graph/graph.hpp"
#include "net/network.hpp"
#include "route/scenario_cache.hpp"
#include "sim/forwarding_engine.hpp"
#include "traffic/capacity.hpp"
#include "traffic/congestion.hpp"
#include "traffic/demand.hpp"
#include "traffic/incidence.hpp"
#include "workload.hpp"

namespace perfbench {

[[nodiscard]] std::unique_ptr<Workload> make_storm_geant(std::uint64_t seed, Size size,
                                                         std::size_t parallel_threads);
[[nodiscard]] std::unique_ptr<Workload> make_dual_link_geant(std::uint64_t seed, Size size,
                                                             std::size_t parallel_threads);
[[nodiscard]] std::unique_ptr<Workload> make_backbone_isp1024(std::uint64_t seed, Size size,
                                                              std::size_t parallel_threads);

/// Runs `fill` exactly once on every worker of `executor`.
void warm_each_worker(sim::SweepExecutor& executor,
                      const std::function<void(sim::WorkerContext&)>& fill);

/// Span names of a traced GEANT demand sweep, interned once per pass.
struct CellSpanNames {
  std::uint32_t cell, sample, fail, components, probe, spf_repair, replay, price, merge,
      reduce, index_build;
  std::vector<std::uint32_t> build;  ///< per protocol
  std::vector<std::uint32_t> walk;   ///< per protocol

  CellSpanNames(SpanLog& log, const std::vector<std::string>& protocols);
};

/// GEANT with a demand matrix, capacity sized so the busiest pristine SPF
/// interface runs at 60%, and the PR / LFA / re-convergence trio.
class GeantTraffic : public Workload {
 public:
  [[nodiscard]] std::uint32_t default_ttl() const override;
  [[nodiscard]] std::vector<std::string> protocol_names() const override {
    return {"pr", "lfa", "reconv"};
  }
  void warm(sim::SweepExecutor& executor) override;

 protected:
  static constexpr std::size_t kReconv = 2;  ///< index of re-convergence in protocols_

  /// Builds topology, demand (from `make_demand`), capacity plan and suite.
  explicit GeantTraffic(
      const std::function<pr::traffic::TrafficMatrix(const pr::graph::Graph&)>& make_demand);

  /// One (scenario, protocol) cell as the library's incremental cell computes
  /// it, with a span around each call.  `probe` fills scratch.affected_mark /
  /// scratch.affected.  When `pristine_costs` is non-empty the worst stretch
  /// of delivered re-routed flows is tracked as well (the storm cell).
  struct CellOut {
    pr::traffic::CongestionMetrics metrics;
    double max_stretch = 1.0;
    std::size_t rerouted = 0;
  };
  struct CellScratch {
    pr::sim::BatchResult batch;
    pr::traffic::LoadMap load;
    pr::traffic::IncidenceScratch incidence;
  };
  struct CellContext {
    const pr::net::Network& network;
    std::span<const std::uint32_t> component;
    pr::route::ScenarioRoutingCache& cache;
    const pr::traffic::FlowIncidenceIndex& index;
    std::span<const double> pristine_costs;
    std::span<const pr::sim::FlowSpec> flows;
    std::span<const double> demands;
    double offered_pps;
  };
  CellOut traced_cell(std::size_t protocol, const CellContext& ctx, CellScratch& scratch,
                      const std::function<void(pr::traffic::IncidenceScratch&)>& probe,
                      SpanLog& log, const CellSpanNames& names, std::int64_t scenario,
                      TraceTally& tally);

  /// Demand-conservation check: delivered + lost + stranded must equal the
  /// offered volume.  Returns a description of the first violation, or "".
  [[nodiscard]] static std::string check_conservation(double offered, double delivered,
                                                      double lost, double stranded,
                                                      const std::string& where);

  pr::graph::Graph g_;
  pr::traffic::TrafficMatrix demand_;
  std::unique_ptr<pr::analysis::ProtocolSuite> suite_;
  std::vector<pr::analysis::NamedFactory> protocols_;
  pr::traffic::CapacityPlan plan_;
  pr::route::DiscriminatorKind kind_ = pr::route::DiscriminatorKind::kHops;
};

}  // namespace perfbench
