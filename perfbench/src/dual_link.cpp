// dual-link-geant: every dual-link failure of GEANT under a hotspot demand
// whose sinks the seed draws, priced for PR / LFA / re-convergence through
// the executor overload of analysis::run_traffic_experiment (incremental).
#include <optional>

#include "graph/connectivity.hpp"
#include "net/failure_model.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pr;

namespace {

constexpr double kTotalDemandPps = 1e6;
constexpr std::size_t kHotspots = 3;
constexpr double kHotFraction = 0.5;
constexpr std::size_t kTinyScenarios = 100;

/// Per-scenario rows, merged loads and re-route counts, bit for bit.
Fingerprint fingerprint(const analysis::TrafficExperimentResult& r,
                        const std::vector<std::string>& names) {
  Fingerprint fp;
  Hasher shape;
  shape.word(r.scenarios);
  shape.word(r.flows_per_scenario);
  fp.add("shape", shape);
  for (std::size_t i = 0; i < r.protocols.size(); ++i) {
    const analysis::ProtocolTraffic& p = r.protocols[i];
    const std::string& name = names.at(i);
    Hasher volumes;
    Hasher util;
    for (const traffic::CongestionMetrics& m : p.per_scenario) {
      volumes.real(m.offered_pps);
      volumes.real(m.delivered_pps);
      volumes.real(m.lost_pps);
      volumes.real(m.stranded_pps);
      util.real(m.max_utilization);
      util.word(m.overloaded_links);
    }
    fp.add(name + ".volumes", volumes);
    fp.add(name + ".utilization", util);
    Hasher load;
    load.word(p.total_load.scenarios);
    for (const double v : p.total_load.load.darts()) load.real(v);
    fp.add(name + ".load", load);
    Hasher counters;
    counters.word(p.rerouted_flows);
    fp.add(name + ".counters", counters);
  }
  return fp;
}

class DualLinkGeant final : public GeantTraffic {
 public:
  DualLinkGeant(std::uint64_t seed, Size size, std::size_t parallel_threads)
      : GeantTraffic([seed](const graph::Graph& g) {
          graph::Rng rng(seed);
          return traffic::hotspot_demand(g, kTotalDemandPps, kHotspots, kHotFraction, rng);
        }),
        scenarios_(net::enumerate_failures(g_, 2)) {
    if (size == Size::kTiny && scenarios_.size() > kTinyScenarios) {
      scenarios_.resize(kTinyScenarios);
    }
    start_executors(parallel_threads);
  }

  [[nodiscard]] std::string_view name() const override { return "dual-link-geant"; }
  [[nodiscard]] std::size_t scenarios_per_pass() const override { return scenarios_.size(); }
  [[nodiscard]] bool sampled() const override { return false; }
  [[nodiscard]] std::vector<std::pair<std::string, double>> facts() const override {
    return {{"nodes", static_cast<double>(g_.node_count())},
            {"links", static_cast<double>(g_.edge_count())},
            {"hotspots", static_cast<double>(kHotspots)}};
  }

  PassResult run_pass(sim::SweepExecutor& executor, std::uint64_t /*pass_seed*/) override {
    PassResult out;
    out.scenarios = scenarios_.size();
    const std::uint64_t t0 = now_ns();
    try {
      const analysis::TrafficExperimentResult r = analysis::run_traffic_experiment(
          g_, demand_, plan_, scenarios_, protocols_, executor,
          analysis::TrafficSweepMode::kIncremental);
      out.wall_s = seconds_since(t0);
      for (const analysis::ProtocolTraffic& p : r.protocols) {
        for (std::size_t s = 0; s < p.per_scenario.size() && out.failure.empty(); ++s) {
          const traffic::CongestionMetrics& m = p.per_scenario[s];
          out.failure = check_conservation(m.offered_pps, m.delivered_pps, m.lost_pps,
                                           m.stranded_pps,
                                           p.name + " scenario " + std::to_string(s));
        }
      }
      out.fingerprint = fingerprint(r, protocol_names());
    } catch (const std::exception& e) {
      out.wall_s = seconds_since(t0);
      out.errors = scenarios_.size();
      out.failure = e.what();
    }
    return out;
  }

  TracedPass trace_pass(std::uint64_t pass_seed, SpanLog& log) override;

 private:
  std::vector<graph::EdgeSet> scenarios_;
};

TracedPass DualLinkGeant::trace_pass(std::uint64_t /*pass_seed*/, SpanLog& log) {
  const std::vector<std::string> protocol_list = protocol_names();
  const CellSpanNames names(log, protocol_list);
  const std::size_t np = protocols_.size();
  log.reserve(log.spans().size() + scenarios_.size() * (4 + 9 * np) + 64);

  TracedPass out;
  out.scenarios = scenarios_.size();
  out.tally.walk.resize(np);
  const std::uint64_t t0 = now_ns();

  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand_, flows, demands);
  double offered = 0.0;
  for (const double d : demands) offered += d;

  std::vector<traffic::FlowIncidenceIndex> indexes(np);
  {
    SpanLog::Scope span(log, names.index_build, -1);
    const net::Network pristine(g_);
    route::ScenarioRoutingCache pristine_cache;
    for (std::size_t i = 0; i < np; ++i) {
      const auto instance = analysis::make_protocol(protocols_[i], pristine, pristine_cache);
      indexes[i].build(pristine, *instance, flows, demands);
    }
  }

  analysis::TrafficExperimentResult result;
  result.scenarios = scenarios_.size();
  result.flows_per_scenario = flows.size();
  result.protocols.resize(np);

  route::ScenarioRoutingCache cache;
  (void)cache.tables(g_, graph::EdgeSet(g_.edge_count()), kind_);
  CellScratch scratch;
  std::optional<net::Network> network;
  std::vector<std::uint32_t> component;

  for (std::size_t s = 0; s < scenarios_.size(); ++s) {
    const obs::ScopedSink sink(&out.tally.counters);
    const auto scenario = static_cast<std::int64_t>(s);
    const graph::EdgeSet& failures = scenarios_[s];
    SpanLog::Scope cell(log, names.cell, scenario);
    {
      // The library builds a fresh Network per scenario.
      SpanLog::Scope span(log, names.fail, scenario);
      network.emplace(g_);
      for (const graph::EdgeId e : failures.elements()) network->fail_link(e);
    }
    {
      SpanLog::Scope span(log, names.components, scenario);
      component = graph::connected_components(g_, &failures);
    }
    for (std::size_t i = 0; i < np; ++i) {
      const CellContext ctx{*network, component, cache, indexes[i], {}, flows, demands,
                            offered};
      const CellOut c = traced_cell(
          i, ctx, scratch,
          [&](traffic::IncidenceScratch& inc) {
            indexes[i].affected_flows(network->failed_links(), inc.affected_mark,
                                      inc.affected);
          },
          log, names, scenario, out.tally);
      analysis::ProtocolTraffic& agg = result.protocols[i];
      {
        SpanLog::Scope span(log, names.merge, scenario);
        agg.total_load.add(scratch.load);
      }
      {
        SpanLog::Scope span(log, names.reduce, scenario);
        agg.per_scenario.push_back(c.metrics);
        agg.rerouted_flows += c.rerouted;
      }
    }
    {
      SpanLog::Scope span(log, names.fail, scenario);
      network.reset();
    }
  }
  out.wall_s = seconds_since(t0);
  out.fingerprint = fingerprint(result, protocol_names());
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_dual_link_geant(std::uint64_t seed, Size size,
                                               std::size_t parallel_threads) {
  return std::make_unique<DualLinkGeant>(seed, size, parallel_threads);
}

}  // namespace perfbench
