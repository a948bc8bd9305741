#include <algorithm>
#include <cmath>
#include <sstream>

#include "net/forwarding.hpp"
#include "topo/topologies.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pr;

namespace {

constexpr double kBaselineUtilization = 0.6;

/// The sizing rule of tools/storm_sweep: uniform capacity such that the
/// busiest pristine SPF interface runs at the baseline utilization.
traffic::CapacityPlan size_plan(const graph::Graph& g, const analysis::ProtocolSuite& suite,
                                const traffic::TrafficMatrix& demand) {
  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand, flows, demands);
  const net::Network network(g);
  const auto spf = suite.spf().make(network);
  traffic::LoadMap load;
  sim::BatchResult batch;
  sim::route_batch(network, *spf, flows, demands, load, sim::TraceMode::kStats, batch);
  double peak = 0.0;
  for (const double v : load.darts()) peak = std::max(peak, v);
  return traffic::CapacityPlan::uniform(g, peak / kBaselineUtilization);
}

}  // namespace

CellSpanNames::CellSpanNames(SpanLog& log, const std::vector<std::string>& protocols)
    : cell(log.intern("cell")),
      sample(log.intern("net.sample")),
      fail(log.intern("net.fail")),
      components(log.intern("graph.components")),
      probe(log.intern("traffic.probe")),
      spf_repair(log.intern("route.spf_repair")),
      replay(log.intern("traffic.replay")),
      price(log.intern("traffic.price")),
      merge(log.intern("traffic.merge")),
      reduce(log.intern("analysis.reduce")),
      index_build(log.intern("traffic.index_build")) {
  for (const std::string& p : protocols) {
    build.push_back(log.intern("route.protocol_build." + p));
    walk.push_back(log.intern("sim.walk." + p));
  }
}

GeantTraffic::GeantTraffic(
    const std::function<traffic::TrafficMatrix(const graph::Graph&)>& make_demand)
    : g_(topo::geant()), demand_(make_demand(g_)) {
  const std::uint64_t t0 = now_ns();
  suite_ = std::make_unique<analysis::ProtocolSuite>(g_);
  times_.suite_build_s = seconds_since(t0);
  protocols_ = {suite_->pr(), suite_->lfa(), suite_->reconvergence()};
  kind_ = suite_->routes().discriminator_kind();
  plan_ = size_plan(g_, *suite_, demand_);
}

std::uint32_t GeantTraffic::default_ttl() const { return net::default_ttl(g_); }

void GeantTraffic::warm(sim::SweepExecutor& executor) {
  const graph::EdgeSet none(g_.edge_count());
  warm_each_worker(executor, [&](sim::WorkerContext& ctx) {
    (void)ctx.routes.tables(g_, none, kind_);
  });
}

GeantTraffic::CellOut GeantTraffic::traced_cell(
    std::size_t protocol, const CellContext& ctx, CellScratch& scratch,
    const std::function<void(traffic::IncidenceScratch&)>& probe, SpanLog& log,
    const CellSpanNames& names, std::int64_t scenario, TraceTally& tally) {
  traffic::IncidenceScratch& inc = scratch.incidence;
  {
    SpanLog::Scope span(log, names.probe, scenario);
    probe(inc);
    inc.flows.clear();
    for (const std::uint32_t f : inc.affected) inc.flows.push_back(ctx.flows[f]);
  }
  tally.probed_flows += ctx.flows.size();
  tally.affected_flows += inc.affected.size();

  scratch.batch.clear();
  if (!inc.affected.empty()) {
    if (protocol == kReconv) {
      // The repair re-convergence's factory would trigger, made explicit so
      // it gets its own span; the factory below then hits the cache.
      const std::uint64_t hits = ctx.cache.hits();
      const std::uint64_t rebuilds = ctx.cache.rebuilds();
      {
        SpanLog::Scope span(log, names.spf_repair, scenario);
        (void)ctx.cache.tables(g_, ctx.network.failed_links(), kind_);
      }
      tally.cache_hits += ctx.cache.hits() - hits;
      tally.cache_rebuilds += ctx.cache.rebuilds() - rebuilds;
    }
    std::unique_ptr<net::ForwardingProtocol> instance;
    {
      SpanLog::Scope span(log, names.build[protocol], scenario);
      instance = analysis::make_protocol(protocols_[protocol], ctx.network, ctx.cache);
    }
    {
      SpanLog::Scope span(log, names.walk[protocol], scenario);
      sim::route_batch(ctx.network, *instance, inc.flows, sim::TraceMode::kFullTrace,
                       scratch.batch);
    }
    WalkTally& w = tally.walk[protocol];
    for (const sim::FlowStats& s : scratch.batch.stats()) {
      ++w.flows;
      w.hops += s.hops;
      if (s.delivered()) w.delivered_hops += s.hops;
      if (s.drop_reason == net::DropReason::kTtlExpired) ++w.ttl_expired;
    }
  }

  CellOut out;
  out.rerouted = inc.affected.size();
  traffic::CongestionMetrics& m = out.metrics;
  {
    SpanLog::Scope span(log, names.replay, scenario);
    scratch.load.reset(g_.dart_count());
    m.offered_pps = ctx.offered_pps;
    const bool stretch = !ctx.pristine_costs.empty();
    std::uint64_t adds = 0;
    std::size_t a = 0;  // cursor into the re-routed batch
    for (std::size_t f = 0; f < ctx.flows.size(); ++f) {
      const double rate = ctx.demands[f];
      bool delivered;
      if (inc.affected_mark[f] != 0) {
        const auto darts = scratch.batch.darts(a);
        for (const graph::DartId d : darts) scratch.load.add(d, rate);
        adds += darts.size();
        delivered = scratch.batch[a].delivered();
        if (stretch && delivered && ctx.pristine_costs[f] > 0.0) {
          out.max_stretch =
              std::max(out.max_stretch, scratch.batch[a].cost / ctx.pristine_costs[f]);
        }
        ++a;
      } else {
        const auto darts = ctx.index.flow_darts(f);
        for (const graph::DartId d : darts) scratch.load.add(d, rate);
        adds += darts.size();
        delivered = ctx.index.pristine_delivered(f);
      }
      if (delivered) {
        m.delivered_pps += rate;
      } else if (ctx.component[ctx.flows[f].source] ==
                 ctx.component[ctx.flows[f].destination]) {
        m.lost_pps += rate;
      } else {
        m.stranded_pps += rate;
      }
    }
    tally.replay_adds += adds;
  }
  {
    SpanLog::Scope span(log, names.price, scenario);
    traffic::apply_utilization(m, g_, scratch.load, plan_);
  }
  return out;
}

std::string GeantTraffic::check_conservation(double offered, double delivered, double lost,
                                             double stranded, const std::string& where) {
  const double accounted = delivered + lost + stranded;
  if (std::abs(accounted - offered) <= 1e-9 * std::max(1.0, std::abs(offered))) return {};
  std::ostringstream out;
  out.precision(17);
  out << where << ": delivered + lost + stranded = " << accounted << " but offered "
      << offered;
  return out.str();
}

}  // namespace perfbench
