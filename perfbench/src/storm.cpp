// storm-geant: sampled IndependentOutages storms over GEANT's radius-2
// geographic SRLG bundles, priced for PR / LFA / re-convergence, run through
// analysis::run_storm_experiment_resilient with a unit-cadence checkpoint
// store, the way tools/storm_sweep serves users.
#include <mutex>

#include "analysis/checkpoint_store.hpp"
#include "analysis/reducers.hpp"
#include "analysis/storm.hpp"
#include "graph/connectivity.hpp"
#include "net/storm_model.hpp"
#include "sim/run_control.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pr;

namespace {

constexpr double kTotalDemandPps = 1e6;
constexpr double kOutageProbability = 0.02;
constexpr std::size_t kSrlgRadius = 2;

void hash_summary(Hasher& h, const analysis::RunningSummary& s) {
  h.word(s.count);
  h.real(s.sum);
  h.real(s.min);
  h.real(s.max);
}

/// Every streamed output of a storm sweep, bit for bit.
Fingerprint fingerprint(const analysis::StormExperimentResult& r,
                        const std::vector<std::string>& names) {
  Fingerprint fp;
  Hasher shape;
  shape.word(r.scenarios);
  shape.word(r.flows_per_scenario);
  shape.real(r.offered_pps);
  hash_summary(shape, r.failed_groups);
  hash_summary(shape, r.failed_edges);
  shape.word(r.calm_scenarios);
  shape.word(r.disconnected_scenarios);
  fp.add("shape", shape);
  for (std::size_t i = 0; i < r.protocols.size(); ++i) {
    const analysis::StormProtocolResult& p = r.protocols[i];
    const std::string& name = names.at(i);
    Hasher volumes;
    volumes.real(p.delivered_pps);
    volumes.real(p.lost_pps);
    volumes.real(p.stranded_pps);
    fp.add(name + ".volumes", volumes);
    Hasher util;
    hash_summary(util, p.utilization);
    for (const double q : p.utilization_quantiles) util.real(q);
    for (const auto& e : p.worst) {
      util.real(e.key);
      util.word(e.id);
      util.real(e.value.max_stretch);
      util.real(e.value.lost_pps);
      util.real(e.value.stranded_pps);
      util.word(e.value.failed_edges);
      for (const std::size_t gid : e.value.failed_groups) util.word(gid);
    }
    fp.add(name + ".utilization", util);
    Hasher stretch;
    hash_summary(stretch, p.stretch);
    for (const double q : p.stretch_quantiles) stretch.real(q);
    fp.add(name + ".stretch", stretch);
    Hasher counters;
    counters.word(p.overloaded_links);
    counters.word(p.overloaded_scenarios);
    counters.word(p.lossy_scenarios);
    counters.word(p.rerouted_flows);
    fp.add(name + ".counters", counters);
  }
  return fp;
}

class StormGeant final : public GeantTraffic {
 public:
  StormGeant(std::uint64_t /*seed*/, Size size, std::size_t parallel_threads)
      : GeantTraffic([](const graph::Graph& g) {
          return traffic::gravity_demand(g, kTotalDemandPps, traffic::GravityMass::kDegree);
        }),
        catalog_(net::geographic_srlgs(g_, kSrlgRadius)),
        model_(net::IndependentOutages::uniform(catalog_, kOutageProbability)),
        scenarios_(size == Size::kFull ? 500 : 60) {
    start_executors(parallel_threads);
  }

  [[nodiscard]] std::string_view name() const override { return "storm-geant"; }
  [[nodiscard]] std::size_t scenarios_per_pass() const override { return scenarios_; }
  [[nodiscard]] bool sampled() const override { return true; }
  [[nodiscard]] std::vector<std::pair<std::string, double>> facts() const override {
    return {{"nodes", static_cast<double>(g_.node_count())},
            {"links", static_cast<double>(g_.edge_count())},
            {"srlg_groups", static_cast<double>(catalog_.group_count())},
            {"outage_probability", kOutageProbability}};
  }

  PassResult run_pass(sim::SweepExecutor& executor, std::uint64_t pass_seed) override {
    analysis::StormSweepConfig config;
    config.scenarios = scenarios_;
    config.seed = pass_seed;
    sim::RunControl control;
    control.set_error_policy(sim::UnitErrorPolicy::kContinue);
    analysis::StormRunOptions options;
    options.control = &control;
    options.checkpoint_cadence.units = std::max<std::size_t>(1, scenarios_ / 4);
    options.persist_checkpoint = [this](std::size_t, std::string&& blob) {
      persist(blob);
    };

    PassResult out;
    out.scenarios = scenarios_;
    const std::uint64_t t0 = now_ns();
    try {
      const analysis::StormRunResult run = analysis::run_storm_experiment_resilient(
          g_, demand_, plan_, model_, protocols_, config, executor, options);
      // The final generation, as tools/storm_sweep persists it.
      if (!run.checkpoint.empty()) persist(run.checkpoint);
      out.wall_s = seconds_since(t0);
      out.errors = run.outcome.error_count;
      if (!run.complete()) out.failure = "storm sweep did not complete";
      if (!run.checkpoint_error.empty()) out.failure = "checkpoint: " + run.checkpoint_error;
      for (const analysis::StormProtocolResult& p : run.result.protocols) {
        const std::string bad = check_conservation(
            run.result.offered_pps * static_cast<double>(run.result.scenarios),
            p.delivered_pps, p.lost_pps, p.stranded_pps, p.name);
        if (!bad.empty() && out.failure.empty()) out.failure = bad;
      }
      out.fingerprint = fingerprint(run.result, protocol_names());
    } catch (const std::exception& e) {
      out.wall_s = seconds_since(t0);
      out.errors = scenarios_;
      out.failure = e.what();
    }
    return out;
  }

  std::vector<Persist> take_persists() override {
    const std::lock_guard<std::mutex> lock(persist_mutex_);
    return std::exchange(persists_, {});
  }

  TracedPass trace_pass(std::uint64_t pass_seed, SpanLog& log) override;

  /// An empty store, as a new sweep starts with.
  void open_scratch(const std::string& dir) override {
    store_ = std::make_unique<analysis::CheckpointStore>(dir + "/ckpt-storm");
  }

 private:
  void persist(const std::string& blob) {
    const std::uint64_t t0 = now_ns();
    (void)store_->persist(blob);
    const std::uint64_t t1 = now_ns();
    const std::lock_guard<std::mutex> lock(persist_mutex_);
    persists_.push_back(Persist{t0, t1, blob.size()});
  }

  net::SrlgCatalog catalog_;
  net::IndependentOutages model_;
  std::size_t scenarios_;
  std::unique_ptr<analysis::CheckpointStore> store_;
  std::mutex persist_mutex_;  // guards persists_ (persist runs on the monitor thread)
  std::vector<Persist> persists_;
};

TracedPass StormGeant::trace_pass(std::uint64_t pass_seed, SpanLog& log) {
  const std::vector<std::string> protocol_list = protocol_names();
  const CellSpanNames names(log, protocol_list);
  const std::size_t np = protocols_.size();
  log.reserve(log.spans().size() + scenarios_ * (8 + 6 * np) + 64);

  TracedPass out;
  out.scenarios = scenarios_;
  out.tally.walk.resize(np);
  const std::uint64_t t0 = now_ns();

  std::vector<sim::FlowSpec> flows;
  std::vector<double> demands;
  analysis::collect_demand_flows(demand_, flows, demands);
  double offered = 0.0;
  for (const double d : demands) offered += d;

  // The pristine pass the library runs inside the sweep call: per protocol an
  // incidence index, its SRLG view and the pristine path costs.
  struct ProtocolIndex {
    traffic::FlowIncidenceIndex flows;
    traffic::GroupIncidence groups;
    std::vector<double> pristine_costs;
  };
  std::vector<ProtocolIndex> indexes(np);
  const net::Network pristine(g_);
  route::ScenarioRoutingCache pristine_cache;
  CellScratch scratch;
  std::vector<CellOut> pristine_cells(np);
  {
    SpanLog::Scope span(log, names.index_build, -1);
    for (std::size_t i = 0; i < np; ++i) {
      const auto instance = analysis::make_protocol(protocols_[i], pristine, pristine_cache);
      indexes[i].flows.build(pristine, *instance, flows, demands);
      indexes[i].groups.build(indexes[i].flows, catalog_);
      sim::route_batch(pristine, *instance, flows, sim::TraceMode::kStats, scratch.batch);
      indexes[i].pristine_costs.resize(flows.size());
      for (std::size_t f = 0; f < flows.size(); ++f) {
        indexes[i].pristine_costs[f] = scratch.batch[f].cost;
      }
    }
    // Calm scenarios reuse the pristine cell, computed once.
    const auto component = graph::connected_components(g_);
    TraceTally unused;
    unused.walk.resize(np);
    for (std::size_t i = 0; i < np; ++i) {
      const CellContext ctx{pristine, component, pristine_cache, indexes[i].flows,
                            indexes[i].pristine_costs, flows, demands, offered};
      const std::span<const std::size_t> no_groups;
      pristine_cells[i] = traced_cell(
          i, ctx, scratch,
          [&](traffic::IncidenceScratch& inc) {
            indexes[i].groups.affected_flows(no_groups, inc.affected_mark, inc.affected);
          },
          log, names, -1, unused);
    }
  }

  // The streaming reducers of the library's reduce step.
  const analysis::StormSweepConfig config;
  analysis::StormExperimentResult result;
  result.scenarios = scenarios_;
  result.flows_per_scenario = flows.size();
  result.offered_pps = offered;
  result.protocols.resize(np);
  std::vector<analysis::P2QuantileSet> util_q(np, analysis::P2QuantileSet(config.quantiles));
  std::vector<analysis::P2QuantileSet> stretch_q(np, analysis::P2QuantileSet(config.quantiles));
  std::vector<analysis::TopK<analysis::StormScenarioRecord>> worst(
      np, analysis::TopK<analysis::StormScenarioRecord>(config.top_k));

  net::Network network(g_);
  net::StormSample sample;
  graph::ComponentScratch components;
  route::ScenarioRoutingCache cache;
  (void)cache.tables(g_, graph::EdgeSet(g_.edge_count()), kind_);
  std::vector<CellOut> cells(np);
  std::vector<std::size_t> groups;

  for (std::size_t s = 0; s < scenarios_; ++s) {
    const obs::ScopedSink sink(&out.tally.counters);
    const auto scenario = static_cast<std::int64_t>(s);
    SpanLog::Scope cell(log, names.cell, scenario);
    {
      SpanLog::Scope span(log, names.sample, scenario);
      graph::Rng rng(sim::split_seed(pass_seed, s));
      model_.sample(rng, sample);
    }
    groups.assign(sample.groups.begin(), sample.groups.end());
    const bool calm = groups.empty();
    bool disconnected = false;
    if (calm) {
      cells = pristine_cells;
    } else {
      {
        SpanLog::Scope span(log, names.fail, scenario);
        for (const graph::EdgeId e : sample.failures.elements()) network.fail_link(e);
      }
      {
        SpanLog::Scope span(log, names.components, scenario);
        disconnected = graph::connected_components_into(g_, &sample.failures, components) > 1;
      }
      for (std::size_t i = 0; i < np; ++i) {
        const CellContext ctx{network, components.component, cache, indexes[i].flows,
                              indexes[i].pristine_costs, flows, demands, offered};
        cells[i] = traced_cell(
            i, ctx, scratch,
            [&](traffic::IncidenceScratch& inc) {
              indexes[i].groups.affected_flows(groups, inc.affected_mark, inc.affected);
            },
            log, names, scenario, out.tally);
      }
      {
        SpanLog::Scope span(log, names.fail, scenario);
        for (const graph::EdgeId e : sample.failures.elements()) network.restore_link(e);
      }
    }
    {
      SpanLog::Scope span(log, names.reduce, scenario);
      result.failed_groups.add(static_cast<double>(groups.size()));
      result.failed_edges.add(static_cast<double>(sample.failures.size()));
      if (calm) ++result.calm_scenarios;
      if (disconnected) ++result.disconnected_scenarios;
      for (std::size_t i = 0; i < np; ++i) {
        const CellOut& c = cells[i];
        const traffic::CongestionMetrics& m = c.metrics;
        analysis::StormProtocolResult& p = result.protocols[i];
        p.utilization.add(m.max_utilization);
        p.stretch.add(c.max_stretch);
        util_q[i].add(m.max_utilization);
        stretch_q[i].add(c.max_stretch);
        p.delivered_pps += m.delivered_pps;
        p.lost_pps += m.lost_pps;
        p.stranded_pps += m.stranded_pps;
        p.overloaded_links += m.overloaded_links;
        if (m.overloaded_links > 0) ++p.overloaded_scenarios;
        if (m.lost_pps > 0.0) ++p.lossy_scenarios;
        p.rerouted_flows += c.rerouted;
        worst[i].add(m.max_utilization, s,
                     analysis::StormScenarioRecord{m.max_utilization, c.max_stretch,
                                                   m.lost_pps, m.stranded_pps, groups,
                                                   sample.failures.size()});
      }
    }
  }
  for (std::size_t i = 0; i < np; ++i) {
    result.protocols[i].utilization_quantiles = util_q[i].estimates();
    result.protocols[i].stretch_quantiles = stretch_q[i].estimates();
    result.protocols[i].worst = worst[i].sorted();
  }
  out.wall_s = seconds_since(t0);
  out.fingerprint = fingerprint(result, protocol_names());
  return out;
}

}  // namespace

std::unique_ptr<Workload> make_storm_geant(std::uint64_t seed, Size size,
                                           std::size_t parallel_threads) {
  return std::make_unique<StormGeant>(seed, size, parallel_threads);
}

}  // namespace perfbench
