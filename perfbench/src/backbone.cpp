// backbone-isp1024: every single-link failure of a 1024-router hierarchical
// ISP, in an order the seed draws; each scenario asks the worker's
// ScenarioRoutingCache for the post-convergence tables.  Almost all of it is
// SPF repair.
//
// The topology comes from a fixed generator seed: repair cost differs by up
// to 20% between generated topologies, which would swamp the throughput
// metrics' run-to-run spread.  The run seed draws the scenario order instead,
// which changes the sequence of cache restores and repairs.
#include <algorithm>
#include <utility>

#include "graph/generators.hpp"
#include "graph/rng.hpp"
#include "net/failure_model.hpp"
#include "net/forwarding.hpp"
#include "route/routing_db.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace pr;

namespace {

constexpr std::size_t kFullNodes = 1024;
constexpr std::size_t kTinyNodes = 256;
constexpr std::size_t kTinyScenarios = 200;
constexpr std::uint64_t kTopologySeed = 0xB0B0 + kFullNodes;

/// Sampled-row digest of a routing table (about 16 x 16 rows, so the check
/// costs well under 1% of the repair it checks).  The ISP topology is
/// 2-edge-connected by construction, so after a single link failure every
/// sampled router must still have a next hop: a missing one is a wrong
/// table, not a slow one.
std::uint64_t table_digest(const route::RoutingDb& db) {
  const std::size_t n = db.graph().node_count();
  Hasher h;
  const std::size_t stride = std::max<std::size_t>(1, n / 15);
  for (graph::NodeId dest = 0; dest < n; dest += stride) {
    for (graph::NodeId at = 0; at < n; at += stride) {
      const graph::DartId d = db.next_dart(at, dest);
      if (at != dest && d == graph::kInvalidDart) {
        throw std::runtime_error("router " + std::to_string(at) + " has no route to " +
                                 std::to_string(dest) + " after a single link failure");
      }
      h.word(d);
      h.word(db.hops(at, dest));
    }
  }
  h.word(db.max_discriminator());
  return h.value();
}

Fingerprint fingerprint(const std::vector<std::uint64_t>& digests) {
  Hasher tables;
  tables.word(digests.size());
  for (const std::uint64_t d : digests) tables.word(d);
  Fingerprint fp;
  fp.add("tables", tables);
  return fp;
}

class BackboneIsp final : public Workload {
 public:
  BackboneIsp(std::uint64_t seed, Size size, std::size_t parallel_threads)
      : isp_(make_isp(size)), scenarios_(net::all_single_failures(isp_.graph)) {
    // Fisher-Yates with the run seed: the scenario order is the seeded input.
    graph::Rng rng(seed);
    for (std::size_t i = scenarios_.size(); i > 1; --i) {
      std::swap(scenarios_[i - 1], scenarios_[rng.below(i)]);
    }
    if (size == Size::kTiny && scenarios_.size() > kTinyScenarios) {
      scenarios_.resize(kTinyScenarios);
    }
    start_executors(parallel_threads);
  }

  [[nodiscard]] std::string_view name() const override { return "backbone-isp1024"; }
  [[nodiscard]] std::size_t scenarios_per_pass() const override { return scenarios_.size(); }
  [[nodiscard]] bool sampled() const override { return false; }
  [[nodiscard]] std::uint32_t default_ttl() const override {
    return net::default_ttl(isp_.graph);
  }
  [[nodiscard]] std::vector<std::string> protocol_names() const override { return {}; }
  [[nodiscard]] std::vector<std::pair<std::string, double>> facts() const override {
    return {{"nodes", static_cast<double>(isp_.graph.node_count())},
            {"links", static_cast<double>(isp_.graph.edge_count())}};
  }

  void warm(sim::SweepExecutor& executor) override {
    const graph::EdgeSet none(isp_.graph.edge_count());
    warm_each_worker(executor, [&](sim::WorkerContext& ctx) {
      (void)ctx.routes.tables(isp_.graph, none);
    });
  }

  PassResult run_pass(sim::SweepExecutor& executor, std::uint64_t /*pass_seed*/) override {
    PassResult out;
    out.scenarios = scenarios_.size();
    std::vector<std::uint64_t> digests(scenarios_.size(), 0);
    const std::uint64_t t0 = now_ns();
    try {
      executor.run(scenarios_.size(), [&](std::size_t unit, sim::WorkerContext& ctx) {
        digests[unit] = table_digest(ctx.routes.tables(isp_.graph, scenarios_[unit]));
      });
      out.wall_s = seconds_since(t0);
      out.fingerprint = fingerprint(digests);
    } catch (const std::exception& e) {
      out.wall_s = seconds_since(t0);
      out.errors = scenarios_.size();
      out.failure = e.what();
    }
    return out;
  }

  TracedPass trace_pass(std::uint64_t /*pass_seed*/, SpanLog& log) override {
    const std::uint32_t cell_name = log.intern("cell");
    const std::uint32_t spf_name = log.intern("route.spf_repair");
    const std::uint32_t digest_name = log.intern("bench.digest");
    log.reserve(log.spans().size() + 3 * scenarios_.size() + 16);

    TracedPass out;
    out.scenarios = scenarios_.size();
    const std::uint64_t t0 = now_ns();
    route::ScenarioRoutingCache cache;
    (void)cache.tables(isp_.graph, graph::EdgeSet(isp_.graph.edge_count()));
    std::vector<std::uint64_t> digests(scenarios_.size(), 0);
    try {
      for (std::size_t s = 0; s < scenarios_.size(); ++s) {
        const obs::ScopedSink sink(&out.tally.counters);
        const auto scenario = static_cast<std::int64_t>(s);
        SpanLog::Scope cell(log, cell_name, scenario);
        const std::uint64_t hits = cache.hits();
        const std::uint64_t rebuilds = cache.rebuilds();
        const route::RoutingDb* db = nullptr;
        {
          SpanLog::Scope span(log, spf_name, scenario);
          db = &cache.tables(isp_.graph, scenarios_[s]);
        }
        out.tally.cache_hits += cache.hits() - hits;
        out.tally.cache_rebuilds += cache.rebuilds() - rebuilds;
        SpanLog::Scope span(log, digest_name, scenario);
        digests[s] = table_digest(*db);
      }
    } catch (const std::exception& e) {
      out.failure = e.what();
    }
    out.wall_s = seconds_since(t0);
    out.fingerprint = fingerprint(digests);
    return out;
  }

 private:
  static graph::IspTopology make_isp(Size size) {
    graph::Rng rng(kTopologySeed);
    return graph::hierarchical_isp(
        graph::sized_isp_params(size == Size::kFull ? kFullNodes : kTinyNodes), rng);
  }

  graph::IspTopology isp_;
  std::vector<graph::EdgeSet> scenarios_;
};

}  // namespace

std::unique_ptr<Workload> make_backbone_isp1024(std::uint64_t seed, Size size,
                                                std::size_t parallel_threads) {
  return std::make_unique<BackboneIsp>(seed, size, parallel_threads);
}

}  // namespace perfbench
