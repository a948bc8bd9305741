// The benchmark's workloads and what one sweep pass reports.
//
// A workload owns its inputs (generated from the seed at set-up), a 1-thread
// and an N-thread sim::SweepExecutor with warm per-worker routing caches,
// and two ways of running one sweep:
//   * run_pass   -- the library's own driver, untraced: what users run;
//   * trace_pass -- the same sweep re-composed serially from public calls,
//                   with a span around every call into a src/ module.
// Both return a Fingerprint of everything the sweep produced, so the traced
// re-composition can be held bit-identical to the library driver.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/telemetry.hpp"
#include "sim/parallel_sweep.hpp"
#include "spans.hpp"

namespace perfbench {

namespace obs = pr::obs;
namespace sim = pr::sim;

enum class Size : std::uint8_t { kFull, kTiny };

/// FNV-1a over 64-bit words; doubles are hashed by their bit pattern, so two
/// fingerprints agree only when the values are bit-identical.
class Hasher {
 public:
  void word(std::uint64_t v) noexcept {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xFFU;
      h_ *= 1099511628211ULL;
    }
  }
  void real(double v) noexcept;
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Named parts of a sweep's output (e.g. "pr.volumes", "pr.utilization"), so
/// a mismatch says which stream diverged.
struct Fingerprint {
  std::vector<std::pair<std::string, std::uint64_t>> parts;

  void add(std::string name, const Hasher& h) { parts.emplace_back(std::move(name), h.value()); }
  [[nodiscard]] std::uint64_t digest() const noexcept;
  /// Names of the parts that differ from `other` (all of them on a shape mismatch).
  [[nodiscard]] std::vector<std::string> differing(const Fingerprint& other) const;
};

struct PassResult {
  std::size_t scenarios = 0;  ///< scenarios attempted
  std::size_t errors = 0;     ///< unit errors (a pass that throws counts all)
  double wall_s = 0.0;        ///< wall time of the sweep call
  Fingerprint fingerprint;
  std::string failure;        ///< non-empty when a check on the output failed
};

/// Per-protocol dataplane counts of the re-composed walk.
struct WalkTally {
  std::uint64_t flows = 0;           ///< flows walked
  std::uint64_t hops = 0;            ///< hops walked
  std::uint64_t delivered_hops = 0;  ///< hops of flows that were delivered
  std::uint64_t ttl_expired = 0;     ///< flows dropped with ttl-expired
};

/// Counts the traced re-composition records next to its spans.
struct TraceTally {
  std::vector<WalkTally> walk;  ///< per protocol, in protocol_names() order
  std::uint64_t replay_adds = 0;
  std::uint64_t probed_flows = 0;    ///< flow universe summed over probes
  std::uint64_t affected_flows = 0;  ///< affected flows summed over probes
  std::uint64_t cache_hits = 0;      ///< ScenarioRoutingCache hits at spf repair
  std::uint64_t cache_rebuilds = 0;  ///< ScenarioRoutingCache rebuilds at spf repair
  obs::Counters counters;            ///< obs counters of the scenario cells only
};

struct TracedPass {
  std::size_t scenarios = 0;
  double wall_s = 0.0;
  Fingerprint fingerprint;
  TraceTally tally;
  std::string failure;
};

/// Set-up cost split: total plus the two parts the per-layer ledger names.
struct SetupTimes {
  double total_s = 0.0;
  double suite_build_s = 0.0;     ///< analysis::ProtocolSuite construction
  double pristine_build_s = 0.0;  ///< one cold per-worker routing-cache fill
};

class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual std::string_view name() const = 0;
  [[nodiscard]] virtual std::size_t scenarios_per_pass() const = 0;
  /// True when the sweep draws its scenarios from the pass seed, so each
  /// pass is a different sample; false when every pass repeats one sweep.
  [[nodiscard]] virtual bool sampled() const = 0;
  [[nodiscard]] virtual std::uint32_t default_ttl() const = 0;
  [[nodiscard]] virtual std::vector<std::string> protocol_names() const = 0;
  /// Workload-specific facts for the output (topology size, catalog size ...).
  [[nodiscard]] virtual std::vector<std::pair<std::string, double>> facts() const = 0;

  /// Gives every worker of `executor` its pristine routing tables, the way a
  /// sweep's first scenario would.
  virtual void warm(sim::SweepExecutor& executor) = 0;

  /// One untraced sweep through the library driver.
  [[nodiscard]] virtual PassResult run_pass(sim::SweepExecutor& executor,
                                            std::uint64_t pass_seed) = 0;

  /// The same sweep re-composed serially from public calls, spans into `log`.
  [[nodiscard]] virtual TracedPass trace_pass(std::uint64_t pass_seed, SpanLog& log) = 0;

  /// Checkpoint persists timed during run_pass calls (storm only): start/end
  /// and blob size, drained by the caller.
  struct Persist {
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::size_t bytes = 0;
  };
  [[nodiscard]] virtual std::vector<Persist> take_persists() { return {}; }

  /// Gives the workload an empty directory for the files its sweeps write
  /// (storm's checkpoint store).  Called once before the first pass, outside
  /// the timed set-up: a sweep's output files are not part of its set-up.
  virtual void open_scratch(const std::string& /*dir*/) {}

  [[nodiscard]] sim::SweepExecutor& serial() noexcept { return *serial_; }
  [[nodiscard]] sim::SweepExecutor& parallel() noexcept { return *parallel_; }
  [[nodiscard]] const SetupTimes& setup_times() const noexcept { return times_; }

 protected:
  friend std::unique_ptr<Workload> make_workload(std::string_view, std::uint64_t, Size,
                                                 std::size_t);

  /// Creates both executors and warms their caches; records the cold fill of
  /// the serial one as the pristine build time.  Call last in a constructor.
  void start_executors(std::size_t parallel_threads);

  SetupTimes times_;

 private:
  std::unique_ptr<sim::SweepExecutor> serial_;
  std::unique_ptr<sim::SweepExecutor> parallel_;
};

/// Builds the named workload from `seed`; throws std::invalid_argument on an
/// unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(std::string_view name,
                                                      std::uint64_t seed, Size size,
                                                      std::size_t parallel_threads);

[[nodiscard]] const std::vector<std::string>& workload_names();

}  // namespace perfbench
