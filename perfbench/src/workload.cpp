#include "workload.hpp"

#include <bit>
#include <latch>
#include <stdexcept>

#include "workloads.hpp"

namespace perfbench {

void Hasher::real(double v) noexcept { word(std::bit_cast<std::uint64_t>(v)); }

std::uint64_t Fingerprint::digest() const noexcept {
  Hasher h;
  for (const auto& [name, value] : parts) {
    for (const char c : name) h.word(static_cast<unsigned char>(c));
    h.word(value);
  }
  return h.value();
}

std::vector<std::string> Fingerprint::differing(const Fingerprint& other) const {
  std::vector<std::string> out;
  if (parts.size() != other.parts.size()) {
    out.emplace_back("part count " + std::to_string(parts.size()) + " vs " +
                     std::to_string(other.parts.size()));
    return out;
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (parts[i] != other.parts[i]) out.push_back(parts[i].first);
  }
  return out;
}

void Workload::start_executors(std::size_t parallel_threads) {
  serial_ = std::make_unique<sim::SweepExecutor>(1);
  parallel_ = std::make_unique<sim::SweepExecutor>(parallel_threads);
  const std::uint64_t t0 = now_ns();
  warm(*serial_);
  times_.pristine_build_s = seconds_since(t0);
  warm(*parallel_);
}

void warm_each_worker(sim::SweepExecutor& executor,
                      const std::function<void(sim::WorkerContext&)>& fill) {
  // One unit per worker: a unit blocks until every worker holds one, so no
  // worker can claim a second and each cache is filled exactly once.
  std::latch all_claimed(static_cast<std::ptrdiff_t>(executor.thread_count()));
  executor.run(executor.thread_count(), [&](std::size_t, sim::WorkerContext& ctx) {
    all_claimed.arrive_and_wait();
    fill(ctx);
  });
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"storm-geant", "dual-link-geant",
                                                 "backbone-isp1024"};
  return names;
}

std::unique_ptr<Workload> make_workload(std::string_view name, std::uint64_t seed,
                                        Size size, std::size_t parallel_threads) {
  const std::uint64_t t0 = now_ns();
  std::unique_ptr<Workload> w;
  if (name == "storm-geant") {
    w = make_storm_geant(seed, size, parallel_threads);
  } else if (name == "dual-link-geant") {
    w = make_dual_link_geant(seed, size, parallel_threads);
  } else if (name == "backbone-isp1024") {
    w = make_backbone_isp1024(seed, size, parallel_threads);
  } else {
    throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
  }
  w->times_.total_s = seconds_since(t0);
  return w;
}

}  // namespace perfbench
