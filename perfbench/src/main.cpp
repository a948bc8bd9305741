// perfbench_driver: runs one benchmark workload in this process and prints
// one JSON object with the raw measurements; perfbench/run.py turns them
// into metrics and checks them.
//
//   perfbench_driver --workload NAME --seed N --seconds S --mode measure|trace
//                    [--size full|tiny] [--out-dir DIR]
//
// measure: set the workload up several times (timing each), then alternate
//          untraced 1-thread and N-thread passes of the library driver until
//          S seconds are used (at least one pair).
// trace:   the same set-up, then on pass 0 the untraced library driver, an
//          obs::Registry-attached run at 1 and at N threads, and the traced
//          serial re-composition; the spans go to DIR/<workload>-seed<N>.spans.jsonl.
//          Untraced pass pairs fill the rest of the S seconds.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/telemetry.hpp"
#include "sim/parallel_sweep.hpp"
#include "spans.hpp"
#include "workload.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_OBS_DISABLED
#define PERFBENCH_OBS_DISABLED 0
#endif

namespace {

using namespace perfbench;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  Size size = Size::kFull;
  std::string out_dir = ".";
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_driver: " << why << "\n"
            << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--mode measure|trace [--size full|tiny] [--out-dir DIR]\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(flag + " expects a value");
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = value;
      } else if (flag == "--seed") {
        a.seed = std::stoull(value);
        have_seed = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(value);
      } else if (flag == "--mode") {
        if (value != "measure" && value != "trace") usage("--mode must be measure or trace");
        a.trace = value == "trace";
      } else if (flag == "--size") {
        if (value != "full" && value != "tiny") usage("--size must be full or tiny");
        a.size = value == "full" ? Size::kFull : Size::kTiny;
      } else if (flag == "--out-dir") {
        a.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (a.workload.empty() || !have_seed || !(a.seconds > 0.0)) {
    usage("--workload, --seed and --seconds (> 0) are required");
  }
  return a;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string hex(std::uint64_t v) {
  std::ostringstream out;
  out << std::hex << v;
  return out.str();
}

std::size_t affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return 0;
  return static_cast<std::size_t>(CPU_COUNT(&set));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto begin = line.find_first_not_of(' ', colon + 1);
        return begin == std::string::npos ? "" : line.substr(begin);
      }
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux: kilobytes
}

/// Builds a JSON object one member at a time.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "{" : ",") << quoted(key) << ":" << json;
    first_ = false;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    std::ostringstream s;
    s.precision(17);
    s << v;
    return raw(key, s.str());
  }
  JsonObject& count(const std::string& key, std::uint64_t v) {
    return raw(key, std::to_string(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) { return raw(key, quoted(v)); }
  JsonObject& flag(const std::string& key, bool v) { return raw(key, v ? "true" : "false"); }
  [[nodiscard]] std::string done() const { return out_.str() + (first_ ? "{}" : "}"); }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string pass_json(const PassResult& r, std::size_t threads, std::size_t pass) {
  return JsonObject()
      .count("pass", pass)
      .count("threads", threads)
      .count("scenarios", r.scenarios)
      .count("errors", r.errors)
      .num("wall_s", r.wall_s)
      .str("digest", hex(r.fingerprint.digest()))
      .str("failure", r.failure)
      .done();
}

template <typename T, typename F>
std::string array(const std::vector<T>& items, F&& to_json) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ",") + to_json(items[i]);
  }
  return out + "]";
}

std::string counters_json(const pr::obs::Counters& c) {
  using pr::obs::Counter;
  return JsonObject()
      .count("forward_hops", c.get(Counter::kForwardHops))
      .count("cycle_follow_hops", c.get(Counter::kCycleFollowHops))
      .count("spf_tree_repairs", c.get(Counter::kSpfTreeRepairs))
      .count("route_cache_hits", c.get(Counter::kRouteCacheHits))
      .count("route_cache_rebuilds", c.get(Counter::kRouteCacheRebuilds))
      .done();
}

struct PassLog {
  std::vector<std::string> json;
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void add(const PassResult& r, std::size_t threads, std::size_t pass) {
    json.push_back(pass_json(r, threads, pass));
    attempted += r.scenarios;
    failed += r.errors;
  }
};

/// Alternating 1-thread / N-thread pass pairs until `deadline_ns`, at least
/// one pair; pass p sweeps with seed split_seed(seed, p).
void run_pairs(Workload& w, std::uint64_t seed, std::size_t first_pass,
               std::uint64_t deadline_ns, PassLog& log) {
  for (std::size_t p = first_pass; p == first_pass || now_ns() < deadline_ns; ++p) {
    const std::uint64_t pass_seed = pr::sim::split_seed(seed, p);
    log.add(w.run_pass(w.serial(), pass_seed), 1, p);
    log.add(w.run_pass(w.parallel(), pass_seed), w.parallel().thread_count(), p);
  }
}

/// The registry's total busy unit time over `threads` x `wall_s`.
double unit_busy_frac(const pr::obs::Registry& registry, std::size_t threads, double wall_s) {
  double busy_ns = 0.0;
  for (std::size_t w = 0; w < registry.worker_count(); ++w) {
    busy_ns += static_cast<double>(registry.worker(w).phase_nanos(pr::obs::Phase::kUnit));
  }
  const double capacity_ns = static_cast<double>(threads) * wall_s * 1e9;
  return capacity_ns > 0.0 ? busy_ns / capacity_ns : 0.0;
}

std::string tally_json(const TraceTally& t, const std::vector<std::string>& protocols) {
  JsonObject walk;
  for (std::size_t i = 0; i < t.walk.size(); ++i) {
    walk.raw(protocols.at(i), JsonObject()
                                  .count("flows", t.walk[i].flows)
                                  .count("hops", t.walk[i].hops)
                                  .count("delivered_hops", t.walk[i].delivered_hops)
                                  .count("ttl_expired", t.walk[i].ttl_expired)
                                  .done());
  }
  return JsonObject()
      .raw("walk", walk.done())
      .count("replay_adds", t.replay_adds)
      .count("probed_flows", t.probed_flows)
      .count("affected_flows", t.affected_flows)
      .count("cache_hits", t.cache_hits)
      .count("cache_rebuilds", t.cache_rebuilds)
      .raw("counters", counters_json(t.counters))
      .done();
}

/// The traced-run gates: the re-composition must reproduce the library
/// driver's output bit for bit and its obs counters exactly.
std::vector<std::string> fidelity_failures(const PassResult& lib, const PassResult& lib_n,
                                           const TracedPass& traced,
                                           const pr::obs::Counters& reg1,
                                           const pr::obs::Counters& reg_n) {
  using pr::obs::Counter;
  std::vector<std::string> out;
  for (const std::string& part : traced.fingerprint.differing(lib.fingerprint)) {
    out.push_back("traced re-composition differs from the library driver in " + part);
  }
  for (const std::string& part : lib_n.fingerprint.differing(lib.fingerprint)) {
    out.push_back("N-thread library run differs from the 1-thread run in " + part);
  }
  const auto same = [&](Counter c, const pr::obs::Counters& ref, const char* what) {
    if (traced.tally.counters.get(c) != ref.get(c)) {
      out.push_back(std::string(pr::obs::to_string(c)) + ": traced " +
                    std::to_string(traced.tally.counters.get(c)) + " vs " + what + " " +
                    std::to_string(ref.get(c)));
    }
  };
  same(Counter::kForwardHops, reg1, "1-thread registry run");
  same(Counter::kCycleFollowHops, reg1, "1-thread registry run");
  same(Counter::kSpfTreeRepairs, reg1, "1-thread registry run");
  // Which worker repairs which scenario depends on scheduling, so tree
  // repairs are only comparable against the 1-thread run; hop counts are
  // totals over the same walks at any thread count.
  same(Counter::kForwardHops, reg_n, "N-thread registry run");
  same(Counter::kCycleFollowHops, reg_n, "N-thread registry run");
  if (!traced.failure.empty()) out.push_back("traced pass: " + traced.failure);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const std::size_t cpus = affinity_cpus();
  const std::size_t par_threads = std::clamp<std::size_t>(cpus, 1, 4);
  std::filesystem::create_directories(args.out_dir);
  const std::string scratch = args.out_dir + "/scratch-" + std::to_string(::getpid());

  try {
    // Set-up, timed at least kMinSetups times and until kSetupBudgetS has
    // passed; the last instance is kept for the sweeps.
    constexpr std::size_t kMinSetups = 5;
    constexpr double kSetupBudgetS = 1.0;
    std::vector<SetupTimes> setups;
    std::unique_ptr<Workload> w;
    const std::uint64_t setup_start = now_ns();
    while (setups.size() < kMinSetups || seconds_since(setup_start) < kSetupBudgetS) {
      w.reset();
      w = make_workload(args.workload, args.seed, args.size, par_threads);
      setups.push_back(w->setup_times());
    }
    w->open_scratch(scratch);

    const std::uint64_t measure_start = now_ns();
    const auto deadline =
        measure_start + static_cast<std::uint64_t>(args.seconds * 1e9);
    PassLog passes;
    JsonObject trace;
    if (!args.trace) {
      run_pairs(*w, args.seed, 0, deadline, passes);
    } else {
      const std::uint64_t s0 = pr::sim::split_seed(args.seed, 0);
      const std::size_t n = w->parallel().thread_count();
      (void)w->take_persists();
      const PassResult lib = w->run_pass(w->serial(), s0);
      passes.add(lib, 1, 0);
      const std::vector<Workload::Persist> persists = w->take_persists();

      pr::obs::Registry reg1;
      PassResult lib_1;
      {
        // A fresh warm executor, so its cache history matches the traced
        // re-composition's.
        pr::sim::SweepExecutor fresh(1);
        w->warm(fresh);
        fresh.set_telemetry(pr::sim::SweepTelemetry{&reg1, nullptr, nullptr});
        lib_1 = w->run_pass(fresh, s0);
      }
      passes.add(lib_1, 1, 0);
      pr::obs::Registry reg_n;
      w->parallel().set_telemetry(pr::sim::SweepTelemetry{&reg_n, nullptr, nullptr});
      const PassResult lib_n = w->run_pass(w->parallel(), s0);
      w->parallel().set_telemetry(pr::sim::SweepTelemetry{});
      passes.add(lib_n, n, 0);
      (void)w->take_persists();

      SpanLog log;
      const TracedPass traced = w->trace_pass(s0, log);
      const std::uint32_t persist_name = log.intern("analysis.persist");
      for (const Workload::Persist& p : persists) {
        log.add_closed(persist_name, -1, p.start_ns, p.end_ns);
      }
      std::uint64_t checkpoint_bytes = 0;
      for (const Workload::Persist& p : persists) checkpoint_bytes += p.bytes;

      const std::string spans_path = args.out_dir + "/" + args.workload + "-seed" +
                                     std::to_string(args.seed) + ".spans.jsonl";
      {
        std::ofstream out(spans_path);
        log.write_jsonl(out);
        if (!out) throw std::runtime_error("cannot write " + spans_path);
      }
      const std::vector<std::string> fidelity = fidelity_failures(
          lib, lib_n, traced, reg1.aggregate(), reg_n.aggregate());

      run_pairs(*w, args.seed, 1, std::max(deadline, now_ns()), passes);

      trace.str("spans_path", spans_path)
          .count("traced_scenarios", traced.scenarios)
          .num("traced_wall_s", traced.wall_s)
          .num("untraced_wall_s", lib.wall_s)
          .num("unit_busy_frac", unit_busy_frac(reg_n, n, lib_n.wall_s))
          .count("persists", persists.size())
          .count("checkpoint_bytes", checkpoint_bytes)
          .raw("tally", tally_json(traced.tally, w->protocol_names()))
          .raw("registry_1", counters_json(reg1.aggregate()))
          .raw("registry_n", counters_json(reg_n.aggregate()))
          .raw("fidelity_failures",
               array(fidelity, [](const std::string& s) { return quoted(s); }));
    }

    JsonObject facts;
    for (const auto& [key, value] : w->facts()) facts.num(key, value);
    JsonObject out;
    out.str("workload", std::string(w->name()))
        .count("seed", args.seed)
        .str("size", args.size == Size::kFull ? "full" : "tiny")
        .str("mode", args.trace ? "trace" : "measure")
        .count("threads_par", w->parallel().thread_count())
        .count("scenarios_per_pass", w->scenarios_per_pass())
        .flag("sampled", w->sampled())
        .raw("protocols", array(w->protocol_names(),
                                [](const std::string& s) { return quoted(s); }))
        .raw("facts", facts.done())
        .raw("setups", array(setups,
                             [](const SetupTimes& t) {
                               return JsonObject()
                                   .num("total_s", t.total_s)
                                   .num("suite_build_s", t.suite_build_s)
                                   .num("pristine_build_s", t.pristine_build_s)
                                   .done();
                             }))
        .raw("passes", array(passes.json, [](const std::string& s) { return s; }))
        .count("attempted", passes.attempted)
        .count("failed", passes.failed)
        .num("peak_rss_mb", peak_rss_mb())
        .raw("provenance",
             JsonObject()
                 .count("hardware_concurrency", std::thread::hardware_concurrency())
                 .count("affinity_cpus", cpus)
                 .str("cpu_model", cpu_model())
                 .str("compiler", compiler())
                 .str("build_type", PERFBENCH_BUILD_TYPE)
                 .flag("pr_obs_disabled", PERFBENCH_OBS_DISABLED != 0)
                 .count("default_ttl", w->default_ttl())
                 .done());
    if (args.trace) out.raw("trace", trace.done());
    w.reset();
    std::error_code ignored;
    std::filesystem::remove_all(scratch, ignored);
    std::cout << out.done() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::error_code ignored;
    std::filesystem::remove_all(scratch, ignored);
    std::cerr << "perfbench_driver: " << e.what() << "\n";
    return 1;
  }
}
