// In-memory span log for the traced run.
//
// Every span is recorded by the benchmark around its own call into a src/
// module: name, start, end, the enclosing span (parent) and the scenario it
// belongs to.  Spans stay in memory while the traced pass runs and are
// written out as JSON lines once it is over, so the file write never sits
// inside a timed interval.
#pragma once

#include <chrono>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

[[nodiscard]] inline double seconds_since(std::uint64_t start_ns) noexcept {
  return static_cast<double>(now_ns() - start_ns) / 1e9;
}

struct Span {
  std::uint32_t name = 0;     ///< interned name (SpanLog::intern)
  std::int32_t parent = -1;   ///< index of the enclosing span, -1 at top level
  std::int64_t scenario = -1; ///< scenario id, -1 outside any scenario
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class SpanLog {
 public:
  /// Interns a span name once, before the hot loop.
  [[nodiscard]] std::uint32_t intern(std::string_view name) {
    for (std::size_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return static_cast<std::uint32_t>(i);
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  /// Reserve up front: a reallocation inside a timed span would be charged
  /// to whatever layer happened to be open.
  void reserve(std::size_t spans) { spans_.reserve(spans); }

  /// RAII span: opens on construction under the currently open span, closes
  /// on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, std::uint32_t name, std::int64_t scenario)
        : log_(&log), index_(log.open(name, scenario)) {}
    ~Scope() { log_->close(index_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    std::size_t index_;
  };

  /// Records an already-timed interval under the currently open span (used
  /// for intervals measured on another thread, such as checkpoint persists).
  void add_closed(std::uint32_t name, std::int64_t scenario, std::uint64_t start_ns,
                  std::uint64_t end_ns) {
    spans_.push_back(Span{name, current_, scenario, start_ns, end_ns});
  }

  [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

  /// One JSON object per line:
  /// {"id":3,"parent":0,"name":"sim.walk.pr","scenario":17,"start_ns":..,"end_ns":..}
  void write_jsonl(std::ostream& out) const {
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"id\":" << i << ",\"parent\":" << s.parent << ",\"name\":\""
          << names_[s.name] << "\",\"scenario\":" << s.scenario
          << ",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns << "}\n";
    }
  }

 private:
  std::size_t open(std::uint32_t name, std::int64_t scenario) {
    spans_.push_back(Span{name, current_, scenario, 0, 0});
    const std::size_t index = spans_.size() - 1;
    current_ = static_cast<std::int32_t>(index);
    spans_[index].start_ns = now_ns();
    return index;
  }

  void close(std::size_t index) {
    spans_[index].end_ns = now_ns();
    current_ = spans_[index].parent;
  }

  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::int32_t current_ = -1;
};

}  // namespace perfbench
