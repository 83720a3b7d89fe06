// In-memory span recorder for the traced run.
//
// Spans are recorded from the benchmark's own files, around the calls it
// makes into each library layer; the library itself is not instrumented.
// Each span has a name, its layer, start and end, the id of the span that
// was open when it began (its parent), and a request id naming the unit of
// work it belongs to (workload/rep/cell or epoch). Hot calls that happen
// millions of times (Encoder::encode, ChannelShard::submit/step_until) are
// not spans: a CallTimer aggregates them into a count and a total that are
// attached to the enclosing span as arguments.
//
// Spans stay in memory and are written once, at exit, in Chrome
// trace-event format (load the file in chrome://tracing or Perfetto).
#pragma once

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hpp"

namespace nvmenc::bench {

/// Count and total host time of one hot call site.
struct CallTimer {
  u64 calls = 0;
  double total_ns = 0.0;

  template <typename F>
  decltype(auto) time(F&& f) {
    const auto t0 = std::chrono::steady_clock::now();
    struct Stop {
      CallTimer& timer;
      std::chrono::steady_clock::time_point t0;
      ~Stop() {
        timer.total_ns += std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
        ++timer.calls;
      }
    } stop{*this, t0};
    return f();
  }

  /// What the two clock reads of one timed call add inside its own
  /// interval: the median of many empty timed intervals, measured once.
  [[nodiscard]] static double floor_ns();

  /// total_ns minus the timer's own floor on every call.
  [[nodiscard]] double net_ns() const {
    return std::max(0.0, total_ns - static_cast<double>(calls) * floor_ns());
  }
  [[nodiscard]] double ns_per_call() const {
    return calls == 0 ? 0.0 : net_ns() / static_cast<double>(calls);
  }
};

class Tracer {
 public:
  struct Span {
    u64 id = 0;
    u64 parent = 0;  ///< 0 = root
    std::string name;
    std::string layer;
    std::string request;
    double start_ns = 0.0;  ///< since the tracer was created
    double end_ns = 0.0;
    std::vector<std::pair<std::string, double>> args;

    [[nodiscard]] double duration_ns() const noexcept {
      return end_ns - start_ns;
    }
  };

  Tracer();

  /// Opens a span as a child of the innermost open span; returns its id.
  u64 begin(std::string name, std::string layer, std::string request);
  /// Closes the innermost open span, which must be `id`.
  void end(u64 id);
  /// Runs `f(span_id)` inside a new span and returns the span's duration
  /// in ns.
  template <typename F>
  double run(std::string name, std::string layer, std::string request,
             F&& f) {
    const u64 id = begin(std::move(name), std::move(layer),
                         std::move(request));
    f(id);
    end(id);
    return span(id).duration_ns();
  }
  /// Attaches a numeric argument (e.g. a CallTimer's count and total).
  void arg(u64 id, std::string key, double value);
  void args(u64 id, const std::string& prefix, const CallTimer& timer);

  [[nodiscard]] const Span& span(u64 id) const { return spans_.at(id - 1); }
  /// Duration of span `id` minus the time its child spans cover.
  [[nodiscard]] double self_ns(u64 id) const;

  /// Writes every span in Chrome trace-event format; throws on I/O error.
  void write_chrome(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<u64> open_;
};

}  // namespace nvmenc::bench
