#include "tracer.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "json.hpp"

namespace nvmenc::bench {

double CallTimer::floor_ns() {
  static const double floor = [] {
    std::vector<double> empty(4096);
    for (double& d : empty) {
      const auto t0 = std::chrono::steady_clock::now();
      d = std::chrono::duration<double, std::nano>(
              std::chrono::steady_clock::now() - t0)
              .count();
    }
    std::nth_element(empty.begin(), empty.begin() + 2048, empty.end());
    return empty[2048];
  }();
  return floor;
}

Tracer::Tracer() : origin_{std::chrono::steady_clock::now()} {}

u64 Tracer::begin(std::string name, std::string layer, std::string request) {
  Span span;
  span.id = spans_.size() + 1;
  span.parent = open_.empty() ? 0 : open_.back();
  span.name = std::move(name);
  span.layer = std::move(layer);
  span.request = std::move(request);
  span.start_ns = std::chrono::duration<double, std::nano>(
                      std::chrono::steady_clock::now() - origin_)
                      .count();
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::end(u64 id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error{"tracer: spans must close innermost first"};
  }
  open_.pop_back();
  spans_[id - 1].end_ns = std::chrono::duration<double, std::nano>(
                              std::chrono::steady_clock::now() - origin_)
                              .count();
}

void Tracer::arg(u64 id, std::string key, double value) {
  spans_.at(id - 1).args.emplace_back(std::move(key), value);
}

void Tracer::args(u64 id, const std::string& prefix, const CallTimer& timer) {
  arg(id, prefix + ".calls", static_cast<double>(timer.calls));
  arg(id, prefix + ".total_ns", timer.total_ns);
}

double Tracer::self_ns(u64 id) const {
  // Children of one span never overlap (the recorder is single-threaded
  // and strictly nested), so their union is their sum.
  const Span& s = span(id);
  double children = 0.0;
  for (const Span& c : spans_) {
    if (c.parent == id) children += c.duration_ns();
  }
  return s.duration_ns() - children;
}

void Tracer::write_chrome(const std::string& path) const {
  std::ofstream out{path};
  if (!out) throw std::runtime_error{"cannot write trace file " + path};
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  for (usize i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "  {\"name\": " << json_quote(s.name)
        << ", \"cat\": " << json_quote(s.layer)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": 1"
        << ", \"ts\": " << json_number(s.start_ns / 1e3)
        << ", \"dur\": " << json_number(s.duration_ns() / 1e3)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"request\": " << json_quote(s.request)
        << ", \"self_ns\": " << json_number(self_ns(s.id));
    for (const auto& [key, value] : s.args) {
      out << ", " << json_quote(key) << ": " << json_number(value);
    }
    out << "}}" << (i + 1 < spans_.size() ? ",\n" : "\n");
  }
  out << "]}\n";
  out.close();
  if (!out) throw std::runtime_error{"error writing trace file " + path};
}

}  // namespace nvmenc::bench
