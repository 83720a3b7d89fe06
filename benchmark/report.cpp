#include "report.hpp"

#include <algorithm>
#include <iostream>
#include <stdexcept>

#include "json.hpp"

namespace nvmenc::bench {

double Metric::value() const { return median(samples); }

void Report::param(const std::string& key, double value) {
  param(key, json_number(value));
}

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cerr << workload_ << ": CHECK FAILED: " << what << "\n";
  }
}

void Report::add(std::string name, std::string unit, bool higher_better,
                 MetricKind kind, std::vector<double> samples,
                 std::string note) {
  metrics_.push_back(Metric{std::move(name), std::move(unit), higher_better,
                            kind, std::move(samples), std::move(note)});
}

const Metric* Report::find(const std::string& name) const {
  for (const Metric& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument{"median of no samples"};
  std::sort(values.begin(), values.end());
  const usize n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::pair<double, double> quartiles(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument{"quartiles of no samples"};
  std::sort(values.begin(), values.end());
  const usize ld = values.size();
  if (ld == 1) return {values[0], values[0]};
  // statistics.quantiles(method="exclusive"), n = 4, points i = 1 and 3.
  auto point = [&](usize i) {
    const usize m = ld + 1;
    usize j = i * m / 4;
    j = std::clamp<usize>(j, 1, ld - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  };
  return {point(1), point(3)};
}

std::vector<double> rates(double ops, const std::vector<double>& seconds) {
  std::vector<double> out;
  for (const double s : seconds) out.push_back(ops / s);
  return out;
}

void layer_ns_per_op(Report& report,
                     const std::vector<std::pair<std::string, double>>& ns) {
  for (const char* layer : kLayers) {
    double value = 0.0;
    for (const auto& [name, v] : ns) {
      if (name == layer) value = v;
    }
    report.layer(std::string{layer} + ".ns_per_op", "ns", value);
  }
}

}  // namespace nvmenc::bench
