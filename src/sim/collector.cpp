#include "sim/collector.hpp"

namespace nvmenc {

namespace {

/// Flat line-image backend: serves fills from (initial image + applied
/// write-backs) and records evictions.
class CollectingBackend final : public LineBackend {
 public:
  explicit CollectingBackend(const WorkloadGenerator& workload)
      : workload_{&workload} {}

  CacheLine read_line(u64 line_addr) override {
    ++reads_;
    if (requests_ != nullptr) requests_->push_back({line_addr, false});
    const auto it = image_.find(line_addr);
    return it != image_.end() ? it->second : workload_->initial_line(line_addr);
  }

  void write_line(u64 line_addr, const CacheLine& data) override {
    image_[line_addr] = data;
    if (sink_ != nullptr) sink_->push_back({line_addr, data});
    if (requests_ != nullptr) requests_->push_back({line_addr, true});
  }

  void set_sink(std::vector<WriteBack>* sink) noexcept { sink_ = sink; }
  void set_request_log(std::vector<MemRequest>* log) noexcept {
    requests_ = log;
  }
  void reset_reads() noexcept { reads_ = 0; }
  [[nodiscard]] u64 reads() const noexcept { return reads_; }

 private:
  const WorkloadGenerator* workload_;
  std::unordered_map<u64, CacheLine> image_;
  std::vector<WriteBack>* sink_ = nullptr;
  std::vector<MemRequest>* requests_ = nullptr;
  u64 reads_ = 0;
};

}  // namespace

WritebackTrace collect_writebacks(WorkloadGenerator& workload,
                                  const CollectorConfig& config) {
  WritebackTrace trace;
  trace.benchmark = workload.name();
  CollectingBackend backend{workload};
  CacheHierarchy hierarchy{config.caches, backend};

  backend.set_sink(&trace.warmup);
  for (u64 i = 0; i < config.warmup_accesses; ++i) {
    hierarchy.access(workload.next());
  }

  backend.set_sink(&trace.measured);
  if (config.record_requests) backend.set_request_log(&trace.requests);
  backend.reset_reads();
  for (u64 i = 0; i < config.measured_accesses; ++i) {
    hierarchy.access(workload.next());
  }
  if (config.drain) hierarchy.flush();
  trace.demand_reads = backend.reads();
  backend.set_sink(nullptr);
  backend.set_request_log(nullptr);

  // A raw pointer, not a copy: the workload must outlive the trace.
  const WorkloadGenerator* wl = &workload;
  trace.initial_line = [wl](u64 addr) { return wl->initial_line(addr); };
  return trace;
}

}  // namespace nvmenc
