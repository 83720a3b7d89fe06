#include "sim/checkpoint.hpp"

#include <bit>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "sim/experiment.hpp"

namespace nvmenc {

namespace {

constexpr std::string_view kHeaderTag = "nvmenc-checkpoint";
constexpr std::string_view kVersion = "v1";

constexpr char kHexDigits[] = "0123456789abcdef";

std::string to_hex(u64 value) {
  char buf[16];
  for (usize i = 0; i < 16; ++i) {
    buf[15 - i] = kHexDigits[(value >> (4 * i)) & 0xf];
  }
  return std::string{buf, 16};
}

bool parse_hex(std::string_view token, u64& value) {
  if (token.empty() || token.size() > 16) return false;
  value = 0;
  for (const char c : token) {
    u64 digit = 0;
    if (c >= '0' && c <= '9') {
      digit = static_cast<u64>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      digit = static_cast<u64>(c - 'a') + 10;
    } else {
      return false;
    }
    value = value * 16 + digit;
  }
  return true;
}

/// Strings (benchmark names, error messages) may contain spaces and
/// newlines, so they travel hex-encoded under an "s" marker (which also
/// keeps the empty string a non-empty token).
std::string encode_string(std::string_view s) {
  std::string out;
  out.reserve(1 + 2 * s.size());
  out.push_back('s');
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    out.push_back(kHexDigits[byte >> 4]);
    out.push_back(kHexDigits[byte & 0xf]);
  }
  return out;
}

bool decode_string(std::string_view token, std::string& out) {
  if (token.empty() || token[0] != 's' || token.size() % 2 != 1) return false;
  out.clear();
  out.reserve((token.size() - 1) / 2);
  for (usize i = 1; i + 1 <= token.size(); i += 2) {
    u64 byte = 0;
    if (!parse_hex(token.substr(i, 2), byte)) return false;
    out.push_back(static_cast<char>(byte));
  }
  return true;
}

/// Token stream over one record line with typed, checked extraction.
class TokenReader {
 public:
  explicit TokenReader(std::string_view line) : in_{std::string{line}} {}

  bool next(std::string& token) { return static_cast<bool>(in_ >> token); }

  bool next_u64(u64& value) {
    std::string token;
    if (!next(token)) return false;
    return parse_hex(token, value);
  }

  bool next_usize(usize& value) {
    u64 v = 0;
    if (!next_u64(v)) return false;
    value = static_cast<usize>(v);
    return true;
  }

  bool next_double(double& value) {
    u64 bits = 0;
    if (!next_u64(bits)) return false;
    value = std::bit_cast<double>(bits);
    return true;
  }

  bool next_string(std::string& value) {
    std::string token;
    if (!next(token)) return false;
    return decode_string(token, value);
  }

  bool exhausted() {
    std::string token;
    return !next(token);
  }

 private:
  std::istringstream in_;
};

void put_u64(std::ostringstream& out, u64 value) {
  out << ' ' << to_hex(value);
}

void put_double(std::ostringstream& out, double value) {
  put_u64(out, std::bit_cast<u64>(value));
}

/// Serializes one completed cell to the checksummed record line (without
/// the trailing newline). Doubles travel as bit patterns, so a resumed
/// matrix is bit-identical, not merely close.
std::string serialize_cell(usize benchmark, usize scheme,
                           const ReplayResult& r) {
  std::ostringstream out;
  out << "cell";
  put_u64(out, benchmark);
  put_u64(out, scheme);
  out << ' ' << encode_string(r.benchmark) << ' ' << encode_string(r.scheme);
  put_u64(out, r.meta_bits);
  put_u64(out, r.device_flips);
  put_u64(out, r.error.has_value() ? 1 : 0);
  if (r.error) {
    out << ' ' << encode_string(r.error->phase) << ' '
        << encode_string(r.error->message);
  }
  const ControllerStats& st = r.stats;
  put_u64(out, st.demand_reads);
  put_u64(out, st.writebacks);
  put_u64(out, st.silent_writebacks);
  put_u64(out, st.flips.data);
  put_u64(out, st.flips.tag);
  put_u64(out, st.flips.flag);
  put_u64(out, st.flips.sets);
  put_u64(out, st.flips.resets);
  put_u64(out, st.dirty_words.max_value());
  for (usize v = 0; v <= st.dirty_words.max_value(); ++v) {
    put_u64(out, st.dirty_words.count(v));
  }
  put_u64(out, st.dirty_words.overflow());
  put_double(out, st.energy.read_pj);
  put_double(out, st.energy.write_pj);
  put_double(out, st.energy.logic_pj);
  put_double(out, st.energy.busy_ns);
  const ResilienceStats& res = st.resilience;
  put_u64(out, res.verified_writes);
  put_u64(out, res.write_retries);
  put_u64(out, res.retry_exhaustions);
  put_u64(out, res.safer_remaps);
  put_u64(out, res.line_retirements);
  put_u64(out, res.sdc_detected);
  put_u64(out, res.meta_corrected);
  put_u64(out, res.meta_uncorrectable);
  put_u64(out, res.check_flips);
  put_u64(out, res.atomic_log_flips);
  put_u64(out, res.recovery_scans);
  put_u64(out, res.recovered_clean);
  put_u64(out, res.rolled_forward);
  put_u64(out, res.rolled_back);
  put_u64(out, res.recovery_retired);

  std::string payload = out.str();
  payload += ' ';
  payload += to_hex(fnv64(payload.substr(0, payload.size() - 1)));
  return payload;
}

/// Parses one record line (checksum already verified). Returns false on
/// any structural mismatch — the caller treats the record as torn.
bool parse_cell(std::string_view payload, CheckpointCell& cell) {
  TokenReader in{payload};
  std::string tag;
  if (!in.next(tag) || tag != "cell") return false;
  ReplayResult r;
  if (!in.next_usize(cell.benchmark)) return false;
  if (!in.next_usize(cell.scheme)) return false;
  if (!in.next_string(r.benchmark)) return false;
  if (!in.next_string(r.scheme)) return false;
  if (!in.next_usize(r.meta_bits)) return false;
  if (!in.next_u64(r.device_flips)) return false;
  u64 has_error = 0;
  if (!in.next_u64(has_error) || has_error > 1) return false;
  if (has_error == 1) {
    CellError err;
    if (!in.next_string(err.phase)) return false;
    if (!in.next_string(err.message)) return false;
    r.error = std::move(err);
  }
  ControllerStats& st = r.stats;
  if (!in.next_u64(st.demand_reads)) return false;
  if (!in.next_u64(st.writebacks)) return false;
  if (!in.next_u64(st.silent_writebacks)) return false;
  if (!in.next_usize(st.flips.data)) return false;
  if (!in.next_usize(st.flips.tag)) return false;
  if (!in.next_usize(st.flips.flag)) return false;
  if (!in.next_usize(st.flips.sets)) return false;
  if (!in.next_usize(st.flips.resets)) return false;
  usize hist_max = 0;
  if (!in.next_usize(hist_max) || hist_max > 4096) return false;
  Histogram hist{hist_max};
  for (usize v = 0; v <= hist_max; ++v) {
    u64 count = 0;
    if (!in.next_u64(count)) return false;
    hist.add(v, count);
  }
  u64 overflow = 0;
  if (!in.next_u64(overflow)) return false;
  hist.add(hist_max + 1, overflow);
  st.dirty_words = hist;
  if (!in.next_double(st.energy.read_pj)) return false;
  if (!in.next_double(st.energy.write_pj)) return false;
  if (!in.next_double(st.energy.logic_pj)) return false;
  if (!in.next_double(st.energy.busy_ns)) return false;
  ResilienceStats& res = st.resilience;
  if (!in.next_u64(res.verified_writes)) return false;
  if (!in.next_u64(res.write_retries)) return false;
  if (!in.next_u64(res.retry_exhaustions)) return false;
  if (!in.next_u64(res.safer_remaps)) return false;
  if (!in.next_u64(res.line_retirements)) return false;
  if (!in.next_u64(res.sdc_detected)) return false;
  if (!in.next_u64(res.meta_corrected)) return false;
  if (!in.next_u64(res.meta_uncorrectable)) return false;
  if (!in.next_u64(res.check_flips)) return false;
  if (!in.next_u64(res.atomic_log_flips)) return false;
  if (!in.next_u64(res.recovery_scans)) return false;
  if (!in.next_u64(res.recovered_clean)) return false;
  if (!in.next_u64(res.rolled_forward)) return false;
  if (!in.next_u64(res.rolled_back)) return false;
  if (!in.next_u64(res.recovery_retired)) return false;
  if (!in.exhausted()) return false;
  cell.result = std::move(r);
  return true;
}

/// Splits "payload checksum" and verifies; empty return = torn record.
std::string_view checked_payload(std::string_view line) {
  const usize space = line.rfind(' ');
  if (space == std::string_view::npos) return {};
  u64 stored = 0;
  if (!parse_hex(line.substr(space + 1), stored)) return {};
  const std::string_view payload = line.substr(0, space);
  if (fnv64(payload) != stored) return {};
  return payload;
}

std::string header_line(u64 fingerprint) {
  std::string payload{kHeaderTag};
  payload += ' ';
  payload += kVersion;
  payload += ' ';
  payload += to_hex(fingerprint);
  payload += ' ';
  payload += to_hex(fnv64(payload.substr(0, payload.size() - 1)));
  return payload;
}

}  // namespace

std::string checkpoint_path(const std::string& dir) {
  return (std::filesystem::path{dir} / "matrix.ckpt").string();
}

u64 experiment_fingerprint(const std::vector<std::string>& benchmarks,
                           const std::vector<Scheme>& schemes,
                           const ExperimentConfig& config) {
  Fnv64 h;
  h.add_bytes("nvmenc-matrix-fingerprint-v1");
  h.add_u64(benchmarks.size());
  for (const std::string& name : benchmarks) {
    h.add_u64(name.size());
    h.add_bytes(name);
  }
  h.add_u64(schemes.size());
  for (const Scheme s : schemes) h.add_u64(static_cast<u64>(s));
  h.add_u64(config.seed);

  const CollectorConfig& c = config.collector;
  h.add_u64(c.caches.size());
  for (const CacheConfig& cache : c.caches) {
    h.add_u64(cache.name.size());
    h.add_bytes(cache.name);
    h.add_u64(cache.size_bytes);
    h.add_u64(cache.ways);
  }
  h.add_u64(c.warmup_accesses);
  h.add_u64(c.measured_accesses);
  h.add_u64(c.drain ? 1 : 0);

  const EnergyParams& e = config.energy;
  h.add_u64(std::bit_cast<u64>(e.set_pj));
  h.add_u64(std::bit_cast<u64>(e.reset_pj));
  h.add_u64(std::bit_cast<u64>(e.read_pj_per_bit));
  h.add_u64(std::bit_cast<u64>(e.encode_logic_pj));
  h.add_u64(std::bit_cast<u64>(e.read_latency_ns));
  h.add_u64(std::bit_cast<u64>(e.write_latency_ns));
  h.add_u64(std::bit_cast<u64>(e.encode_latency_ns));

  const FaultPlan& f = config.fault;
  h.add_u64(std::bit_cast<u64>(f.inject.write_fail_rate));
  h.add_u64(std::bit_cast<u64>(f.inject.read_disturb_rate));
  h.add_u64(std::bit_cast<u64>(f.inject.stuck_rate));
  h.add_u64(f.inject.seed);
  h.add_u64(f.retry_limit);
  h.add_u64(f.protect_meta ? 1 : 0);
  h.add_u64(f.force_verify ? 1 : 0);
  h.add_u64(f.atomic_writes ? 1 : 0);
  return h.value();
}

CheckpointLoad load_checkpoint(const std::string& path, u64 fingerprint) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    throw std::runtime_error{"checkpoint: cannot open '" + path + "'"};
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string content = buf.str();

  CheckpointLoad load;
  usize pos = 0;
  bool saw_header = false;
  while (pos < content.size()) {
    const usize nl = content.find('\n', pos);
    if (nl == std::string::npos) break;  // torn final record, no newline
    const std::string_view line{content.data() + pos, nl - pos};
    const std::string_view payload = checked_payload(line);
    if (!saw_header) {
      // The header is written in one small buffered put; a checkpoint
      // whose header is torn never recorded anything recoverable.
      if (payload.empty()) {
        throw std::runtime_error{"checkpoint: corrupt header in '" + path +
                                 "'"};
      }
      TokenReader head{payload};
      std::string tag;
      std::string version;
      u64 stored_fp = 0;
      if (!head.next(tag) || tag != kHeaderTag || !head.next(version)) {
        throw std::runtime_error{"checkpoint: not a checkpoint file: '" +
                                 path + "'"};
      }
      if (version != kVersion) {
        throw std::runtime_error{"checkpoint: unsupported format version '" +
                                 version + "' in '" + path + "'"};
      }
      if (!head.next_u64(stored_fp) || !head.exhausted()) {
        throw std::runtime_error{"checkpoint: corrupt header in '" + path +
                                 "'"};
      }
      if (stored_fp != fingerprint) {
        throw std::runtime_error{
            "checkpoint: '" + path +
            "' was written for a different experiment (fingerprint "
            "mismatch); refusing to resume"};
      }
      saw_header = true;
    } else {
      CheckpointCell cell;
      if (payload.empty() || !parse_cell(payload, cell)) break;
      load.cells.push_back(std::move(cell));
    }
    pos = nl + 1;
    load.valid_bytes = pos;
  }
  // Whatever trails the valid prefix was torn by a crash mid-append.
  for (usize p = pos; p < content.size(); ++p) {
    if (content[p] == '\n' || p + 1 == content.size()) ++load.torn_records;
  }
  return load;
}

CheckpointWriter::CheckpointWriter(CheckpointConfig config, u64 fingerprint,
                                   const CheckpointLoad* resumed)
    : config_{std::move(config)} {
  require(config_.enabled(), "CheckpointWriter needs a directory");
  if (config_.every == 0) config_.every = 1;
  std::filesystem::create_directories(config_.dir);
  const std::string path = checkpoint_path(config_.dir);
  if (resumed != nullptr) {
    // Drop the torn tail so appended records land on a clean prefix.
    std::filesystem::resize_file(path, resumed->valid_bytes);
    out_.open(path, std::ios::binary | std::ios::app);
    written_total_ = resumed->cells.size();
  } else {
    out_.open(path, std::ios::binary | std::ios::trunc);
    out_ << header_line(fingerprint) << '\n';
    out_.flush();
  }
  if (!out_) {
    throw std::runtime_error{"checkpoint: cannot write '" + path + "'"};
  }
}

CheckpointWriter::~CheckpointWriter() { flush(); }

void CheckpointWriter::record(usize benchmark, usize scheme,
                              const ReplayResult& result) {
  const std::string line = serialize_cell(benchmark, scheme, result);
  const std::scoped_lock lock{mutex_};
  out_ << line << '\n';
  ++pending_;
  ++written_total_;
  if (pending_ >= config_.every) flush_locked();
}

void CheckpointWriter::flush() {
  const std::scoped_lock lock{mutex_};
  flush_locked();
}

void CheckpointWriter::flush_locked() {
  if (pending_ == 0) return;
  out_.flush();
  pending_ = 0;
  if (config_.after_flush) config_.after_flush(written_total_);
}

}  // namespace nvmenc
