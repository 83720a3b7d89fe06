#include "nvm/controller.hpp"

#include <algorithm>
#include <bit>
#include <optional>
#include <span>
#include <vector>

#include "common/checksum.hpp"
#include "common/error.hpp"
#include "fault/secded.hpp"

namespace nvmenc {

namespace {

/// Cells where two raw images disagree, in the combined index space the
/// fault layer uses ([0, 512) data, 512 + i for metadata cell i), with the
/// direction each cell must move to reach `want`.
struct CellDiff {
  std::vector<usize> cells;
  usize sets = 0;    ///< cells that must go 0 -> 1
  usize resets = 0;  ///< cells that must go 1 -> 0

  [[nodiscard]] bool clean() const noexcept { return cells.empty(); }
};

CellDiff diff_cells(const StoredLine& want, const StoredLine& have) {
  CellDiff d;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    u64 diff = want.data.word(w) ^ have.data.word(w);
    while (diff != 0) {
      const usize bit = w * 64 + static_cast<usize>(std::countr_zero(diff));
      diff &= diff - 1;
      d.cells.push_back(bit);
      want.data.bit(bit) ? ++d.sets : ++d.resets;
    }
  }
  // The target's metadata width governs: `have` cells beyond its modelled
  // width physically exist but are pristine zeros (a line whose metadata
  // grows when SECDED protection turns on mid-stream). This matches the
  // device's pulse accounting exactly.
  for (usize i = 0; i < want.meta.size(); ++i) {
    const bool target = want.meta.bit(i);
    const bool current = i < have.meta.size() ? have.meta.bit(i) : false;
    if (target != current) {
      d.cells.push_back(kLineBits + i);
      target ? ++d.sets : ++d.resets;
    }
  }
  return d;
}

/// Identifies a complete, unclear commit record ("NVMECMT1").
inline constexpr u64 kCommitMagic = 0x4e564d45434d5431ull;

/// Order- and width-faithful hash of a stored image: masked data words,
/// metadata width, masked metadata words.
u64 stored_image_hash(const StoredLine& image) {
  Fnv64 h;
  h.add_words(image.data.words());
  h.add_u64(image.meta.size());
  usize remaining = image.meta.size();
  const std::span<const u64> words = image.meta.words();
  for (usize i = 0; remaining > 0; ++i) {
    const usize chunk = remaining < 64 ? remaining : 64;
    h.add_u64(words[i] & low_mask(chunk));
    remaining -= chunk;
  }
  return h.value();
}

/// Self-checksum of a commit record's header words (0..3).
u64 record_checksum(const CacheLine& rec) {
  return Fnv64{}
      .add_u64(rec.word(0))
      .add_u64(rec.word(1))
      .add_u64(rec.word(2))
      .add_u64(rec.word(3))
      .value();
}

/// Parsed commit record. A record is `valid` only when its magic and
/// self-checksum are intact — a torn record write fails here and the
/// recovery scan rolls back. `dirty` distinguishes a torn record from a
/// cleanly cleared (all-zero) one for the scan's classification counters.
struct CommitRecord {
  bool valid = false;
  bool dirty = false;
  u64 target = 0;
  u64 image_hash = 0;
  usize meta_bits = 0;
};

CommitRecord parse_record(const StoredLine& rec) {
  CommitRecord r;
  for (usize w = 0; w < kWordsPerLine; ++w) {
    if (rec.data.word(w) != 0) {
      r.dirty = true;
      break;
    }
  }
  if (rec.data.word(0) != kCommitMagic) return r;
  if (rec.data.word(4) != record_checksum(rec.data)) return r;
  r.valid = true;
  r.target = rec.data.word(1);
  r.image_hash = rec.data.word(2);
  r.meta_bits = static_cast<usize>(rec.data.word(3));
  return r;
}

}  // namespace

MemoryController::MemoryController(ControllerConfig config, EncoderPtr encoder,
                                   NvmDevice& device, FaultContext* fault)
    : config_{config},
      encoder_{std::move(encoder)},
      device_{&device},
      fault_{fault},
      resilient_{config.verify.active()} {
  require(encoder_ != nullptr, "controller needs an encoder");
  require(config_.verify.retry_limit <= 16,
          "retry_limit > 16: the exponential pulse escalation is meaningless"
          " past 2^16x");
  if (resilient_ && fault_ == nullptr) {
    owned_fault_ = std::make_unique<FaultContext>(device);
    fault_ = owned_fault_.get();
  }
  if (config_.verify.protect_meta) {
    sensed_bits_ = kLineBits + secded_check_bits(encoder_->meta_bits());
  }
}

CacheLine MemoryController::read_line(u64 line_addr) {
  if (!resilient_) {
    const StoredLine& stored = device_->load(line_addr);
    const CacheLine line = encoder_->decode(stored);
    ++stats_.demand_reads;
    stats_.energy.add_read(config_.energy,
                           kLineBits);
    return line;
  }

  const u64 phys = resolve(line_addr);
  const StoredLine stored = decode_raw(phys, device_->load(phys));
  const CacheLine line = encoder_->decode(stored);
  ++stats_.demand_reads;
  stats_.energy.add_read(config_.energy, sensed_bits_);
  return line;
}

void MemoryController::write_line_plain(u64 line_addr,
                                        const CacheLine& data) {
  StoredLine stored = device_->load(line_addr);  // read-before-write copy
  const CacheLine old_logical = encoder_->decode(stored);
  const usize dirty_words = popcount(data.dirty_mask(old_logical));

  const FlipBreakdown fb = encoder_->encode(stored, data);
  device_->store(line_addr, stored, fb.total());

  ++stats_.writebacks;
  if (dirty_words == 0) ++stats_.silent_writebacks;
  stats_.dirty_words.add(dirty_words);
  stats_.flips += fb;
  // Silent write-backs bypass the encoder pipeline (no dirty words to
  // encode), so its logic energy is only charged on real encodes.
  stats_.energy.add_write(config_.energy, kLineBits, fb.sets, fb.resets,
                          config_.charge_encode_logic && dirty_words > 0);
}

void MemoryController::write_line(u64 line_addr, const CacheLine& data) {
  if (!resilient_) {
    write_line_plain(line_addr, data);
    return;
  }

  const u64 phys = resolve(line_addr);
  const StoredLine raw = device_->load(phys);  // read-before-write copy
  StoredLine stored = decode_raw(phys, raw);
  const CacheLine old_logical = encoder_->decode(stored);
  const usize dirty_words = popcount(data.dirty_mask(old_logical));

  const FlipBreakdown fb = encoder_->encode(stored, data);

  // Append (or refresh) the SECDED check cells; their flips are priced
  // into the write energy but kept out of the encoder flip breakdown the
  // scheme comparison reports — they are the protection's own cost.
  StoredLine image = stored;
  usize check_sets = 0;
  usize check_resets = 0;
  if (config_.verify.protect_meta) {
    image.meta = secded_protect(stored.meta);
    for (usize i = encoder_->meta_bits(); i < image.meta.size(); ++i) {
      const bool now = image.meta.bit(i);
      const bool before = i < raw.meta.size() ? raw.meta.bit(i) : false;
      if (now != before) now ? ++check_sets : ++check_resets;
    }
  }

  ++stats_.writebacks;
  if (dirty_words == 0) ++stats_.silent_writebacks;
  stats_.dirty_words.add(dirty_words);
  stats_.flips += fb;
  stats_.resilience.check_flips += check_sets + check_resets;
  stats_.energy.add_write(config_.energy, sensed_bits_, fb.sets + check_sets,
                          fb.resets + check_resets,
                          config_.charge_encode_logic && dirty_words > 0);

  const usize device_flips = fb.total() + check_sets + check_resets;
  if (config_.verify.atomic_writes) {
    // Commit protocol phases 1+2: persist the raw image the home store
    // should leave behind (SAFER inversions included), then the commit
    // record. The record names the *logical* line so a recovery that runs
    // after a mid-write retirement rolls forward onto wherever the line
    // lives now.
    log_begin(line_addr, expected_raw(phys, image));
  }
  if (config_.verify.program_and_verify) {
    store_verified(phys, line_addr, image, device_flips);
  } else if (!fault_->safer.store(phys, image, device_flips)) {
    retire(line_addr, image);
  }
  // Phase 4: the home image (wherever it ended up) is durable; retire the
  // commit record so recovery no longer replays this write.
  if (config_.verify.atomic_writes) log_clear();
}

u64 MemoryController::resolve(u64 line_addr) const {
  if (fault_ == nullptr || fault_->remap.empty()) return line_addr;
  const auto it = fault_->remap.find(line_addr);
  return it == fault_->remap.end() ? line_addr : it->second;
}

StoredLine MemoryController::decode_raw(u64 phys, const StoredLine& raw) {
  StoredLine stored;
  stored.data = fault_->safer.strip(phys, raw.data);
  const usize payload = encoder_->meta_bits();
  if (config_.verify.protect_meta && payload > 0 &&
      raw.meta.size() == payload + secded_check_bits(payload)) {
    SecdedMetaDecode decoded = secded_unprotect(raw.meta, payload);
    stats_.resilience.meta_corrected += decoded.corrected;
    stats_.resilience.meta_uncorrectable += decoded.uncorrectable;
    stored.meta = std::move(decoded.payload);
  } else {
    // Unprotected width: a pristine line from an initializer that does not
    // pre-protect. Passes through; the next write stores it protected.
    stored.meta = raw.meta;
  }
  return stored;
}

StoredLine MemoryController::expected_raw(u64 phys,
                                          const StoredLine& image) const {
  StoredLine expected = image;
  if (const SaferEncoding* enc = fault_->safer.encoding_of(phys)) {
    expected.data = fault_->safer.codec().apply(image.data, *enc);
  }
  return expected;
}

void MemoryController::store_verified(u64 phys, u64 logical,
                                      const StoredLine& image, usize flips) {
  ++stats_.resilience.verified_writes;
  if (!fault_->safer.store(phys, image, flips)) {
    retire(logical, image);
    return;
  }
  for (usize attempt = 0;; ++attempt) {
    // Verify read: sense the whole line and compare against the raw image
    // the store should have left (SAFER inversions included).
    const StoredLine expected = expected_raw(phys, image);
    const StoredLine readback = device_->load(phys);
    stats_.energy.add_read(config_.energy, sensed_bits_);
    const CellDiff diff = diff_cells(expected, readback);
    if (diff.clean()) return;
    if (attempt >= config_.verify.retry_limit) {
      escalate(phys, logical, image, readback);
      return;
    }
    // Re-program only the failed cells, escalating the pulse energy
    // exponentially (WIRE-style iterative programming).
    device_->store(phys, expected, diff.cells.size());
    stats_.energy.add_retry(config_.energy, diff.sets, diff.resets,
                            static_cast<double>(u64{1} << attempt));
    ++stats_.resilience.write_retries;
  }
}

void MemoryController::escalate(u64 phys, u64 logical,
                                const StoredLine& image,
                                const StoredLine& readback) {
  ++stats_.resilience.retry_exhaustions;
  // Cells still wrong after the retry budget are treated as hard stuck at
  // their read-back value. SAFER can absorb stuck *data* cells by
  // re-partitioning; a stuck metadata cell is outside its reach, so the
  // line retires immediately.
  const StoredLine expected = expected_raw(phys, image);
  const CellDiff diff = diff_cells(expected, readback);
  for (const usize cell : diff.cells) {
    if (cell >= kLineBits) {
      retire(logical, image);
      return;
    }
  }
  for (const usize cell : diff.cells) {
    fault_->safer.report_fault(phys, cell, readback.data.bit(cell));
  }
  if (!fault_->safer.store(phys, image, diff.cells.size())) {
    retire(logical, image);
    return;
  }
  // One confirmation read: the re-partition must reproduce the image.
  const StoredLine confirm = device_->load(phys);
  stats_.energy.add_read(config_.energy, sensed_bits_);
  if (diff_cells(expected_raw(phys, image), confirm).clean()) {
    ++stats_.resilience.safer_remaps;
  } else {
    retire(logical, image);
  }
}

usize MemoryController::program_log(u64 addr, const StoredLine& want) {
  const StoredLine have = device_->load(addr);  // copy: store mutates it
  const CellDiff diff = diff_cells(want, have);
  device_->store(addr, want, diff.cells.size());
  stats_.resilience.atomic_log_flips += diff.cells.size();
  stats_.energy.add_write(config_.energy, sensed_bits_, diff.sets, diff.resets,
                          false);
  return diff.cells.size();
}

void MemoryController::log_begin(u64 target, const StoredLine& raw) {
  program_log(kLogImageAddr, raw);
  StoredLine rec;
  rec.data.set_word(0, kCommitMagic);
  rec.data.set_word(1, target);
  rec.data.set_word(2, stored_image_hash(raw));
  rec.data.set_word(3, raw.meta.size());
  rec.data.set_word(4, record_checksum(rec.data));
  program_log(kLogRecordAddr, rec);
}

void MemoryController::log_clear() {
  program_log(kLogRecordAddr, StoredLine{});
}

void MemoryController::recover() {
  require(resilient_, "recover() requires an active resilience policy");
  ++stats_.resilience.recovery_scans;

  // Read the redo log first: a structurally valid record whose hash covers
  // the logged image marks a committed write whose home store may be torn.
  std::optional<u64> pending_phys;
  StoredLine pending_image;
  if (config_.verify.atomic_writes) {
    const StoredLine rec = device_->load(kLogRecordAddr);
    stats_.energy.add_read(config_.energy, sensed_bits_);
    const CommitRecord record = parse_record(rec);
    if (record.valid) {
      const StoredLine log = device_->load(kLogImageAddr);
      stats_.energy.add_read(config_.energy, sensed_bits_);
      if (log.meta.size() == record.meta_bits &&
          stored_image_hash(log) == record.image_hash) {
        pending_phys = resolve(record.target);
        pending_image = log;
      } else {
        // A complete record over a torn log image can only mean the record
        // cells happened to program before the image finished — the home
        // line was never touched, so the old image stands.
        ++stats_.resilience.rolled_back;
      }
    } else if (record.dirty) {
      // Torn record (or torn clear): either the home line was never
      // touched (old image stands) or the home store completed and only
      // the clear was cut — both are consistent states; discard the log.
      ++stats_.resilience.rolled_back;
    }
  }

  // Reverse remap: which logical line a live spare backs.
  std::unordered_map<u64, u64> logical_of;
  for (const auto& [logical, spare] : fault_->remap) logical_of[spare] = logical;

  const usize payload = encoder_->meta_bits();
  for (const u64 addr : device_->line_addrs()) {
    if (addr == kLogImageAddr || addr == kLogRecordAddr) continue;
    // Stale storage is not live state: a home line whose data moved to a
    // spare, or a spare abandoned by a later re-retirement.
    if (fault_->remap.find(addr) != fault_->remap.end()) continue;
    if (addr >= kSpareRegionBase &&
        logical_of.find(addr) == logical_of.end()) {
      continue;
    }
    // The pending roll-forward target is repaired wholesale below.
    if (pending_phys && addr == *pending_phys) continue;

    if (config_.verify.protect_meta && payload > 0) {
      const StoredLine raw = device_->load(addr);
      stats_.energy.add_read(config_.energy, sensed_bits_);
      if (raw.meta.size() == payload + secded_check_bits(payload)) {
        SecdedMetaDecode decoded = secded_unprotect(raw.meta, payload);
        stats_.resilience.meta_corrected += decoded.corrected;
        stats_.resilience.meta_uncorrectable += decoded.uncorrectable;
        if (decoded.uncorrectable > 0) {
          // Double error and no committed log covers this line: the
          // metadata cannot be reconstructed. Escalate — retire the line
          // with its best-effort decode — rather than pretend the
          // "correction" is sound.
          ++stats_.resilience.recovery_retired;
          const auto it = logical_of.find(addr);
          const u64 logical = it == logical_of.end() ? addr : it->second;
          StoredLine best;
          best.data = fault_->safer.strip(addr, raw.data);
          best.meta = secded_protect(decoded.payload);
          retire(logical, best);
          continue;
        }
        if (decoded.corrected > 0) {
          // Scrub the corrected cells back so the next disturbance does
          // not stack into a double error.
          StoredLine fixed = raw;
          fixed.meta = secded_protect(decoded.payload);
          const CellDiff diff = diff_cells(fixed, raw);
          device_->store(addr, fixed, diff.cells.size());
          stats_.energy.add_write(config_.energy, sensed_bits_, diff.sets,
                                  diff.resets, false);
        }
      }
      // Unprotected width = pristine, never stored by this controller.
    }
    ++stats_.resilience.recovered_clean;
  }

  if (pending_phys) {
    // Roll forward: replay the committed raw image onto the home line,
    // then clear the record. Re-running this scan after another cut in
    // either store lands back here — the protocol is idempotent.
    const StoredLine have = device_->load(*pending_phys);
    stats_.energy.add_read(config_.energy, sensed_bits_);
    const CellDiff diff = diff_cells(pending_image, have);
    device_->store(*pending_phys, pending_image, diff.cells.size());
    stats_.energy.add_write(config_.energy, sensed_bits_, diff.sets,
                            diff.resets, false);
    ++stats_.resilience.rolled_forward;
  }
  if (config_.verify.atomic_writes) log_clear();
}

void MemoryController::retire(u64 logical, const StoredLine& image) {
  ++stats_.resilience.line_retirements;
  const u64 spare = kSpareRegionBase + fault_->spares_used * kLineBytes;
  ++fault_->spares_used;
  fault_->remap[logical] = spare;

  // Price the copy as a differential write against the pristine spare.
  const StoredLine pristine = device_->load(spare);
  const CellDiff diff = diff_cells(image, pristine);
  device_->store(spare, image, diff.cells.size());
  stats_.energy.add_write(config_.energy, sensed_bits_, diff.sets,
                          diff.resets, false);

  // Verify the spare once; a mismatch here means the data the caller
  // believes is stored is not — a detected silent-data-corruption event.
  const StoredLine& confirm = device_->load(spare);
  stats_.energy.add_read(config_.energy, sensed_bits_);
  if (!diff_cells(image, confirm).clean()) ++stats_.resilience.sdc_detected;
}

}  // namespace nvmenc
