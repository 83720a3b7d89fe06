#include "wear/wear_leveler.hpp"

#include <algorithm>

#include "common/bitops.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"

namespace nvmenc {

WearLeveler::Report WearLeveler::report() const {
  Report r;
  const std::vector<u64>& wear = physical_wear();
  if (wear.empty()) return r;
  u64 sum = 0;
  u64 max = 0;
  for (u64 w : wear) {
    sum += w;
    max = std::max(max, w);
  }
  r.mean_wear = static_cast<double>(sum) / static_cast<double>(wear.size());
  r.max_wear = static_cast<double>(max);
  r.uniformity = max == 0 ? 1.0 : r.mean_wear / r.max_wear;
  r.extra_writes = extra_writes();
  return r;
}

// ---------------------------------------------------------------- Ideal --

IdealWearLeveler::IdealWearLeveler(usize capacity_lines)
    : capacity_{capacity_lines} {
  require(capacity_ > 0, "wear leveler needs capacity");
}

usize IdealWearLeveler::map(u64 line_addr) const {
  return static_cast<usize>((line_addr / kLineBytes) % capacity_);
}

void IdealWearLeveler::on_write(u64, usize flips) { total_flips_ += flips; }

const std::vector<u64>& IdealWearLeveler::physical_wear() const {
  wear_.assign(capacity_, total_flips_ / capacity_);
  // Distribute the remainder so the total is preserved.
  const usize rem = static_cast<usize>(total_flips_ % capacity_);
  for (usize i = 0; i < rem; ++i) ++wear_[i];
  return wear_;
}

// ------------------------------------------------------------ Start-Gap --

StartGapLeveler::StartGapLeveler(usize capacity_lines, usize gap_interval,
                                 usize move_cost_flips)
    : capacity_{capacity_lines},
      gap_interval_{gap_interval},
      move_cost_{move_cost_flips},
      gap_{capacity_lines},  // gap starts at the spare slot (index N)
      wear_(capacity_lines + 1, 0) {
  require(capacity_ > 0, "wear leveler needs capacity");
  require(gap_interval_ > 0, "gap interval must be positive");
}

usize StartGapLeveler::map(u64 line_addr) const {
  const usize logical = static_cast<usize>((line_addr / kLineBytes) % capacity_);
  usize physical = (logical + start_) % capacity_;
  if (physical >= gap_) ++physical;  // skip the gap slot
  return physical;
}

void StartGapLeveler::move_gap() {
  // The gap swallows its predecessor slot: line at (gap - 1) moves into
  // the gap, costing one migration write.
  const usize src = (gap_ + capacity_) % (capacity_ + 1);  // gap - 1 mod N+1
  wear_[gap_] += move_cost_;
  ++extra_writes_;
  pending_moves_.push_back(gap_);
  gap_ = src;
  if (gap_ == capacity_) {
    // One full rotation of the gap advances Start (Qureshi et al., Fig. 5).
    start_ = (start_ + 1) % capacity_;
  }
}

void StartGapLeveler::on_write(u64 line_addr, usize flips) {
  wear_[map(line_addr)] += flips;
  if (++writes_since_move_ >= gap_interval_) {
    writes_since_move_ = 0;
    move_gap();
  }
}

void StartGapLeveler::drain_migrations(std::vector<usize>& out) {
  out.insert(out.end(), pending_moves_.begin(), pending_moves_.end());
  pending_moves_.clear();
}

// ---------------------------------------------------- Security Refresh --

SecurityRefreshLeveler::SecurityRefreshLeveler(usize capacity_lines,
                                               usize refresh_interval,
                                               usize move_cost_flips,
                                               u64 seed)
    : capacity_{capacity_lines},
      index_mask_{capacity_lines - 1},
      refresh_interval_{refresh_interval},
      move_cost_{move_cost_flips},
      rng_state_{seed},
      wear_(capacity_lines, 0) {
  require(is_pow2(capacity_), "Security Refresh region must be a power of 2");
  require(refresh_interval_ > 0, "refresh interval must be positive");
  SplitMix64 sm{seed};
  cur_key_ = static_cast<usize>(sm.next()) & index_mask_;
  next_key_ = static_cast<usize>(sm.next()) & index_mask_;
  rng_state_ = sm.next();
}

usize SecurityRefreshLeveler::index_of(u64 line_addr) const noexcept {
  return static_cast<usize>(line_addr / kLineBytes) & index_mask_;
}

usize SecurityRefreshLeveler::map(u64 line_addr) const {
  const usize logical = index_of(line_addr);
  // Re-keying swaps the two slots of a pair {i, i ^ cur ^ next} at once
  // (XOR remaps compose as involutions), so a pair is "swept" when its
  // smaller member is below the sweep pointer. Keeping pairs atomic keeps
  // the combined mapping bijective mid-round.
  const usize partner = logical ^ cur_key_ ^ next_key_;
  const usize representative = logical < partner ? logical : partner;
  return representative < sweep_ ? (logical ^ next_key_)
                                 : (logical ^ cur_key_);
}

void SecurityRefreshLeveler::migrate_step() {
  if (sweep_ >= capacity_) {
    // Round complete: the next key becomes current, draw a fresh one.
    cur_key_ = next_key_;
    SplitMix64 sm{rng_state_};
    next_key_ = static_cast<usize>(sm.next()) & index_mask_;
    rng_state_ = sm.next();
    sweep_ = 0;
    return;
  }
  const usize partner = sweep_ ^ cur_key_ ^ next_key_;
  if (sweep_ <= partner) {
    // Swap the pair's two physical slots: two line writes (one when the
    // pair is degenerate, i.e. the keys agree on this index).
    wear_[sweep_ ^ next_key_] += move_cost_;
    ++extra_writes_;
    pending_moves_.push_back(sweep_ ^ next_key_);
    if (partner != sweep_) {
      wear_[partner ^ next_key_] += move_cost_;
      ++extra_writes_;
      pending_moves_.push_back(partner ^ next_key_);
    }
  }
  ++sweep_;
}

void SecurityRefreshLeveler::drain_migrations(std::vector<usize>& out) {
  out.insert(out.end(), pending_moves_.begin(), pending_moves_.end());
  pending_moves_.clear();
}

void SecurityRefreshLeveler::on_write(u64 line_addr, usize flips) {
  wear_[map(line_addr)] += flips;
  if (++writes_since_step_ >= refresh_interval_) {
    writes_since_step_ = 0;
    migrate_step();
  }
}

// ------------------------------------------------------------ regioned --

RegionedLeveler::RegionedLeveler(usize capacity_lines, usize region_lines,
                                 Factory factory, u64 seed)
    : capacity_{capacity_lines}, region_lines_{region_lines} {
  require(is_pow2(capacity_) && is_pow2(region_lines_),
          "capacity and region size must be powers of two");
  require(region_lines_ <= capacity_, "region larger than capacity");
  require(static_cast<bool>(factory), "RegionedLeveler needs a factory");
  SplitMix64 sm{seed};
  mix_key_ = sm.next();
  mix_mul_ = sm.next() | 1;  // odd multipliers are bijective mod 2^k
  const usize regions = capacity_ / region_lines_;
  regions_.reserve(regions);
  for (usize r = 0; r < regions; ++r) {
    regions_.push_back(factory(region_lines_));
    require(regions_.back() != nullptr, "factory returned null leveler");
  }
}

usize RegionedLeveler::randomize(usize line_index) const noexcept {
  // Two rounds of multiply-xorshift, each step bijective on the k-bit
  // domain (odd multiply mod 2^k; xorshift-right is invertible).
  const u64 mask = capacity_ - 1;
  u64 x = (static_cast<u64>(line_index) ^ mix_key_) & mask;
  x = (x * mix_mul_) & mask;
  x ^= x >> 7;
  x = (x * mix_mul_) & mask;
  return static_cast<usize>(x);
}

usize RegionedLeveler::map(u64 line_addr) const {
  const usize mixed =
      randomize(static_cast<usize>(line_addr / kLineBytes) &
                (capacity_ - 1));
  const usize region = mixed / region_lines_;
  const usize inner =
      regions_[region]->map(static_cast<u64>(mixed % region_lines_) *
                            kLineBytes);
  return region * (region_lines_ + 1) + inner;  // +1: Start-Gap spare slot
}

void RegionedLeveler::on_write(u64 line_addr, usize flips) {
  const usize mixed =
      randomize(static_cast<usize>(line_addr / kLineBytes) &
                (capacity_ - 1));
  const usize region = mixed / region_lines_;
  regions_[region]->on_write(
      static_cast<u64>(mixed % region_lines_) * kLineBytes, flips);
}

const std::vector<u64>& RegionedLeveler::physical_wear() const {
  wear_.clear();
  for (const auto& region : regions_) {
    const std::vector<u64>& w = region->physical_wear();
    wear_.insert(wear_.end(), w.begin(), w.end());
  }
  return wear_;
}

u64 RegionedLeveler::extra_writes() const {
  u64 total = 0;
  for (const auto& region : regions_) total += region->extra_writes();
  return total;
}

}  // namespace nvmenc
