// Wear leveling.
//
// The paper converts flip reduction into lifetime improvement assuming
// near-perfect wear leveling is deployed underneath (Section 4.2.4, citing
// Start-Gap, Security Refresh and HWL). This module provides that
// substrate: the Start-Gap and Security Refresh algorithms as real
// line-remapping machines plus an ideal leveler, so the assumption itself
// can be validated (bench/paper_claims' wear-leveling section).
//
// A WearLeveler observes the write stream (line address, cell flips) the
// memory controller emits, maintains a logical-to-physical mapping over a
// fixed region, and tracks per-physical-slot wear.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/types.hpp"

namespace nvmenc {

class WearLeveler {
 public:
  virtual ~WearLeveler() = default;

  /// Physical slot currently backing `line_addr`.
  [[nodiscard]] virtual usize map(u64 line_addr) const = 0;

  /// Observes one write-back of `flips` cell flips to `line_addr`,
  /// possibly triggering remap activity.
  virtual void on_write(u64 line_addr, usize flips) = 0;

  /// Accumulated flips per physical slot (including remap traffic).
  [[nodiscard]] virtual const std::vector<u64>& physical_wear() const = 0;

  /// Writes issued by the leveler itself (line migrations).
  [[nodiscard]] virtual u64 extra_writes() const = 0;

  /// Appends the physical slots written by migrations since the last
  /// call, then forgets them. Levelers that never migrate append nothing.
  /// Lets a timing simulation charge each migration write to bank time,
  /// energy, and endurance as it happens (memsys/lifetime.hpp).
  virtual void drain_migrations(std::vector<usize>& out) { (void)out; }

  struct Report {
    double mean_wear = 0.0;
    double max_wear = 0.0;
    /// mean/max: 1.0 is perfect leveling; the figure of merit HWL-style
    /// papers report as "fraction of ideal lifetime".
    double uniformity = 0.0;
    u64 extra_writes = 0;
  };
  [[nodiscard]] Report report() const;
};

/// Perfectly uniform reference: every flip is spread over all slots.
class IdealWearLeveler final : public WearLeveler {
 public:
  explicit IdealWearLeveler(usize capacity_lines);

  [[nodiscard]] usize map(u64 line_addr) const override;
  void on_write(u64 line_addr, usize flips) override;
  [[nodiscard]] const std::vector<u64>& physical_wear() const override;
  [[nodiscard]] u64 extra_writes() const override { return 0; }

 private:
  usize capacity_;
  u64 total_flips_ = 0;
  mutable std::vector<u64> wear_;  // materialized lazily for reports
};

/// Start-Gap [Qureshi et al., MICRO'09]: N logical lines over N+1 physical
/// slots with a roaming gap; every `gap_interval` write-backs the gap moves
/// one slot, slowly rotating the whole address space.
class StartGapLeveler final : public WearLeveler {
 public:
  /// `move_cost_flips` is the wear charged to the destination slot when
  /// the gap movement copies a line (a full-line differential write; the
  /// default is half the line, the expected Hamming distance between
  /// unrelated lines).
  StartGapLeveler(usize capacity_lines, usize gap_interval = 100,
                  usize move_cost_flips = kLineBits / 2);

  [[nodiscard]] usize map(u64 line_addr) const override;
  void on_write(u64 line_addr, usize flips) override;
  [[nodiscard]] const std::vector<u64>& physical_wear() const override {
    return wear_;
  }
  [[nodiscard]] u64 extra_writes() const override { return extra_writes_; }
  void drain_migrations(std::vector<usize>& out) override;

  [[nodiscard]] usize gap() const noexcept { return gap_; }
  [[nodiscard]] usize start() const noexcept { return start_; }

 private:
  void move_gap();

  usize capacity_;
  usize gap_interval_;
  usize move_cost_;
  usize gap_;
  usize start_ = 0;
  u64 writes_since_move_ = 0;
  u64 extra_writes_ = 0;
  std::vector<usize> pending_moves_;  // migration dests since last drain
  std::vector<u64> wear_;  // capacity + 1 slots
};

/// Security Refresh [Seong et al., ISCA'10], single-level variant: the
/// region is remapped by XORing the line index with a key; a sweep pointer
/// migrates lines from the current key to the next, re-keying the whole
/// region once per refresh round.
class SecurityRefreshLeveler final : public WearLeveler {
 public:
  /// `refresh_interval`: writes between two migration steps (each step
  /// swaps one pair of lines).
  SecurityRefreshLeveler(usize capacity_lines, usize refresh_interval = 100,
                         usize move_cost_flips = kLineBits / 2,
                         u64 seed = 0x5ec5eedull);

  [[nodiscard]] usize map(u64 line_addr) const override;
  void on_write(u64 line_addr, usize flips) override;
  [[nodiscard]] const std::vector<u64>& physical_wear() const override {
    return wear_;
  }
  [[nodiscard]] u64 extra_writes() const override { return extra_writes_; }
  void drain_migrations(std::vector<usize>& out) override;

 private:
  void migrate_step();
  [[nodiscard]] usize index_of(u64 line_addr) const noexcept;

  usize capacity_;      // power of two
  usize index_mask_;
  usize refresh_interval_;
  usize move_cost_;
  usize cur_key_;
  usize next_key_;
  usize sweep_ = 0;  // lines below sweep_ use next_key_
  u64 writes_since_step_ = 0;
  u64 extra_writes_ = 0;
  u64 rng_state_;
  std::vector<usize> pending_moves_;  // migration dests since last drain
  std::vector<u64> wear_;
};

/// Region-based deployment wrapper, the structure the Start-Gap paper
/// itself prescribes: a *static address randomization* (a bijective
/// mix of the line index) spreads hot lines evenly over many small
/// regions, and an independent leveler instance rotates each region.
/// A single gap over a large memory would need N^2/psi writes to level;
/// randomization + small regions levels in O(R^2/psi) per region.
class RegionedLeveler final : public WearLeveler {
 public:
  using Factory = std::function<std::unique_ptr<WearLeveler>(usize lines)>;

  /// `capacity_lines` must be a power of two and a multiple of
  /// `region_lines` (also a power of two).
  RegionedLeveler(usize capacity_lines, usize region_lines, Factory factory,
                  u64 seed = 0x5eedull);

  [[nodiscard]] usize map(u64 line_addr) const override;
  void on_write(u64 line_addr, usize flips) override;
  [[nodiscard]] const std::vector<u64>& physical_wear() const override;
  [[nodiscard]] u64 extra_writes() const override;

  /// The static randomization: a bijection on [0, capacity).
  [[nodiscard]] usize randomize(usize line_index) const noexcept;

 private:
  usize capacity_;
  usize region_lines_;
  u64 mix_key_;
  u64 mix_mul_;
  std::vector<std::unique_ptr<WearLeveler>> regions_;
  mutable std::vector<u64> wear_;  // concatenated view, built on demand
};

/// Lifetime of the region in total write-backs until the first physical
/// slot accumulates `endurance_flips`, extrapolated linearly from the
/// observed wear distribution. Returns 0 when nothing was written.
[[nodiscard]] double estimate_lifetime_writes(const WearLeveler& leveler,
                                              u64 endurance_flips,
                                              u64 observed_writes);

}  // namespace nvmenc
