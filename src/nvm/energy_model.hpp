// PCM energy and latency model.
//
// Architectural-level accounting in the NVMain style: energy is a linear
// function of per-bit events. Cell-write energies follow the PCM numbers of
// Lee et al. [ISCA'09] (asymmetric SET/RESET, ~20 pJ per written cell as
// the paper quotes); the encoder-logic energy and latency are the paper's
// own synthesis results (Section 3.4.2: 81.65 pJ per encode, 3.47 ns at
// 22nm, 171 K gates). Timing follows Table 2 (read 100 ns, write 150 ns),
// the same constants the memory system's banks use (nvm/timing.hpp).
#pragma once

#include "common/types.hpp"
#include "encoding/encoder.hpp"
#include "nvm/timing.hpp"

namespace nvmenc {

struct EnergyParams {
  double set_pj = 13.5;    ///< energy of a 0 -> 1 cell transition
  double reset_pj = 19.2;  ///< energy of a 1 -> 0 cell transition
  /// Array sensing energy. The paper treats read energy as identical
  /// across the seven schemes (Section 4.2.2: "the energy consumption of
  /// other operations such as reads is the same"), so reads are charged
  /// for the 512 data bits only — metadata sensing is excluded by design.
  double read_pj_per_bit = 0.2;
  /// Per encoded line write (paper §3.4.2). Decode logic is negligible
  /// (§3.4.2), so reads charge no logic energy.
  double encode_logic_pj = 81.65;

  double read_latency_ns = kReadNs;    ///< Table 2
  double write_latency_ns = kWriteNs;  ///< Table 2
  double encode_latency_ns = 3.47;  ///< paper §3.4.2, scaled to 22nm
};

/// Running energy/latency totals for one memory controller.
struct EnergyLedger {
  double read_pj = 0.0;
  double write_pj = 0.0;
  double logic_pj = 0.0;
  double busy_ns = 0.0;

  [[nodiscard]] double total_pj() const noexcept {
    return read_pj + write_pj + logic_pj;
  }

  /// A line read: all data + metadata cells are sensed, then decoded.
  void add_read(const EnergyParams& p, usize bits_sensed) noexcept {
    add_reads(p, bits_sensed, 1);
  }

  /// `count` identical line reads at once.
  void add_reads(const EnergyParams& p, usize bits_sensed,
                 u64 count) noexcept {
    const double n = static_cast<double>(count);
    read_pj += n * static_cast<double>(bits_sensed) * p.read_pj_per_bit;
    busy_ns += n * p.read_latency_ns;
  }

  /// An encoded line write: read-before-write of the stored image, the
  /// encoder pass, then the differential cell writes.
  void add_write(const EnergyParams& p, usize bits_sensed, usize sets,
                 usize resets, bool encoded) noexcept {
    read_pj += static_cast<double>(bits_sensed) * p.read_pj_per_bit;
    write_pj += static_cast<double>(sets) * p.set_pj +
                static_cast<double>(resets) * p.reset_pj;
    if (encoded) {
      logic_pj += p.encode_logic_pj;
      busy_ns += p.encode_latency_ns;
    }
    busy_ns += p.write_latency_ns;
  }

  /// A program-and-verify retry: re-pulses the `sets` + `resets` cells
  /// that failed verification at `pulse_scale`x the nominal cell energy
  /// (the controller escalates the pulse exponentially per iteration).
  /// No sensing is charged here — the verify read that exposed the failed
  /// cells is charged separately via add_read.
  void add_retry(const EnergyParams& p, usize sets, usize resets,
                 double pulse_scale) noexcept {
    write_pj += pulse_scale * (static_cast<double>(sets) * p.set_pj +
                               static_cast<double>(resets) * p.reset_pj);
    busy_ns += p.write_latency_ns;
  }
};

}  // namespace nvmenc
