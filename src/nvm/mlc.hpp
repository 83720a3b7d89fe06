// Multi-level-cell (MLC) PCM model.
//
// The paper targets SLC PCM, but its related work (CompEx++ [12],
// restricted coset coding [17]) lives in MLC territory, where each cell
// stores two bits as one of four resistance states. Two effects change
// the encoding calculus there:
//   * programming cost is per *state transition*, not per bit flip — and
//     strongly asymmetric (full RESET to the amorphous state is the
//     expensive program);
//   * with the conventional Gray mapping, a single logical bit flip can
//     demand a multi-step resistance move.
//
// This model maps the stored image's bit pairs onto Gray-coded states and
// prices each write as the sum of per-cell transition energies, giving
// bench/paper_claims' MLC section: does a flip-minimizing encoder stay
// effective when cost is transition-based?
#pragma once

#include <array>

#include "common/cache_line.hpp"
#include "common/types.hpp"
#include "encoding/encoder.hpp"

namespace nvmenc {

/// Energy (pJ) of moving one MLC cell between 2-bit states. States are
/// resistance levels 0..3 (0 = fully crystalline SET, 3 = amorphous
/// RESET); logical bit pairs map to states through Gray code 00,01,11,10.
struct MlcEnergyParams {
  /// energy[from][to]; diagonal is 0 (no program pulse needed).
  std::array<std::array<double, 4>, 4> transition_pj = {{
      // to:   0      1      2      3        from:
      {{0.0, 9.0, 13.0, 19.2}},   // 0 (SET)
      {{8.0, 0.0, 9.0, 15.0}},    // 1
      {{12.0, 8.0, 0.0, 9.5}},    // 2
      {{17.0, 12.0, 8.5, 0.0}},   // 3 (RESET)
  }};
};

/// Gray-code mapping between a logical bit pair and a resistance state.
[[nodiscard]] constexpr u8 mlc_state_of_bits(u8 bit_pair) noexcept {
  // 00 -> 0, 01 -> 1, 11 -> 2, 10 -> 3
  constexpr u8 map[4] = {0, 1, 3, 2};
  return map[bit_pair & 3];
}

[[nodiscard]] constexpr u8 mlc_bits_of_state(u8 state) noexcept {
  constexpr u8 map[4] = {0b00, 0b01, 0b11, 0b10};
  return map[state & 3];
}

/// Programming energy of overwriting stored image `before` with `after`
/// (data cells only): adjacent bit pairs share one MLC cell.
[[nodiscard]] double mlc_write_energy(const CacheLine& before,
                                      const CacheLine& after,
                                      const MlcEnergyParams& params = {});

/// Number of cells whose state changes (the MLC analogue of bit flips;
/// drives MLC wear).
[[nodiscard]] usize mlc_cell_changes(const CacheLine& before,
                                     const CacheLine& after);

}  // namespace nvmenc
