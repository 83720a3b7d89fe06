// Figure 3: Flip-N-Write bit-flip reduction vs encoding granularity on
// random input data.
//
// Paper reference points: ~21.9% reduction at granularity 4, ~14.6% at
// granularity 16, declining toward 64. This is the theoretical curve the
// READ idea leans on (finer granularity saves more flips) and the SAE
// observation qualifies (not under sequential flips, and not once tag-bit
// state is charged).
//
// The curve is a binomial identity on random data, so the bench exits 1
// unless it prints the paper's two points exactly: the one end-to-end
// check that FnwEncoder, at every granularity, still yields that curve.
#include "bench_util.hpp"

#include "common/rng.hpp"
#include "core/fnw.hpp"
#include "encoding/dcw.hpp"

namespace nvmenc {
namespace {

int run(const bench::Options& opt) {
  bench::banner("Figure 3: FNW granularity vs bit-flip reduction (random)");

  const int lines = opt.quick ? 2'000 : 20'000;
  Xoshiro256 rng{7};
  std::vector<CacheLine> stream;
  stream.reserve(static_cast<usize>(lines));
  for (int i = 0; i < lines; ++i) {
    CacheLine line;
    for (usize w = 0; w < kWordsPerLine; ++w) line.set_word(w, rng.next());
    stream.push_back(line);
  }

  DcwEncoder dcw;
  StoredLine dcw_stored = dcw.make_stored(stream[0]);
  usize dcw_flips = 0;
  for (usize i = 1; i < stream.size(); ++i) {
    dcw_flips += dcw.encode(dcw_stored, stream[i]).total();
  }

  TextTable table{{"granularity", "flips/DCW", "reduction", "tag share"}};
  std::string at4;
  std::string at16;
  for (const usize g : {2u, 4u, 8u, 16u, 32u, 64u}) {
    const EncoderPtr enc = make_fnw(g);
    StoredLine stored = enc->make_stored(stream[0]);
    FlipBreakdown total;
    for (usize i = 1; i < stream.size(); ++i) {
      total += enc->encode(stored, stream[i]);
    }
    const double ratio = static_cast<double>(total.total()) /
                         static_cast<double>(dcw_flips);
    const std::string reduction = TextTable::fmt_pct(ratio - 1.0);
    if (g == 4) at4 = reduction;
    if (g == 16) at16 = reduction;
    table.add_row({std::to_string(g), TextTable::fmt(ratio, 4), reduction,
                   TextTable::fmt(static_cast<double>(total.tag) /
                                      static_cast<double>(total.total()),
                                  3)});
  }
  bench::emit(table, opt, "fig3_granularity_sweep");
  std::cout << "\npaper: -21.9% at granularity 4, -14.6% at 16\n";
  if (at4 != "-21.9%" || at16 != "-14.6%") {
    std::cerr << "FAIL: measured " << at4 << " at granularity 4 and " << at16
              << " at 16; the paper's curve is -21.9% and -14.6%\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace nvmenc

int main(int argc, char** argv) {
  return nvmenc::run(nvmenc::bench::parse_options(argc, argv));
}
