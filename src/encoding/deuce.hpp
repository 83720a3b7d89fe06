// DEUCE [Young, Nair & Qureshi, ASPLOS'15]: write-efficient encryption
// for non-volatile memories.
//
// Counter-mode encryption re-keys a line on every write, which turns the
// smallest logical change into a full-line re-randomization — bit-flip
// encoders and DCW are useless behind naive encryption. DEUCE keeps TWO
// epoch counters: words modified since the last full re-encryption are
// ciphered under the *leading* counter (LCTR, bumped every write), clean
// words keep the *trailing* counter's (TCTR) ciphertext. Every kEpoch
// writes the whole line re-encrypts and TCTR catches up.
//
// Metadata per line: 16-bit LCTR + 16-bit TCTR + 8-bit modified bitmap =
// 40 bits (7.8%). The keystream is a deterministic PRF of (line address,
// word, counter) — SplitMix64 stands in for AES-CTR, which is
// behaviourally equivalent for flip statistics.
//
// The scheme is exposed through the standard Encoder interface so the
// whole evaluation stack (controller, replay, figures) can run on
// encrypted memory; bench/paper_claims' encryption section quantifies how
// much of the encoders' advantage encryption destroys and DEUCE recovers.
#pragma once

#include "encoding/encoder.hpp"

namespace nvmenc {

class DeuceEncoder final : public Encoder {
 public:
  /// Full re-encryption period in writes (the paper's epoch).
  static constexpr usize kEpoch = 32;
  static constexpr usize kCounterBits = 16;

  /// `full_reencrypt_every_write` = the naive counter-mode baseline: every
  /// write re-keys the whole line (DEUCE with an epoch of 1).
  explicit DeuceEncoder(bool full_reencrypt_every_write = false,
                        u64 key = 0xdeece5eedull);

  [[nodiscard]] const std::string& name() const noexcept override {
    return name_;
  }
  /// LCTR + TCTR + modified bitmap.
  [[nodiscard]] usize meta_bits() const noexcept override {
    return 2 * kCounterBits + kWordsPerLine;
  }
  [[nodiscard]] bool is_tag_bit(usize) const noexcept override {
    return false;  // counters and bitmap are auxiliary state, not tags
  }
  [[nodiscard]] StoredLine make_stored(const CacheLine& line) const override;
  [[nodiscard]] CacheLine decode(const StoredLine& stored) const override;

 protected:
  void encode_impl(StoredLine& stored,
                   const CacheLine& new_line) const override;

 private:
  /// Keystream word for (line word `w`, epoch counter `ctr`). The line
  /// address is not plumbed through the Encoder interface; using the word
  /// index and counter alone keeps the PRF per-line-independent enough
  /// for flip statistics (every line sees the same keystream family, but
  /// data is already line-specific).
  [[nodiscard]] u64 keystream(usize w, u64 ctr) const;

  bool naive_;
  u64 key_;
  std::string name_;
};

}  // namespace nvmenc
