// ChaCha20 stream cipher (RFC 7539) — the symmetric cipher behind Obladi's
// randomized block encryption and the CSPRNG.
#ifndef OBLADI_SRC_CRYPTO_CHACHA20_H_
#define OBLADI_SRC_CRYPTO_CHACHA20_H_

#include <array>
#include <cstddef>
#include <cstdint>

#include "src/common/types.h"

namespace obladi {

class ChaCha20 {
 public:
  static constexpr size_t kKeySize = 32;
  static constexpr size_t kNonceSize = 12;

  ChaCha20(const uint8_t key[kKeySize], const uint8_t nonce[kNonceSize], uint32_t counter = 0);

  // XOR the keystream into data (encrypt == decrypt). Both calls compute
  // four blocks per pass while at least 256 bytes remain at a block
  // boundary and one block at a time otherwise; the output does not depend
  // on how a stream is split across calls.
  void Crypt(uint8_t* data, size_t len);

  // Fill out with raw keystream (used by the DRBG).
  void Keystream(uint8_t* out, size_t len);

 private:
  void NextBlock();

  uint32_t state_[16];
  uint8_t block_[64];
  size_t block_pos_ = 64;  // forces generation on first use
};

}  // namespace obladi

#endif  // OBLADI_SRC_CRYPTO_CHACHA20_H_
