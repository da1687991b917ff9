#include "src/crypto/chacha20.h"

#include <bit>
#include <cstring>

namespace obladi {

namespace {

// Four 32-bit lanes (GCC/Clang vector extension). Lowers to SSE2 on x86-64
// and NEON on ARM without any -march flag; lane j carries block j of a
// four-block run.
using U32x4 = uint32_t __attribute__((vector_size(16)));

constexpr size_t kBlockSize = 64;
constexpr size_t kWideSize = 4 * kBlockSize;

// Shared by the scalar block (T = uint32_t) and the four-block kernel
// (T = U32x4), so both run the identical round function.
template <typename T>
inline T Rotl(T x, int n) {
  return (x << n) | (x >> (32 - n));
}

inline uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
}

inline void StoreLe32(uint8_t* p, uint32_t v) {
  p[0] = static_cast<uint8_t>(v);
  p[1] = static_cast<uint8_t>(v >> 8);
  p[2] = static_cast<uint8_t>(v >> 16);
  p[3] = static_cast<uint8_t>(v >> 24);
}

template <typename T>
inline void QuarterRound(T& a, T& b, T& c, T& d) {
  a += b;
  d ^= a;
  d = Rotl(d, 16);
  c += d;
  b ^= c;
  b = Rotl(b, 12);
  a += b;
  d ^= a;
  d = Rotl(d, 8);
  c += d;
  b ^= c;
  b = Rotl(b, 7);
}

// The 20 ChaCha rounds followed by the feed-forward addition of the input.
template <typename T>
inline void ChaChaCore(const T in[16], T x[16]) {
  for (int i = 0; i < 16; ++i) {
    x[i] = in[i];
  }
  for (int round = 0; round < 10; ++round) {
    QuarterRound(x[0], x[4], x[8], x[12]);
    QuarterRound(x[1], x[5], x[9], x[13]);
    QuarterRound(x[2], x[6], x[10], x[14]);
    QuarterRound(x[3], x[7], x[11], x[15]);
    QuarterRound(x[0], x[5], x[10], x[15]);
    QuarterRound(x[1], x[6], x[11], x[12]);
    QuarterRound(x[2], x[7], x[8], x[13]);
    QuarterRound(x[3], x[4], x[9], x[14]);
  }
  for (int i = 0; i < 16; ++i) {
    x[i] += in[i];
  }
}

// Keystream blocks for counters state[12] .. state[12] + 3 (wrapping, as
// the scalar counter does) into out[kWideSize].
void KeystreamBlocks4(const uint32_t state[16], uint8_t* out) {
  U32x4 in[16];
  for (int i = 0; i < 16; ++i) {
    in[i] = U32x4{} + state[i];
  }
  in[12] += U32x4{0, 1, 2, 3};
  U32x4 x[16];
  ChaChaCore(in, x);
  if constexpr (std::endian::native != std::endian::little) {
    for (int j = 0; j < 4; ++j) {
      for (int i = 0; i < 16; ++i) {
        StoreLe32(out + kBlockSize * j + 4 * i, x[i][j]);
      }
    }
    return;
  }
  // x[w] holds word w of all four blocks; transpose each group of four
  // words so one 16-byte store writes them for one block.
  for (int w = 0; w < 16; w += 4) {
    U32x4 lo01 = __builtin_shufflevector(x[w], x[w + 1], 0, 4, 1, 5);
    U32x4 hi01 = __builtin_shufflevector(x[w], x[w + 1], 2, 6, 3, 7);
    U32x4 lo23 = __builtin_shufflevector(x[w + 2], x[w + 3], 0, 4, 1, 5);
    U32x4 hi23 = __builtin_shufflevector(x[w + 2], x[w + 3], 2, 6, 3, 7);
    U32x4 block_words[4] = {
        __builtin_shufflevector(lo01, lo23, 0, 1, 4, 5),
        __builtin_shufflevector(lo01, lo23, 2, 3, 6, 7),
        __builtin_shufflevector(hi01, hi23, 0, 1, 4, 5),
        __builtin_shufflevector(hi01, hi23, 2, 3, 6, 7),
    };
    for (int j = 0; j < 4; ++j) {
      std::memcpy(out + kBlockSize * j + 4 * w, &block_words[j], sizeof(U32x4));
    }
  }
}

}  // namespace

ChaCha20::ChaCha20(const uint8_t key[kKeySize], const uint8_t nonce[kNonceSize],
                   uint32_t counter) {
  static const uint8_t kSigma[16] = {'e', 'x', 'p', 'a', 'n', 'd', ' ', '3',
                                     '2', '-', 'b', 'y', 't', 'e', ' ', 'k'};
  state_[0] = LoadLe32(kSigma);
  state_[1] = LoadLe32(kSigma + 4);
  state_[2] = LoadLe32(kSigma + 8);
  state_[3] = LoadLe32(kSigma + 12);
  for (int i = 0; i < 8; ++i) {
    state_[4 + i] = LoadLe32(key + 4 * i);
  }
  state_[12] = counter;
  state_[13] = LoadLe32(nonce);
  state_[14] = LoadLe32(nonce + 4);
  state_[15] = LoadLe32(nonce + 8);
}

void ChaCha20::NextBlock() {
  uint32_t x[16];
  ChaChaCore(state_, x);
  for (int i = 0; i < 16; ++i) {
    StoreLe32(block_ + 4 * i, x[i]);
  }
  state_[12]++;  // block counter
  block_pos_ = 0;
}

void ChaCha20::Crypt(uint8_t* data, size_t len) {
  size_t i = 0;
  while (i < len) {
    if (block_pos_ == kBlockSize && len - i >= kWideSize) {
      uint8_t ks[kWideSize];
      KeystreamBlocks4(state_, ks);
      state_[12] += 4;
      // The XOR loop auto-vectorizes.
      for (size_t j = 0; j < kWideSize; ++j) {
        data[i + j] ^= ks[j];
      }
      i += kWideSize;
      continue;
    }
    if (block_pos_ == kBlockSize) {
      NextBlock();
    }
    size_t take = kBlockSize - block_pos_;
    if (take > len - i) {
      take = len - i;
    }
    const uint8_t* ks = block_ + block_pos_;
    for (size_t j = 0; j < take; ++j) {
      data[i + j] ^= ks[j];
    }
    block_pos_ += take;
    i += take;
  }
}

void ChaCha20::Keystream(uint8_t* out, size_t len) {
  size_t i = 0;
  while (i < len) {
    if (block_pos_ == kBlockSize && len - i >= kWideSize) {
      KeystreamBlocks4(state_, out + i);
      state_[12] += 4;
      i += kWideSize;
      continue;
    }
    if (block_pos_ == kBlockSize) {
      NextBlock();
    }
    size_t take = kBlockSize - block_pos_;
    if (take > len - i) {
      take = len - i;
    }
    std::memcpy(out + i, block_ + block_pos_, take);
    block_pos_ += take;
    i += take;
  }
}

}  // namespace obladi
