// Fixed-size slot plaintext encoding and the constant dummy plaintext.
//
// Slot plaintext layout: block id (u64) | leaf at write time (u32) | payload.
// Dummy slots and empty real slots carry id = kInvalidBlockId, leaf =
// kInvalidLeaf and an all-zero payload. The filler needs no randomness: every
// slot encryption draws a fresh nonce, so a stream-cipher ciphertext of a
// public constant is indistinguishable from one of a real block, and a
// dummy slot costs one keystream pass (its encryption) instead of two.
#ifndef OBLADI_SRC_ORAM_BLOCK_CODEC_H_
#define OBLADI_SRC_ORAM_BLOCK_CODEC_H_

#include <cstdint>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/oram/config.h"

namespace obladi {

struct DecodedBlock {
  BlockId id = kInvalidBlockId;
  Leaf leaf = kInvalidLeaf;
  Bytes payload;
};

class BlockCodec {
 public:
  explicit BlockCodec(const RingOramConfig& config);
  // Source-compatible form from when dummies were filled by a keyed PRF;
  // the key is ignored.
  BlockCodec(const RingOramConfig& config, const Bytes& /*unused_key*/) : BlockCodec(config) {}

  size_t plaintext_size() const { return plaintext_size_; }

  // Encode a real block. The payload is zero-padded / truncated to the
  // configured payload size.
  Bytes EncodeBlock(BlockId id, Leaf leaf, const Bytes& payload) const;

  DecodedBlock DecodeBlock(const Bytes& plaintext) const;

  // Filler plaintext for dummy slots and empty real slots, built once.
  const Bytes& DummyPlaintext() const { return dummy_plaintext_; }
  // Source-compatible form from when the filler depended on the slot's
  // location; the location is ignored.
  const Bytes& DummyPlaintext(BucketIndex, uint32_t, SlotIndex) const { return dummy_plaintext_; }

  // Associated data binding a slot ciphertext to its location and version
  // (freshness; used in authenticated mode, Appendix A).
  static Bytes MakeAad(BucketIndex bucket, uint32_t version, SlotIndex slot);

 private:
  size_t payload_size_;
  size_t plaintext_size_;
  Bytes dummy_plaintext_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_ORAM_BLOCK_CODEC_H_
