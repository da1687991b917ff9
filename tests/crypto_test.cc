#include <gtest/gtest.h>

#include <algorithm>

#include "src/crypto/chacha20.h"
#include "src/crypto/csprng.h"
#include "src/crypto/encryptor.h"
#include "src/crypto/hmac.h"
#include "src/crypto/sha256.h"
#include "src/oram/block_codec.h"

namespace obladi {
namespace {

std::string HexOf(const uint8_t* data, size_t n) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(kHex[data[i] >> 4]);
    out.push_back(kHex[data[i] & 0xf]);
  }
  return out;
}

// FIPS 180-4 test vectors.
TEST(Sha256Test, EmptyString) {
  auto d = Sha256::Hash(nullptr, 0);
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, Abc) {
  Bytes msg = BytesFromString("abc");
  auto d = Sha256::Hash(msg);
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockMessage) {
  Bytes msg = BytesFromString("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  auto d = Sha256::Hash(msg);
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  Bytes msg;
  for (int i = 0; i < 1000; ++i) {
    msg.push_back(static_cast<uint8_t>(i * 7));
  }
  Sha256 h;
  h.Update(msg.data(), 100);
  h.Update(msg.data() + 100, 900);
  auto incremental = h.Finalize();
  auto oneshot = Sha256::Hash(msg);
  EXPECT_EQ(incremental, oneshot);
}

TEST(Sha256Test, MillionAs) {
  Sha256 h;
  Bytes chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) {
    h.Update(chunk);
  }
  auto d = h.Finalize();
  EXPECT_EQ(HexOf(d.data(), d.size()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// RFC 4231 test case 1.
TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  Bytes msg = BytesFromString("Hi There");
  auto tag = HmacSha256::Compute(key, msg);
  EXPECT_EQ(HexOf(tag.data(), tag.size()),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 test case 2 ("Jefe").
TEST(HmacTest, Rfc4231Case2) {
  Bytes key = BytesFromString("Jefe");
  Bytes msg = BytesFromString("what do ya want for nothing?");
  auto tag = HmacSha256::Compute(key, msg);
  EXPECT_EQ(HexOf(tag.data(), tag.size()),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 test case 3 (0xaa key, 0xdd data).
TEST(HmacTest, Rfc4231Case3) {
  Bytes key(20, 0xaa);
  Bytes msg(50, 0xdd);
  auto tag = HmacSha256::Compute(key, msg);
  EXPECT_EQ(HexOf(tag.data(), tag.size()),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes key(131, 0xaa);
  Bytes msg = BytesFromString("Test Using Larger Than Block-Size Key - Hash Key First");
  auto tag = HmacSha256::Compute(key, msg);
  EXPECT_EQ(HexOf(tag.data(), tag.size()),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(HmacTest, ConstantTimeEqual) {
  HmacSha256::Tag a{}, b{};
  EXPECT_TRUE(HmacSha256::Equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(HmacSha256::Equal(a, b));
}

// RFC 7539 §2.4.2 test vector.
TEST(ChaCha20Test, Rfc7539Encryption) {
  uint8_t key[32];
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(i);
  }
  uint8_t nonce[12] = {0, 0, 0, 0, 0, 0, 0, 0x4a, 0, 0, 0, 0};
  std::string plaintext =
      "Ladies and Gentlemen of the class of '99: If I could offer you "
      "only one tip for the future, sunscreen would be it.";
  Bytes data(plaintext.begin(), plaintext.end());
  ChaCha20 cipher(key, nonce, /*counter=*/1);
  cipher.Crypt(data.data(), data.size());
  EXPECT_EQ(HexOf(data.data(), 16), "6e2e359a2568f98041ba0728dd0d6981");
  // Decryption = encryption.
  ChaCha20 cipher2(key, nonce, 1);
  cipher2.Crypt(data.data(), data.size());
  EXPECT_EQ(std::string(data.begin(), data.end()), plaintext);
}

// RFC 7539 Appendix A.2 test vector #2: 375 bytes, long enough to run the
// four-block keystream kernel and then the one-block tail.
TEST(ChaCha20Test, Rfc7539AppendixA2Vector2) {
  uint8_t key[32] = {0};
  key[31] = 1;
  uint8_t nonce[12] = {0};
  nonce[11] = 2;
  std::string plaintext =
      "Any submission to the IETF intended by the Contributor for publication as all or "
      "part of an IETF Internet-Draft or RFC and any statement made within the context of "
      "an IETF activity is considered an \"IETF Contribution\". Such statements include "
      "oral statements in IETF sessions, as well as written and electronic communications "
      "made at any time or place, which are addressed to";
  ASSERT_EQ(plaintext.size(), 375u);
  Bytes data(plaintext.begin(), plaintext.end());
  ChaCha20 cipher(key, nonce, /*counter=*/1);
  cipher.Crypt(data.data(), data.size());
  EXPECT_EQ(HexOf(data.data(), data.size()),
            "a3fbf07df3fa2fde4f376ca23e82737041605d9f4f4f57bd8cff2c1d4b7955ec"
            "2a97948bd3722915c8f3d337f7d370050e9e96d647b7c39f56e031ca5eb6250d"
            "4042e02785ececfa4b4bb5e8ead0440e20b6e8db09d881a7c6132f420e527950"
            "42bdfa7773d8a9051447b3291ce1411c680465552aa6c405b7764d5e87bea85a"
            "d00f8449ed8f72d0d662ab052691ca66424bc86d2df80ea41f43abf937d3259d"
            "c4b2d0dfb48a6c9139ddd7f76966e928e635553ba76c5c879d7b35d49eb2e62b"
            "0871cdac638939e25e8a1e0ef9d5280fa8ca328b351c3c765989cbcf3daa8b6c"
            "cc3aaf9f3979c92b3720fc88dc95ed84a1be059c6499b9fda236e7e818b04b0b"
            "c39c1e876b193bfe5569753f88128cc08aaa9b63d1a16f80ef2554d7189c411f"
            "5869ca52c5b83fa36ff216b9c1d30062bebcfd2dc5bce0911934fda79a86f6e6"
            "98ced759c3ff9b6477338f3da4f9cd8514ea9982ccafb341b2384dd902f3d1ab"
            "7ac61dd29c6f21ba5b862f3730e37cfdc4fd806c22f221");
}

// Calls shorter than four blocks run the one-block path, so feeding a stream
// in small pieces checks the four-block kernel against it byte for byte.
TEST(ChaCha20Test, ChunkedCallsMatchOneShot) {
  uint8_t key[32];
  for (int i = 0; i < 32; ++i) {
    key[i] = static_cast<uint8_t>(7 * i + 3);
  }
  uint8_t nonce[12] = {9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 0xaa, 0x55};
  for (size_t len : {0, 1, 63, 64, 65, 255, 256, 257, 511, 512, 524, 4096}) {
    Bytes input(len);
    for (size_t i = 0; i < len; ++i) {
      input[i] = static_cast<uint8_t>(i * 31 + 5);
    }
    Bytes crypt_once = input;
    ChaCha20(key, nonce, 1).Crypt(crypt_once.data(), len);
    Bytes stream_once(len);
    ChaCha20(key, nonce, 1).Keystream(stream_once.data(), len);
    for (size_t chunk : {1, 7, 63}) {
      Bytes crypt_pieces = input;
      Bytes stream_pieces(len);
      ChaCha20 crypt_cipher(key, nonce, 1);
      ChaCha20 stream_cipher(key, nonce, 1);
      for (size_t off = 0; off < len; off += chunk) {
        size_t n = std::min(chunk, len - off);
        crypt_cipher.Crypt(crypt_pieces.data() + off, n);
        stream_cipher.Keystream(stream_pieces.data() + off, n);
      }
      EXPECT_EQ(crypt_pieces, crypt_once) << "len " << len << " chunk " << chunk;
      EXPECT_EQ(stream_pieces, stream_once) << "len " << len << " chunk " << chunk;
    }
  }
}

// The 32-bit block counter wraps inside a four-block run exactly as it does
// one block at a time: block b of the stream is block 0 of a cipher started
// at counter + b (mod 2^32).
TEST(ChaCha20Test, BlockCounterWraps) {
  uint8_t key[32] = {1, 2, 3};
  uint8_t nonce[12] = {4, 5, 6};
  const uint32_t start = 0xfffffffcu;
  Bytes stream(8 * 64);
  ChaCha20(key, nonce, start).Keystream(stream.data(), stream.size());
  for (uint32_t b = 0; b < 8; ++b) {
    Bytes block(64);
    ChaCha20(key, nonce, start + b).Keystream(block.data(), block.size());
    EXPECT_EQ(Bytes(stream.begin() + 64 * b, stream.begin() + 64 * (b + 1)), block)
        << "block " << b;
  }
}

// Pinned from the one-block-at-a-time implementation: seeded streams (leaf
// remapping, permutations, test workloads) must not change with the kernel.
TEST(CsprngTest, SeededStreamIsPinned) {
  Csprng rng(1);
  uint8_t out[64];
  rng.FillBytes(out, sizeof(out));
  EXPECT_EQ(HexOf(out, sizeof(out)),
            "b4d3d1e6c49810d992551c596ab2f24b339f21fab5688d30291fd84cc87a8209"
            "211a103fec48c3143652bfbd0c6c8715852d8b08d7a8d95a76a4e633f17cff69");
}

TEST(CsprngTest, DeterministicForSameSeed) {
  Csprng a(42), b(42), c(43);
  EXPECT_EQ(a.NextU64(), b.NextU64());
  EXPECT_NE(a.NextU64(), c.NextU64());
}

TEST(CsprngTest, UniformBoundRespected) {
  Csprng rng(7);
  for (int i = 0; i < 10000; ++i) {
    EXPECT_LT(rng.Uniform(17), 17u);
  }
}

TEST(CsprngTest, RandomPermutationIsPermutation) {
  Csprng rng(9);
  auto perm = rng.RandomPermutation(257);
  std::vector<bool> seen(257, false);
  for (uint32_t v : perm) {
    ASSERT_LT(v, 257u);
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
}

TEST(CsprngTest, PermutationsDiffer) {
  Csprng rng(10);
  EXPECT_NE(rng.RandomPermutation(64), rng.RandomPermutation(64));
}

TEST(EncryptorTest, RoundTrip) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), false, 1);
  Bytes pt = BytesFromString("hello oblivious world");
  Bytes ct = enc.Encrypt(pt);
  EXPECT_EQ(ct.size(), pt.size() + enc.Overhead());
  auto back = enc.Decrypt(ct);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, pt);
}

TEST(EncryptorTest, RandomizedEncryption) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), false, 1);
  Bytes pt(128, 0x42);
  EXPECT_NE(enc.Encrypt(pt), enc.Encrypt(pt));
}

TEST(EncryptorTest, AuthenticatedModeDetectsTampering) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), true, 1);
  Bytes pt = BytesFromString("patient record");
  Bytes ct = enc.Encrypt(pt);
  ct[enc.Overhead() / 2] ^= 0x01;
  auto back = enc.Decrypt(ct);
  EXPECT_FALSE(back.ok());
  EXPECT_EQ(back.status().code(), StatusCode::kIntegrityViolation);
}

TEST(EncryptorTest, AuthenticatedModeBindsAad) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), true, 1);
  Bytes pt = BytesFromString("bucket contents");
  Bytes aad1 = BytesFromString("bucket=1,version=7");
  Bytes aad2 = BytesFromString("bucket=1,version=8");
  Bytes ct = enc.Encrypt(pt, aad1);
  EXPECT_TRUE(enc.Decrypt(ct, aad1).ok());
  // Replaying a stale version under a different freshness tag must fail.
  EXPECT_EQ(enc.Decrypt(ct, aad2).status().code(), StatusCode::kIntegrityViolation);
}

TEST(EncryptorTest, UnauthenticatedModeHasNoTag) {
  Encryptor plain = Encryptor::FromMasterKey(BytesFromString("k"), false, 1);
  Encryptor authed = Encryptor::FromMasterKey(BytesFromString("k"), true, 1);
  EXPECT_EQ(plain.Overhead(), Encryptor::kNonceSize);
  EXPECT_EQ(authed.Overhead(), Encryptor::kNonceSize + Encryptor::kTagSize);
}

// The dummy slot plaintext is a public constant; fresh nonces alone make its
// ciphertexts unlinkable.
TEST(BlockCodecTest, DummySlotDecodesInvalidAndEncryptsFresh) {
  RingOramConfig config = RingOramConfig::ForCapacity(64, /*z=*/4, /*payload_size=*/512);
  BlockCodec codec(config);
  const Bytes& dummy = codec.DummyPlaintext();
  ASSERT_EQ(dummy.size(), codec.plaintext_size());
  DecodedBlock decoded = codec.DecodeBlock(dummy);
  EXPECT_EQ(decoded.id, kInvalidBlockId);
  EXPECT_EQ(decoded.leaf, kInvalidLeaf);
  EXPECT_EQ(decoded.payload, Bytes(config.block_payload_size, 0));

  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("secret"), false, 1);
  Bytes first = enc.Encrypt(dummy);
  Bytes second = enc.Encrypt(dummy);
  EXPECT_NE(first, second);
  auto back = enc.Decrypt(second);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(codec.DecodeBlock(*back).id, kInvalidBlockId);
}

TEST(EncryptorTest, DecryptRejectsShortCiphertext) {
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("k"), false, 1);
  EXPECT_FALSE(enc.Decrypt(Bytes(4, 0)).ok());
}

}  // namespace
}  // namespace obladi
