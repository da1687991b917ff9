// Tests for the sharded ORAM subsystem: routing correctness, obliviousness
// of the per-shard request shape under skew, proxy integration at K=4
// (read-your-writes, epoch fate sharing, crash recovery), and read-batch
// throughput scaling over a latency-bound backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/proxy/obladi_store.h"
#include "src/shard/shard_router.h"
#include "src/shard/sharded_oram_set.h"
#include "src/storage/latency_store.h"
#include "src/storage/memory_store.h"
#include "tests/paced_proxy.h"

namespace obladi {
namespace {

// ---------------------------------------------------------------------------
// Router
// ---------------------------------------------------------------------------

TEST(ShardRouterTest, GlobalLocalRoundTrip) {
  ShardRouter router(4);
  for (BlockId g = 0; g < 1000; ++g) {
    uint32_t s = router.ShardOf(g);
    EXPECT_LT(s, 4u);
    EXPECT_EQ(router.GlobalId(s, router.LocalId(g)), g);
  }
}

TEST(ShardRouterTest, DenseIdsStripeEvenly) {
  ShardRouter router(4);
  std::vector<uint64_t> counts(4, 0);
  std::vector<BlockId> max_local(4, 0);
  for (BlockId g = 0; g < 1024; ++g) {
    uint32_t s = router.ShardOf(g);
    counts[s]++;
    max_local[s] = std::max(max_local[s], router.LocalId(g));
  }
  for (uint32_t s = 0; s < 4; ++s) {
    EXPECT_EQ(counts[s], 256u);
    EXPECT_EQ(max_local[s], 255u);  // per-shard local id space is dense
  }
}

TEST(ShardLayoutTest, SingleShardKeepsGlobalConfig) {
  RingOramConfig global = RingOramConfig::ForCapacity(1000, 4, 128);
  global.s += 1;  // hand-tuned parameter must survive K=1
  ShardLayout layout = ShardLayout::Make(global, 1);
  EXPECT_EQ(layout.shard_config.s, global.s);
  EXPECT_EQ(layout.total_buckets(), global.num_buckets());
}

TEST(ShardLayoutTest, MultiShardDerivesSmallerTrees) {
  RingOramConfig global = RingOramConfig::ForCapacity(4096, 4, 128);
  ShardLayout layout = ShardLayout::Make(global, 4);
  EXPECT_EQ(layout.shard_capacity(), 1024u);
  EXPECT_LT(layout.shard_config.num_levels, global.num_levels);
  EXPECT_TRUE(layout.shard_config.Validate().ok());
  EXPECT_EQ(layout.bucket_offset(2), 2 * layout.shard_config.num_buckets());
}

// ---------------------------------------------------------------------------
// ShardedOramSet correctness
// ---------------------------------------------------------------------------

struct ShardedEnv {
  ShardLayout layout;
  ShardedOramOptions options;
  std::shared_ptr<MemoryBucketStore> store;
  std::unique_ptr<ShardedOramSet> set;
};

ShardedEnv MakeSharded(uint32_t k, uint64_t capacity, size_t read_quota,
                       size_t write_quota, bool enable_trace = false,
                       uint64_t seed = 11) {
  ShardedEnv env;
  env.layout = ShardLayout::Make(RingOramConfig::ForCapacity(capacity, 4, 64), k);
  env.options.oram.io_threads = 8;
  env.options.oram.enable_trace = enable_trace;
  env.options.read_quota = read_quota;
  env.options.write_quota = write_quota;
  env.store = std::make_shared<MemoryBucketStore>(
      env.layout.total_buckets(), env.layout.shard_config.slots_per_bucket());
  auto encryptor = std::make_shared<Encryptor>(
      Encryptor::FromMasterKey(BytesFromString("shard"), false, seed));
  env.set = std::make_unique<ShardedOramSet>(env.layout, env.options, env.store,
                                             encryptor, seed);
  return env;
}

Bytes ValueFor(BlockId id) {
  return BytesFromString("value-" + std::to_string(id));
}

// Block payloads are fixed-size; values read back from the tree are
// zero-padded to the block payload size (the proxy strips this with its
// length prefix). Compare the content prefix and require a zero tail.
void ExpectPayload(const Bytes& got, const Bytes& want) {
  ASSERT_GE(got.size(), want.size());
  EXPECT_EQ(Bytes(got.begin(), got.begin() + static_cast<ptrdiff_t>(want.size())), want);
  for (size_t i = want.size(); i < got.size(); ++i) {
    ASSERT_EQ(got[i], 0u) << "non-zero padding at byte " << i;
  }
}

TEST(ShardedOramSetTest, ReadWriteRoundTripAcrossShards) {
  auto env = MakeSharded(4, 256, /*read_quota=*/4, /*write_quota=*/4);
  std::vector<Bytes> values(256);
  for (BlockId id = 0; id < 256; ++id) {
    values[id] = ValueFor(id);
  }
  ASSERT_TRUE(env.set->Initialize(values).ok());

  // Reads hitting all four shards in one global batch, results in order.
  std::vector<BlockId> ids = {0, 1, 2, 3, 100, 101, 202, 255};
  auto result = env.set->ReadBatch(ids);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (size_t i = 0; i < ids.size(); ++i) {
    ExpectPayload((*result)[i], ValueFor(ids[i]));
  }

  // Writes route to their shards; read back after the epoch flush.
  std::vector<std::pair<BlockId, Bytes>> writes = {
      {0, BytesFromString("w0")}, {7, BytesFromString("w7")}, {42, BytesFromString("w42")}};
  ASSERT_TRUE(env.set->WriteBatch(writes).ok());
  ASSERT_TRUE(env.set->FinishEpoch().ok());

  auto back = env.set->ReadBatch({0, 7, 42, 9});
  ASSERT_TRUE(back.ok());
  ExpectPayload((*back)[0], BytesFromString("w0"));
  ExpectPayload((*back)[1], BytesFromString("w7"));
  ExpectPayload((*back)[2], BytesFromString("w42"));
  ExpectPayload((*back)[3], ValueFor(9));
  ASSERT_TRUE(env.set->FinishEpoch().ok());
  EXPECT_TRUE(env.set->CheckInvariants().ok());
}

TEST(ShardedOramSetTest, CrossShardCiphertextSpliceIsDetected) {
  // All shards share one MAC key, so each ciphertext's AAD must bind its
  // *global* bucket index: two shards' trees have identical shapes and
  // lockstep version counters, and a malicious server could otherwise swap
  // ciphertexts between shard namespaces without failing verification.
  ShardLayout layout = ShardLayout::Make(RingOramConfig::ForCapacity(64, 4, 64), 2);
  layout.shard_config.authenticated = true;
  ShardedOramOptions options;
  options.oram.io_threads = 4;
  // The MAC binding itself must reject the splice; the decoded-id
  // cross-check would mask an AAD regression for real slots (and dummy
  // slots have no id check at all).
  options.oram.verify_decoded_ids = false;
  options.read_quota = 4;
  options.write_quota = 4;
  auto store = std::make_shared<MemoryBucketStore>(layout.total_buckets(),
                                                   layout.shard_config.slots_per_bucket());
  auto encryptor = std::make_shared<Encryptor>(
      Encryptor::FromMasterKey(BytesFromString("splice"), /*authenticated=*/true, 31));
  ShardedOramSet set(layout, options, store, encryptor, 31);
  ASSERT_TRUE(set.Initialize(std::vector<Bytes>(64)).ok());

  // Adversary: swap every bucket of shard 0's region with the same-index
  // bucket of shard 1's region (all at version 0 right after Initialize).
  uint32_t per_shard = layout.shard_config.num_buckets();
  uint32_t slots = layout.shard_config.slots_per_bucket();
  for (uint32_t b = 0; b < per_shard; ++b) {
    std::vector<Bytes> img0(slots), img1(slots);
    for (uint32_t sl = 0; sl < slots; ++sl) {
      img0[sl] = *store->ReadSlot(b, 0, sl);
      img1[sl] = *store->ReadSlot(per_shard + b, 0, sl);
    }
    ASSERT_TRUE(store->WriteBucket(b, 0, std::move(img1)).ok());
    ASSERT_TRUE(store->WriteBucket(per_shard + b, 0, std::move(img0)).ok());
  }

  auto result = set.ReadBatch({0, 1, 2, 3});
  ASSERT_FALSE(result.ok()) << "spliced ciphertexts were accepted";
  EXPECT_EQ(result.status().code(), StatusCode::kIntegrityViolation);
}

TEST(ShardedOramSetTest, ShardAadsBindTheGlobalBucketIndex) {
  // A ciphertext MACed by shard 1 for local tuple (bucket, version, slot)
  // must not verify under shard 0's AAD for the same local tuple — the
  // shards share one key, so the AAD offset is what separates them.
  ShardLayout layout = ShardLayout::Make(RingOramConfig::ForCapacity(64, 4, 64), 2);
  Encryptor enc = Encryptor::FromMasterKey(BytesFromString("aad"), /*authenticated=*/true, 5);
  Bytes aad0 =
      BlockCodec::MakeAad(layout.ConfigForShard(0).aad_bucket_offset + 3, /*version=*/0,
                          /*slot=*/2);
  Bytes aad1 =
      BlockCodec::MakeAad(layout.ConfigForShard(1).aad_bucket_offset + 3, 0, 2);
  Bytes ct = enc.Encrypt(BytesFromString("payload"), aad1);
  EXPECT_TRUE(enc.Decrypt(ct, aad1).ok());
  EXPECT_FALSE(enc.Decrypt(ct, aad0).ok()) << "shard AADs collide across namespaces";
}

TEST(ShardedOramSetTest, OverflowingAShardQuotaIsRejected) {
  auto env = MakeSharded(4, 64, /*read_quota=*/2, /*write_quota=*/2);
  ASSERT_TRUE(env.set->Initialize(std::vector<Bytes>(64)).ok());
  // Ids 0, 4, 8 all stripe to shard 0; quota is 2.
  auto result = env.set->ReadBatch({0, 4, 8});
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Obliviousness of routing under skew
// ---------------------------------------------------------------------------

// Build one batch of `real` distinct ids drawn by `next`, respecting the
// per-shard quota (the proxy's admission control does the same).
std::vector<BlockId> DrawBatch(const ShardRouter& router, size_t real, size_t quota,
                               const std::function<BlockId()>& next) {
  std::vector<BlockId> ids;
  std::vector<size_t> per_shard(router.num_shards(), 0);
  std::vector<uint8_t> used(1 << 16, 0);
  while (ids.size() < real) {
    BlockId id = next();
    uint32_t s = router.ShardOf(id);
    if (used[id] || per_shard[s] >= quota) {
      continue;
    }
    used[id] = 1;
    per_shard[s]++;
    ids.push_back(id);
  }
  return ids;
}

// Acceptance criterion (1): the per-shard physical trace sizes for a
// uniform and a Zipf-skewed request stream of equal logical size match.
// The *request-level* shape is exactly fixed — every shard receives exactly
// read_quota requests per batch, each a full path read — and the slot-level
// trace (whose residual variation comes only from workload-independent coin
// flips in reshuffle/overlap timing) matches within a small tolerance.
TEST(ShardObliviousnessTest, PerShardRequestCountsAreExactlyWorkloadIndependent) {
  constexpr uint32_t kShards = 4;
  constexpr size_t kQuota = 8;
  constexpr size_t kRealPerBatch = 16;
  constexpr int kBatches = 24;

  auto run = [&](bool zipf) {
    auto env = MakeSharded(kShards, 512, kQuota, kQuota, /*trace=*/false, /*seed=*/17);
    std::vector<Bytes> values(512);
    ASSERT_TRUE(env.set->Initialize(values).ok());

    // Every shard sub-batch plan must carry exactly kQuota requests.
    std::mutex mu;
    std::vector<std::vector<size_t>> plan_sizes(kShards);
    env.set->SetBatchPlannedHook([&](uint32_t shard, const BatchPlan& plan) {
      std::lock_guard<std::mutex> lk(mu);
      plan_sizes[shard].push_back(plan.requests.size());
      return Status::Ok();
    });

    Rng rng(99);
    ZipfianGenerator hot(512, 0.99);
    auto next = [&]() -> BlockId {
      return zipf ? hot.NextScrambled(rng) : rng.Uniform(512);
    };
    for (int b = 0; b < kBatches; ++b) {
      auto ids = DrawBatch(env.set->router(), kRealPerBatch, kQuota, next);
      ASSERT_TRUE(env.set->ReadBatch(ids).ok());
      if ((b + 1) % 3 == 0) {
        ASSERT_TRUE(env.set->FinishEpoch().ok());
      }
    }
    for (uint32_t s = 0; s < kShards; ++s) {
      ASSERT_EQ(plan_sizes[s].size(), static_cast<size_t>(kBatches)) << "shard " << s;
      for (size_t sz : plan_sizes[s]) {
        EXPECT_EQ(sz, kQuota) << "shard " << s << ": sub-batch not padded to quota";
      }
    }
  };

  run(/*zipf=*/false);
  run(/*zipf=*/true);
}

TEST(ShardObliviousnessTest, PerShardTraceSizesMatchAcrossWorkloads) {
  constexpr uint32_t kShards = 4;
  constexpr size_t kQuota = 8;
  constexpr size_t kRealPerBatch = 16;
  constexpr int kBatches = 36;

  auto run = [&](bool zipf) {
    auto env = MakeSharded(kShards, 512, kQuota, kQuota, /*trace=*/true, /*seed=*/23);
    std::vector<Bytes> values(512);
    EXPECT_TRUE(env.set->Initialize(values).ok());
    Rng rng(7);
    ZipfianGenerator hot(512, 0.99);
    auto next = [&]() -> BlockId {
      return zipf ? hot.NextScrambled(rng) : rng.Uniform(512);
    };
    for (int b = 0; b < kBatches; ++b) {
      auto ids = DrawBatch(env.set->router(), kRealPerBatch, kQuota, next);
      EXPECT_TRUE(env.set->ReadBatch(ids).ok());
      if ((b + 1) % 3 == 0) {
        EXPECT_TRUE(env.set->FinishEpoch().ok());
      }
    }
    std::vector<size_t> trace_sizes(kShards);
    for (uint32_t s = 0; s < kShards; ++s) {
      trace_sizes[s] = env.set->shard_trace(s).ops().size();
      EXPECT_GT(trace_sizes[s], 0u);
    }
    return trace_sizes;
  };

  auto uniform = run(false);
  auto skewed = run(true);
  for (uint32_t s = 0; s < kShards; ++s) {
    double ratio = static_cast<double>(skewed[s]) / static_cast<double>(uniform[s]);
    EXPECT_GT(ratio, 0.92) << "shard " << s << " trace shrank under skew";
    EXPECT_LT(ratio, 1.08) << "shard " << s << " trace grew under skew";
  }
  // Within the skewed run, no shard's trace betrays the hot keys: the
  // largest and smallest per-shard traces stay within a few percent.
  auto [lo, hi] = std::minmax_element(skewed.begin(), skewed.end());
  EXPECT_LT(static_cast<double>(*hi) / static_cast<double>(*lo), 1.08)
      << "per-shard trace sizes diverge under Zipf skew";
}

// ---------------------------------------------------------------------------
// Proxy integration at K=4
// ---------------------------------------------------------------------------

struct ShardedProxyEnv {
  ObladiConfig config;
  std::shared_ptr<MemoryBucketStore> store;
  std::shared_ptr<MemoryLogStore> log;
  std::unique_ptr<ObladiStore> proxy;
};

ShardedProxyEnv MakeShardedProxy(uint32_t shards = 4, uint64_t capacity = 256) {
  ShardedProxyEnv env;
  env.config = ObladiConfig::ForCapacity(capacity, /*z=*/4, /*payload=*/128);
  env.config.num_shards = shards;
  env.config.read_batches_per_epoch = 3;
  env.config.read_batch_size = 16;  // quota 4 per shard
  env.config.write_batch_size = 16;
  env.config.recovery.enabled = true;
  env.config.recovery.full_checkpoint_interval = 4;
  env.config.oram_options.io_threads = 8;
  env.store = std::make_shared<MemoryBucketStore>(
      env.config.StoreBuckets(), env.config.MakeLayout().shard_config.slots_per_bucket());
  env.log = std::make_shared<MemoryLogStore>();
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, env.log);
  return env;
}

std::vector<std::pair<Key, std::string>> SimpleRecords(int n) {
  std::vector<std::pair<Key, std::string>> records;
  for (int i = 0; i < n; ++i) {
    records.emplace_back("key" + std::to_string(i), "value" + std::to_string(i));
  }
  return records;
}

TEST(ShardedProxyTest, ReadYourWritesAcrossShards) {
  auto env = MakeShardedProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(64)).ok());
  // Keys land on all four shards (dense ids stripe mod 4).
  for (int i = 0; i < 8; ++i) {
    CommitWrite(*env.proxy, "key" + std::to_string(i), "updated" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(i)),
              "updated" + std::to_string(i));
  }
  // Untouched keys on every shard still read their loaded values.
  for (int i = 40; i < 44; ++i) {
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(i)),
              "value" + std::to_string(i));
  }
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());
}

TEST(ShardedProxyTest, CommitDecisionArrivesOnlyAtEpochEnd) {
  auto env = MakeShardedProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(32)).ok());

  std::atomic<bool> committed{false};
  std::thread client([&] {
    Timestamp t = env.proxy->Begin();
    ASSERT_TRUE(env.proxy->Write(t, "key1", "epoch-write").ok());
    ASSERT_TRUE(env.proxy->Write(t, "key2", "other-shard").ok());
    Status st = env.proxy->Commit(t);  // blocks until the epoch ends
    EXPECT_TRUE(st.ok()) << st.ToString();
    committed.store(true);
  });

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(committed.load()) << "commit decision leaked before epoch end";
  ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  client.join();
  EXPECT_TRUE(committed.load());
}

TEST(ShardedProxyTest, EpochFateSharing) {
  auto env = MakeShardedProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(32)).ok());

  std::atomic<int> commits{0};
  std::thread c1([&] {
    if (RunTransaction(*env.proxy, [&](Txn& txn) { return txn.Write("key1", "a"); }).ok()) {
      commits.fetch_add(1);
    }
  });
  std::thread c2([&] {
    if (RunTransaction(*env.proxy, [&](Txn& txn) { return txn.Write("key2", "b"); }).ok()) {
      commits.fetch_add(1);
    }
  });
  while (commits.load() < 2) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  }
  c1.join();
  c2.join();
  EXPECT_EQ(commits.load(), 2);
}

TEST(ShardedProxyTest, CrashRecoveryRestoresAllShards) {
  auto env = MakeShardedProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(64)).ok());
  // One committed write per shard before the crash.
  for (int i = 0; i < 4; ++i) {
    CommitWrite(*env.proxy, "key" + std::to_string(i), "before-crash" + std::to_string(i));
  }

  env.proxy->SimulateCrash();
  RecoveryBreakdown breakdown;
  ASSERT_TRUE(env.proxy->RecoverFromCrash(&breakdown).ok());
  EXPECT_GT(breakdown.log_records, 0u);

  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(i)),
              "before-crash" + std::to_string(i));
  }
  EXPECT_EQ(ReadCommitted(*env.proxy, "key17"), "value17");
  EXPECT_TRUE(env.proxy->oram()->CheckInvariants().ok());
}

TEST(ShardedProxyTest, UncommittedEpochRollsBackOnEveryShard) {
  auto env = MakeShardedProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(64)).ok());
  CommitWrite(*env.proxy, "key5", "committed-version");

  // Writes touching two different shards in a fresh epoch; crash before the
  // epoch ends: both must vanish together.
  Timestamp t = env.proxy->Begin();
  ASSERT_TRUE(env.proxy->Write(t, "key5", "doomed").ok());
  ASSERT_TRUE(env.proxy->Write(t, "key6", "also-doomed").ok());

  env.proxy->SimulateCrash();
  ASSERT_TRUE(env.proxy->RecoverFromCrash().ok());

  EXPECT_EQ(ReadCommitted(*env.proxy, "key5"), "committed-version");
  EXPECT_EQ(ReadCommitted(*env.proxy, "key6"), "value6");
}

TEST(ShardedProxyTest, RepeatedCrashesAndRecoveries) {
  auto env = MakeShardedProxy();
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(64)).ok());
  for (int round = 0; round < 3; ++round) {
    std::string value = "round-" + std::to_string(round);
    CommitWrite(*env.proxy, "key" + std::to_string(round), value);
    env.proxy->SimulateCrash();
    ASSERT_TRUE(env.proxy->RecoverFromCrash().ok()) << "round " << round;
    EXPECT_EQ(ReadCommitted(*env.proxy, "key" + std::to_string(round)), value);
  }
  EXPECT_EQ(env.proxy->stats().recoveries, 3u);
}

TEST(ShardedProxyTest, ShardQuotaOverflowAbortsTransaction) {
  // One batch, quota 1 per shard: two distinct keys on the same shard cannot
  // both be fetched this epoch — the second aborts instead of stretching the
  // shard's sub-batch (which would leak the routing).
  ShardedProxyEnv env;
  env.config = ObladiConfig::ForCapacity(64, 4, 128);
  env.config.num_shards = 4;
  env.config.read_batches_per_epoch = 1;
  env.config.read_batch_size = 4;  // quota 1 per shard
  env.config.write_batch_size = 4;
  env.config.recovery.enabled = false;
  env.store = std::make_shared<MemoryBucketStore>(
      env.config.StoreBuckets(), env.config.MakeLayout().shard_config.slots_per_bucket());
  env.proxy = std::make_unique<ObladiStore>(env.config, env.store, nullptr);
  ASSERT_TRUE(env.proxy->Load(SimpleRecords(16)).ok());

  // key0 -> id 0 (shard 0), key4 -> id 4 (shard 0).
  Timestamp ta = env.proxy->Begin();
  Timestamp tb = env.proxy->Begin();
  std::thread f1([&] { (void)env.proxy->Read(ta, "key0"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  auto v = env.proxy->Read(tb, "key4");
  EXPECT_EQ(v.status().code(), StatusCode::kAborted);
  ASSERT_TRUE(env.proxy->FinishEpochNow().ok());
  f1.join();
  EXPECT_GE(env.proxy->stats().batch_overflow_aborts, 1u);
}

// ---------------------------------------------------------------------------
// Scaling: K=4 beats K=1 on a latency-bound backend
// ---------------------------------------------------------------------------

double MeasureShardedThroughput(uint32_t k, double scale) {
  ShardLayout layout = ShardLayout::Make(RingOramConfig::ForCapacity(2048, 4, 64), k);
  ShardedOramOptions options;
  options.oram.io_threads = 32;
  options.oram.verify_decoded_ids = true;
  options.read_quota = 32 / k;
  options.write_quota = 32 / k;
  // One latency decorator (its own DynamoDB-style connection pool) per
  // shard: sharding multiplies the storage connections, which is exactly the
  // cloud deployment the subsystem models.
  std::vector<std::shared_ptr<BucketStore>> stores;
  std::vector<std::shared_ptr<LatencyBucketStore>> latency;
  for (uint32_t s = 0; s < k; ++s) {
    auto base = std::make_shared<MemoryBucketStore>(
        layout.shard_config.num_buckets(), layout.shard_config.slots_per_bucket(),
        /*max_versions=*/2);
    latency.push_back(
        std::make_shared<LatencyBucketStore>(base, LatencyProfile::Dynamo(scale)));
    stores.push_back(latency.back());
  }
  auto encryptor = std::make_shared<Encryptor>(
      Encryptor::FromMasterKey(BytesFromString("scale"), false, k));
  ShardedOramSet set(layout, options, stores, encryptor, /*seed=*/k * 31 + 1);
  for (auto& l : latency) {
    l->SetBypass(true);
  }
  EXPECT_TRUE(set.Initialize(std::vector<Bytes>(2048)).ok());
  for (auto& l : latency) {
    l->SetBypass(false);
  }

  Rng rng(5);
  constexpr int kBatches = 16;
  uint64_t start = NowMicros();
  for (int b = 0; b < kBatches; ++b) {
    auto ids = DrawBatch(set.router(), 32, options.read_quota,
                         [&]() -> BlockId { return rng.Uniform(2048); });
    auto result = set.ReadBatch(ids);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if ((b + 1) % 2 == 0) {
      EXPECT_TRUE(set.FinishEpoch().ok());
    }
  }
  uint64_t elapsed = NowMicros() - start;
  return static_cast<double>(kBatches * 32) / (static_cast<double>(elapsed) / 1e6);
}

TEST(ShardScalingTest, FourShardsOutpaceOneOnDynamoProfile) {
  // Acceptance criterion (3), test-sized: the same 2048-block store behind
  // Dynamo-profile latency serves read batches faster split across 4 shards
  // (4 trees, 4 connection pools) than as one ORAM. bench_shard_scaling
  // sweeps the full K in {1,2,4,8} grid.
  // Paper-scale Dynamo latency (1ms reads / 3ms writes) so the comparison
  // exercises I/O overlap rather than this host's crypto throughput.
  // Alternating K=1/K=4 samples, compared by median: a burst of load from
  // other processes lands on one sample of one side, not on the verdict.
  constexpr int kSamples = 3;
  std::vector<double> k1;
  std::vector<double> k4;
  for (int i = 0; i < kSamples; ++i) {
    k1.push_back(MeasureShardedThroughput(1, /*scale=*/1.0));
    k4.push_back(MeasureShardedThroughput(4, /*scale=*/1.0));
  }
  auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return v[v.size() / 2];
  };
  auto show = [](const std::vector<double>& v) {
    std::string out;
    for (double x : v) {
      out += ' ';
      out += std::to_string(static_cast<int>(x));
    }
    return out;
  };
  EXPECT_GT(median(k4), median(k1) * 1.2)
      << "K=4 ops/s:" << show(k4) << " vs K=1 ops/s:" << show(k1);
}

}  // namespace
}  // namespace obladi
