#include "src/oram/ring_oram.h"

#include <algorithm>
#include <cassert>

#include "src/common/clock.h"

#include "src/obs/trace.h"
#include "src/oram/path.h"

namespace obladi {

RingOram::RingOram(RingOramConfig config, RingOramOptions options,
                   std::shared_ptr<BucketStore> store, std::shared_ptr<Encryptor> encryptor,
                   uint64_t seed)
    : config_(config),
      options_(options),
      store_(std::move(store)),
      encryptor_(std::move(encryptor)),
      codec_(config),
      rng_(seed),
      position_map_(config.capacity),
      loc_(config.capacity) {
  assert(config_.Validate().ok());
  if (!options_.parallel) {
    options_.defer_writes = false;
  }
  meta_.resize(config_.num_buckets());
  for (auto& m : meta_) {
    m.Init(config_.z, config_.s);
  }
  if (options_.enable_trace) {
    trace_.Enable();
  }
  pool_ = std::make_unique<ThreadPool>(options_.parallel ? options_.io_threads : 1);
  size_t cores = std::thread::hardware_concurrency();
  if (cores == 0) {
    cores = 8;
  }
  size_t crypto_threads = options_.parallel ? std::min(options_.io_threads, cores) : 1;
  crypto_pool_ = std::make_unique<ThreadPool>(crypto_threads);
}

RingOram::~RingOram() {
  // Ensure no worker task or retirement completion outlives the object.
  WaitOutstandingReads();
  std::unique_lock<std::mutex> rlk(retire_mu_);
  retire_cv_.wait(rlk, [&] { return retire_outstanding_ == 0; });
}

void RingOram::SetBatchPlannedHook(std::function<Status(const BatchPlan&)> hook) {
  std::lock_guard<std::mutex> lk(mu_);
  planned_hook_ = std::move(hook);
}

RingOramStats RingOram::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  RingOramStats out = stats_;
  // Encryption moved to the retirement stage still counts as materialization.
  out.materialize_us += bg_materialize_us_.load(std::memory_order_relaxed);
  out.early_results += early_results_.load(std::memory_order_relaxed);
  return out;
}

uint64_t RingOram::access_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return access_count_;
}

uint64_t RingOram::evict_count() const {
  std::lock_guard<std::mutex> lk(mu_);
  return evict_count_;
}

EpochId RingOram::epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return epoch_;
}

void RingOram::SetEpoch(EpochId e) {
  std::lock_guard<std::mutex> lk(mu_);
  epoch_ = e;
}

void RingOram::ResetStats() {
  std::lock_guard<std::mutex> lk(mu_);
  stats_ = RingOramStats{};
  bg_materialize_us_.store(0, std::memory_order_relaxed);
  early_results_.store(0, std::memory_order_relaxed);
}

std::vector<BucketIndex> RingOram::TakeDirtyBuckets() {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<BucketIndex> out(dirty_buckets_.begin(), dirty_buckets_.end());
  dirty_buckets_.clear();
  return out;
}

// ---------------------------------------------------------------------------
// Initialization
// ---------------------------------------------------------------------------

Status RingOram::Initialize(const std::vector<Bytes>& values) {
  std::lock_guard<std::mutex> lk(mu_);
  if (values.size() > config_.capacity) {
    return Status::InvalidArgument("more initial values than ORAM capacity");
  }

  // Assign uniform leaves, then pack bottom-up: each bucket takes up to Z of
  // the blocks whose paths pass through it, deepest placement first. This is
  // the densest valid packing; any residue at the root goes to the stash.
  uint32_t leaves = config_.num_leaves();
  std::vector<std::vector<PlannedBlock>> carry(leaves);
  for (BlockId id = 0; id < values.size(); ++id) {
    Leaf leaf = RandomLeaf();
    position_map_.Set(id, leaf);
    carry[leaf].push_back(PlannedBlock{id, leaf, values[id]});
  }

  for (uint32_t level = config_.num_levels; level-- > 0;) {
    uint32_t nodes = 1u << level;
    std::vector<std::vector<PlannedBlock>> next(level == 0 ? 1 : nodes / 2);
    for (uint32_t j = 0; j < nodes; ++j) {
      BucketIndex bucket = (nodes - 1) + j;
      auto& blocks = carry[j];
      std::vector<PlannedBlock> placed;
      while (!blocks.empty() && placed.size() < config_.z) {
        placed.push_back(std::move(blocks.back()));
        blocks.pop_back();
      }
      BucketMeta& mb = meta_[bucket];
      for (size_t i = 0; i < placed.size(); ++i) {
        mb.real_ids[i] = placed[i].id;
        mb.real_leaves[i] = placed[i].leaf;
        loc_[placed[i].id] = BlockLoc{bucket, static_cast<uint32_t>(i)};
      }
      mb.perm = rng_.RandomPermutation(config_.slots_per_bucket());
      buffered_[bucket].rewrite_planned = true;
      buffered_[bucket].blocks = std::move(placed);
      if (level > 0) {
        auto& up = next[j / 2];
        for (auto& b : blocks) {
          up.push_back(std::move(b));
        }
      } else {
        for (auto& b : blocks) {
          StashEntry e;
          e.leaf = b.leaf;
          e.value = std::move(b.value);
          e.value_ready = true;
          stash_.Put(b.id, std::move(e));
          loc_[b.id] = BlockLoc{kLocStash, 0};
        }
      }
      blocks.clear();
    }
    carry = std::move(next);
  }

  // Materialize every bucket at version 0, in parallel.
  std::vector<std::pair<BucketIndex, const std::vector<PlannedBlock>*>> all;
  all.reserve(buffered_.size());
  for (auto& [bucket, bb] : buffered_) {
    all.emplace_back(bucket, &bb.blocks);
  }
  crypto_pool_->ParallelFor(all.size(), [&](size_t i) {
    MaterializeBucket(all[i].first, *all[i].second, /*via_pool=*/true);
  });
  FlushPendingImages();
  buffered_.clear();
  position_map_.ClearDirty();
  dirty_buckets_.clear();
  {
    std::lock_guard<std::mutex> elk(err_mu_);
    OBLADI_RETURN_IF_ERROR(first_error_);
  }
  return Status::Ok();
}

Status RingOram::RestoreState(PositionMap position_map, std::vector<BucketMeta> metas,
                              Stash stash, uint64_t access_count, uint64_t evict_count,
                              EpochId epoch) {
  std::lock_guard<std::mutex> lk(mu_);
  if (metas.size() != meta_.size() || position_map.capacity() != config_.capacity) {
    return Status::InvalidArgument("restored state shape mismatch");
  }
  position_map_ = std::move(position_map);
  meta_ = std::move(metas);
  stash_ = std::move(stash);
  access_count_ = access_count;
  evict_count_ = evict_count;
  epoch_ = epoch;
  batch_in_epoch_ = 0;
  buffered_.clear();
  retiring_.clear();
  retiring_gens_.clear();
  collected_floors_.reset();
  deferred_ops_.clear();
  pending_reads_.clear();
  dirty_buckets_.clear();
  position_map_.ClearDirty();

  // Rebuild the block location index from the recovered components.
  loc_.assign(config_.capacity, BlockLoc{});
  for (BucketIndex b = 0; b < meta_.size(); ++b) {
    const BucketMeta& mb = meta_[b];
    for (uint32_t i = 0; i < mb.z(); ++i) {
      if (mb.real_ids[i] != kInvalidBlockId) {
        loc_[mb.real_ids[i]] = BlockLoc{b, i};
      }
    }
  }
  for (const auto& [id, entry] : stash_.entries()) {
    loc_[id] = BlockLoc{kLocStash, 0};
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------
// Physical IO
// ---------------------------------------------------------------------------

void RingOram::RecordError(const Status& status) {
  std::lock_guard<std::mutex> lk(err_mu_);
  if (first_error_.ok()) {
    first_error_ = status;
  }
}

void RingOram::ExecuteReadNow(const PendingRead& read) {
  ProcessCiphertext(read, store_->ReadSlot(read.bucket, read.version, read.slot));
}

void RingOram::ProcessCiphertext(const PendingRead& read, StatusOr<Bytes> ciphertext) {
  if (!ciphertext.ok()) {
    RecordError(ciphertext.status());
    return;
  }
  StatusOr<Bytes> pt = Status::Internal("uninitialized");
  Bytes aad = config_.authenticated
                  ? BlockCodec::MakeAad(config_.aad_bucket_offset + read.bucket,
                                        read.version, read.slot)
                  : Bytes{};
  if (options_.parallel && !options_.parallel_crypto) {
    std::lock_guard<std::mutex> lk(crypto_mu_);
    pt = encryptor_->Decrypt(*ciphertext, aad);
  } else {
    pt = encryptor_->Decrypt(*ciphertext, aad);
  }
  if (!pt.ok()) {
    RecordError(pt.status());
    return;
  }
  if (read.deposit_id == kInvalidBlockId) {
    return;  // dummy slot: content discarded
  }
  DepositPlaintext(read, *pt);
}

void RingOram::DepositPlaintext(const PendingRead& read, const Bytes& plaintext) {
  DecodedBlock decoded = codec_.DecodeBlock(plaintext);
  if (options_.verify_decoded_ids && decoded.id != read.deposit_id) {
    RecordError(Status::IntegrityViolation("decoded block id mismatch"));
    return;
  }
  bool deliver_early = false;
  {
    std::lock_guard<std::mutex> lk(deposit_mu_);
    if (read.entry != nullptr && read.entry->gen == read.entry_gen &&
        !read.entry->value_ready) {
      read.entry->value = decoded.payload;
      read.entry->value_ready = true;
    }
    if (read.results != nullptr) {
      (*read.results)[read.result_slot] = decoded.payload;
      deliver_early = read.early != nullptr;
    }
  }
  if (deliver_early) {
    // access_r early answer: the client's value is known as soon as its path
    // group decrypts — hand it out before the rest of the batch lands. Fired
    // outside deposit_mu_ so a slow callback cannot stall other deposits.
    (*read.early)(read.result_slot, decoded.payload);
    early_results_.fetch_add(1, std::memory_order_relaxed);
  }
}

void RingOram::EmitRead(BucketIndex bucket, SlotIndex phys_slot, BlockId deposit_id,
                        StashEntry* entry, std::vector<Bytes>* results, size_t result_slot,
                        uint32_t entry_gen, uint32_t path_group) {
  PendingRead read;
  read.bucket = bucket;
  read.version = meta_[bucket].write_count;
  read.slot = phys_slot;
  read.deposit_id = deposit_id;
  read.entry = entry;
  read.results = results;
  read.result_slot = result_slot;
  read.entry_gen = entry_gen;
  read.path_group = path_group;
  read.early = results != nullptr ? current_early_ : nullptr;
  trace_.Record(PhysicalOpType::kReadSlot, read.bucket, read.version, read.slot);
  stats_.physical_slot_reads++;

  if (!options_.parallel) {
    ExecuteReadNow(read);
    return;
  }
  if (options_.defer_writes) {
    pending_reads_.push_back(read);
    return;
  }
  // Eager mode (immediate write phases): dispatch each read as it is planned
  // so eviction barriers have something to wait on.
  {
    std::lock_guard<std::mutex> lk(io_mu_);
    ++outstanding_reads_;
  }
  pool_->Enqueue([this, read] {
    ExecuteReadNow(read);
    {
      // Notify while holding the lock: once the count hits zero the waiter
      // may destroy this object, so the broadcast must not touch io_cv_
      // after the waiter can wake.
      std::lock_guard<std::mutex> lk(io_mu_);
      --outstanding_reads_;
      io_cv_.notify_all();
    }
  });
}

void RingOram::ProcessReadGroup(const std::vector<PendingRead>& group,
                                std::vector<StatusOr<Bytes>> ciphertexts) {
  {
    OBS_SPAN_ARG("oram", "oram.decrypt", group.size());
    for (size_t i = 0; i < group.size(); ++i) {
      ProcessCiphertext(group[i], std::move(ciphertexts[i]));
    }
  }
  {
    // Notify under the lock: the waiter may destroy this object as soon as
    // the count hits zero.
    std::lock_guard<std::mutex> lk(io_mu_);
    --outstanding_reads_;
    io_cv_.notify_all();
  }
}

void RingOram::DispatchPendingReads() {
  if (pending_reads_.empty()) {
    return;
  }
  OBS_SPAN_ARG("oram", "oram.dispatch", pending_reads_.size());
  if (!UseXorPathReads()) {
    DispatchPlainReads(std::move(pending_reads_));
    pending_reads_.clear();
    next_path_group_ = 0;
    return;
  }
  // Partition into per-access path groups (fetched via XOR path reads) and
  // plain slot reads (eviction/reshuffle bucket pulls — several real blocks
  // per bucket, nothing to XOR out).
  std::vector<PendingRead> plain;
  std::vector<std::vector<PendingRead>> groups;
  std::unordered_map<uint32_t, size_t> group_index;
  for (PendingRead& read : pending_reads_) {
    if (read.path_group == kNoPathGroup) {
      plain.push_back(read);
      continue;
    }
    auto [it, inserted] = group_index.emplace(read.path_group, groups.size());
    if (inserted) {
      groups.emplace_back();
    }
    groups[it->second].push_back(read);
  }
  pending_reads_.clear();
  next_path_group_ = 0;  // groups never span a dispatch
  if (!plain.empty()) {
    DispatchPlainReads(std::move(plain));
  }
  if (!groups.empty()) {
    DispatchXorReads(std::move(groups));
  }
}

void RingOram::DispatchPlainReads(std::vector<PendingRead> reads) {
  if (reads.empty()) {
    return;
  }
  // Split the batch's reads into chunks, each issued as one batched storage
  // request: inter- and intra-request parallelism. Every chunk's reply is
  // decrypted by one worker, so ~2x the crypto threads keeps the cores busy
  // while later replies are still in flight; more chunks only add per-RPC
  // framing and wake-ups. Against a blocking store each in-flight chunk
  // holds an I/O thread for its round trip, which io_threads bounds.
  const bool async = options_.parallel && store_->SupportsAsyncBatches();
  size_t max_chunks = 2 * crypto_pool_->num_threads();
  size_t chunk = (reads.size() + max_chunks - 1) / max_chunks;
  size_t num_chunks = (reads.size() + chunk - 1) / chunk;
  {
    std::lock_guard<std::mutex> lk(io_mu_);
    outstanding_reads_ += num_chunks;
  }
  for (size_t start = 0; start < reads.size(); start += chunk) {
    size_t end = std::min(start + chunk, reads.size());
    std::vector<PendingRead> group(reads.begin() + static_cast<ptrdiff_t>(start),
                                   reads.begin() + static_cast<ptrdiff_t>(end));
    if (async) {
      // Submit now (non-blocking); the completion fires on the transport's
      // event-loop thread and hands the ciphertexts to the I/O pool for
      // decryption — the loop thread never does crypto.
      std::vector<SlotRef> refs;
      refs.reserve(group.size());
      for (const PendingRead& read : group) {
        refs.push_back(SlotRef{read.bucket, read.version, read.slot});
      }
      auto shared_group = std::make_shared<std::vector<PendingRead>>(std::move(group));
      store_->ReadSlotsBatchAsync(
          std::move(refs), [this, shared_group](std::vector<StatusOr<Bytes>> ciphertexts) {
            pool_->Enqueue([this, shared_group, cts = std::move(ciphertexts)]() mutable {
              ProcessReadGroup(*shared_group, std::move(cts));
            });
          });
    } else {
      pool_->Enqueue([this, group = std::move(group)] {
        std::vector<SlotRef> refs;
        refs.reserve(group.size());
        for (const PendingRead& read : group) {
          refs.push_back(SlotRef{read.bucket, read.version, read.slot});
        }
        ProcessReadGroup(group, store_->ReadSlotsBatch(refs));
      });
    }
  }
}

void RingOram::DispatchXorReads(std::vector<std::vector<PendingRead>> groups) {
  // Same chunking rationale as DispatchPlainReads, over paths instead of
  // slots: each chunk is one kReadPathsXor request carrying many paths.
  const bool async = options_.parallel && store_->SupportsAsyncBatches();
  const uint32_t header_bytes = Encryptor::kNonceSize;
  const uint32_t trailer_bytes = encryptor_->authenticated() ? Encryptor::kTagSize : 0;
  size_t max_chunks = 2 * crypto_pool_->num_threads();
  size_t chunk = (groups.size() + max_chunks - 1) / max_chunks;
  size_t num_chunks = (groups.size() + chunk - 1) / chunk;
  stats_.xor_path_reads += groups.size();
  {
    std::lock_guard<std::mutex> lk(io_mu_);
    outstanding_reads_ += num_chunks;
  }
  for (size_t start = 0; start < groups.size(); start += chunk) {
    size_t end = std::min(start + chunk, groups.size());
    auto sub = std::make_shared<std::vector<std::vector<PendingRead>>>(
        std::make_move_iterator(groups.begin() + static_cast<ptrdiff_t>(start)),
        std::make_move_iterator(groups.begin() + static_cast<ptrdiff_t>(end)));
    std::vector<PathSlots> paths;
    paths.reserve(sub->size());
    for (const auto& path : *sub) {
      PathSlots refs;
      refs.slots.reserve(path.size());
      for (const PendingRead& read : path) {
        refs.slots.push_back(SlotRef{read.bucket, read.version, read.slot});
      }
      paths.push_back(std::move(refs));
    }
    if (async) {
      store_->ReadPathsXorAsync(
          std::move(paths), header_bytes, trailer_bytes,
          [this, sub](std::vector<StatusOr<PathXorResult>> results) {
            pool_->Enqueue([this, sub, res = std::move(results)]() mutable {
              ProcessXorChunk(*sub, std::move(res));
            });
          });
    } else {
      pool_->Enqueue([this, sub, paths = std::move(paths), header_bytes, trailer_bytes] {
        ProcessXorChunk(*sub, store_->ReadPathsXor(paths, header_bytes, trailer_bytes));
      });
    }
  }
}

void RingOram::ProcessXorChunk(const std::vector<std::vector<PendingRead>>& paths,
                               std::vector<StatusOr<PathXorResult>> results) {
  if (results.size() != paths.size()) {
    RecordError(Status::IntegrityViolation("xor read reply has wrong path count"));
  } else {
    for (size_t i = 0; i < paths.size(); ++i) {
      ProcessPathXorGroup(paths[i], std::move(results[i]));
    }
  }
  {
    // Notify under the lock: the waiter may destroy this object as soon as
    // the count hits zero.
    std::lock_guard<std::mutex> lk(io_mu_);
    --outstanding_reads_;
    io_cv_.notify_all();
  }
}

void RingOram::ProcessPathXorGroup(const std::vector<PendingRead>& path,
                                   StatusOr<PathXorResult> result) {
  if (!result.ok()) {
    RecordError(result.status());
    return;
  }
  const size_t nonce_len = Encryptor::kNonceSize;
  const bool auth = encryptor_->authenticated();
  const size_t edge = nonce_len + (auth ? Encryptor::kTagSize : 0);
  const size_t body_len = codec_.plaintext_size();
  if (result->headers.size() != path.size() * edge || result->body_xor.size() != body_len) {
    RecordError(Status::IntegrityViolation("malformed xor path read reply"));
    return;
  }

  // XOR the regenerated dummy bodies back out; whatever survives is the
  // target's ciphertext body (or zero on an all-dummy path). Every slot's
  // tag is verified against its regenerated (or recovered) body, so
  // authenticated mode loses nothing to the reduction: a forged header,
  // body, or tag fails exactly as it would on the slot-by-slot path.
  Bytes body = std::move(result->body_xor);
  const PendingRead* target = nullptr;
  const uint8_t* target_header = nullptr;
  for (size_t i = 0; i < path.size(); ++i) {
    const uint8_t* header = result->headers.data() + i * edge;
    if (path[i].deposit_id != kInvalidBlockId) {
      target = &path[i];
      target_header = header;
      continue;
    }
    // Keystream + MAC both count as crypto for the !parallel_crypto
    // ablation, exactly like the Decrypt call on the slot-by-slot path.
    Bytes dummy_body;
    bool tag_ok = true;
    auto regen_and_verify = [&] {
      dummy_body = encryptor_->ApplyKeystream(header, codec_.DummyPlaintext());
      if (auth) {
        Bytes aad = BlockCodec::MakeAad(config_.aad_bucket_offset + path[i].bucket,
                                        path[i].version, path[i].slot);
        tag_ok = encryptor_->VerifyBodyTag(header, dummy_body.data(), dummy_body.size(), aad,
                                           header + nonce_len);
      }
    };
    if (options_.parallel && !options_.parallel_crypto) {
      std::lock_guard<std::mutex> lk(crypto_mu_);
      regen_and_verify();
    } else {
      regen_and_verify();
    }
    if (!tag_ok) {
      RecordError(Status::IntegrityViolation("bucket MAC mismatch"));
      return;
    }
    for (size_t b = 0; b < body_len; ++b) {
      body[b] ^= dummy_body[b];
    }
  }

  if (target == nullptr) {
    // All-dummy path (padding request or stash-resident access): the
    // residue must cancel to zero. In authenticated mode the tags above
    // already pin every body; this check closes the gap in plain mode.
    for (uint8_t b : body) {
      if (b != 0) {
        RecordError(Status::IntegrityViolation("nonzero xor residue on dummy path"));
        return;
      }
    }
    return;
  }
  bool target_tag_ok = true;
  Bytes plaintext;
  auto verify_and_decrypt = [&] {
    if (auth) {
      Bytes aad = BlockCodec::MakeAad(config_.aad_bucket_offset + target->bucket,
                                      target->version, target->slot);
      target_tag_ok = encryptor_->VerifyBodyTag(target_header, body.data(), body.size(), aad,
                                                target_header + nonce_len);
      if (!target_tag_ok) {
        return;
      }
    }
    plaintext = encryptor_->ApplyKeystream(target_header, body);
  };
  if (options_.parallel && !options_.parallel_crypto) {
    std::lock_guard<std::mutex> lk(crypto_mu_);
    verify_and_decrypt();
  } else {
    verify_and_decrypt();
  }
  if (!target_tag_ok) {
    RecordError(Status::IntegrityViolation("bucket MAC mismatch"));
    return;
  }
  DepositPlaintext(*target, plaintext);
}

void RingOram::WaitOutstandingReads() {
  std::unique_lock<std::mutex> lk(io_mu_);
  io_cv_.wait(lk, [&] { return outstanding_reads_ == 0; });
}

// ---------------------------------------------------------------------------
// Access planning
// ---------------------------------------------------------------------------

Status RingOram::PlanAccess(BlockId id, std::optional<Leaf> forced_leaf, BatchPlan& plan,
                            std::vector<Bytes>* results, size_t result_slot) {
  bool is_real = id != kInvalidBlockId;
  Leaf path_leaf;
  BucketIndex target_bucket = kLocNone;
  uint32_t target_slot = 0;
  StashEntry* entry = nullptr;
  bool from_retiring = false;
  Bytes retiring_value;

  if (is_real) {
    if (id >= config_.capacity) {
      return Status::InvalidArgument("block id out of range");
    }
    if (!position_map_.Contains(id)) {
      return Status::NotFound("block was never written");
    }
    path_leaf = position_map_.Get(id);
    if (forced_leaf.has_value() && *forced_leaf != path_leaf) {
      // Multi-epoch replay: an earlier replayed epoch already re-accessed
      // this block and remapped it, so the logged leaf no longer matches the
      // position map. The original execution read the logged path, so this
      // replay must touch the same slots — execute it as a pure dummy path
      // read at the logged leaf and leave the block's current state alone
      // (the earlier replay already deposited its value).
      is_real = false;
      path_leaf = *forced_leaf;
    }
  }

  if (is_real) {
    BlockLoc loc = loc_[id];
    if (loc.bucket == kLocStash) {
      entry = stash_.Find(id);
      assert(entry != nullptr);
    } else if (loc.bucket == kLocNone) {
      return Status::NotFound("block has no physical location");
    } else {
      auto rit = retiring_.find(loc.bucket);
      if (rit != retiring_.end()) {
        // The block sits in a bucket whose new version is still in flight:
        // serve the value from the retiring buffer (the physical read of the
        // in-flight version is skipped, like any retiring path level below).
        // Any live generation's buffer can serve — loc_ points here only
        // while the buffered copy is the freshest.
        for (const PlannedBlock& blk : rit->second.blocks) {
          if (blk.id == id) {
            retiring_value = blk.value;
            from_retiring = true;
            break;
          }
        }
        if (!from_retiring) {
          return Status::Internal("retiring bucket lost a resident block");
        }
        target_bucket = loc.bucket;  // slot cleared below; no physical read
        target_slot = loc.slot;
      } else {
        target_bucket = loc.bucket;
        target_slot = loc.slot;
      }
    }

    // Remap to a fresh uniform leaf (path invariant).
    Leaf new_leaf = RandomLeaf();
    position_map_.Set(id, new_leaf);

    if (from_retiring) {
      // Move the block to the stash with its buffered value; the bucket slot
      // empties exactly as a physical pull would have (the server-side slot
      // becomes an unreferenced real slot the next rewrite discards).
      StashEntry fresh;
      fresh.leaf = new_leaf;
      fresh.value = std::move(retiring_value);
      fresh.value_ready = true;
      fresh.from_logical_access = true;
      entry = stash_.Put(id, std::move(fresh));
      loc_[id] = BlockLoc{kLocStash, 0};
      BucketMeta& mb = meta_[target_bucket];
      assert(mb.real_ids[target_slot] == id);
      mb.real_ids[target_slot] = kInvalidBlockId;
      mb.real_leaves[target_slot] = kInvalidLeaf;
      dirty_buckets_.insert(target_bucket);
      target_bucket = kLocNone;  // nothing to read physically
      if (results != nullptr) {
        (*results)[result_slot] = entry->value;
      }
    } else if (entry != nullptr) {
      // Stash-resident block. Physically this is a dummy path read along the
      // old leaf; logically the entry is now the product of a logical access.
      entry->leaf = new_leaf;
      entry->from_logical_access = true;
      if (results != nullptr) {
        if (entry->value_ready) {
          (*results)[result_slot] = entry->value;
        } else {
          // Value still in flight (pulled by an earlier eviction); copy it out
          // after the next read barrier, before any flush can move it.
          lazy_results_.push_back(LazyResult{id, results, result_slot});
        }
      }
    } else {
      // Block lives in the tree: pull it into the stash (value in flight).
      StashEntry fresh;
      fresh.leaf = new_leaf;
      fresh.value_ready = false;
      fresh.from_logical_access = true;
      entry = stash_.Put(id, std::move(fresh));
      loc_[id] = BlockLoc{kLocStash, 0};
      BucketMeta& mb = meta_[target_bucket];
      assert(mb.real_ids[target_slot] == id);
      mb.real_ids[target_slot] = kInvalidBlockId;
      mb.real_leaves[target_slot] = kInvalidLeaf;
      dirty_buckets_.insert(target_bucket);
    }
  } else {
    path_leaf = forced_leaf.has_value() ? *forced_leaf : RandomLeaf();
  }

  plan.requests.push_back(PlannedRequest{id, path_leaf});
  stats_.logical_accesses++;

  bool skip_physical = options_.cache_all_stash && is_real && target_bucket == kLocNone;
  if (skip_physical) {
    // INSECURE ablation (§6.3): serving stash-resident blocks without a dummy
    // path read skews the observable leaf distribution.
    stats_.stash_cache_skips++;
  } else {
    std::vector<BucketIndex> reshuffle_candidates;
    // All physical reads of this access form one path group: at most one of
    // them (the target) is a real slot, every other is a dummy slot with a
    // deterministic plaintext — exactly the shape the XOR read collapses.
    // Stash-resident and retiring-served accesses still emit a full dummy
    // path group, so the server-visible shape stays workload independent.
    uint32_t path_group = UseXorPathReads() ? next_path_group_++ : kNoPathGroup;
    for (uint32_t level = 0; level < config_.num_levels; ++level) {
      BucketIndex bucket = PathBucket(path_leaf, level, config_.num_levels);
      if (options_.defer_writes) {
        if (retiring_.count(bucket) != 0) {
          // The bucket's new version is still in flight from the previous
          // epoch's retirement: no physical read (the in-flight version has
          // been read zero times, so the Lemma 2 argument applies).
          stats_.retiring_bucket_skips++;
          continue;
        }
        auto it = buffered_.find(bucket);
        if (it != buffered_.end() && it->second.fully_read) {
          // Already consumed by an eviction/reshuffle this epoch: served from
          // the proxy's buffered copy, no physical read (Lemma 2).
          stats_.buffered_bucket_skips++;
          continue;
        }
      }
      BucketMeta& mb = meta_[bucket];
      SlotIndex phys;
      BlockId deposit = kInvalidBlockId;
      uint32_t gen = 0;
      if (bucket == target_bucket) {
        phys = mb.perm[target_slot];
        assert(mb.valid[phys]);
        deposit = id;
        gen = entry->gen;
      } else {
        assert(mb.dummies_used < config_.s);
        phys = mb.perm[config_.z + mb.dummies_used];
        assert(mb.valid[phys]);
        mb.dummies_used++;
      }
      mb.valid[phys] = 0;
      mb.reads_since_write++;
      dirty_buckets_.insert(bucket);
      EmitRead(bucket, phys, deposit, deposit != kInvalidBlockId ? entry : nullptr,
               deposit != kInvalidBlockId ? results : nullptr, result_slot, gen, path_group);
      if (mb.reads_since_write >= config_.s) {
        reshuffle_candidates.push_back(bucket);
      }
    }
    for (BucketIndex bucket : reshuffle_candidates) {
      ScheduleReshuffle(bucket);
    }
  }

  BumpAccessCounter();
  return Status::Ok();
}

void RingOram::BumpAccessCounter() {
  ++access_count_;
  if (access_count_ % config_.a == 0) {
    ScheduleEviction();
  }
}

void RingOram::BucketReadPhase(BucketIndex bucket) {
  BucketMeta& mb = meta_[bucket];
  uint32_t reads = 0;
  for (uint32_t i = 0; i < config_.z; ++i) {
    BlockId id = mb.real_ids[i];
    if (id == kInvalidBlockId) {
      continue;
    }
    SlotIndex phys = mb.perm[i];
    assert(mb.valid[phys]);
    mb.valid[phys] = 0;

    // Move the block to the stash *without* remapping (this is not a logical
    // access); value arrives with the physical read.
    StashEntry fresh;
    fresh.leaf = mb.real_leaves[i];
    fresh.value_ready = false;
    fresh.from_logical_access = false;
    StashEntry* entry = stash_.Put(id, std::move(fresh));
    loc_[id] = BlockLoc{kLocStash, 0};
    mb.real_ids[i] = kInvalidBlockId;
    mb.real_leaves[i] = kInvalidLeaf;
    EmitRead(bucket, phys, id, entry, nullptr, 0, entry->gen);
    ++reads;
  }
  // Pad with valid dummies up to Z total reads (canonical Ring ORAM).
  while (reads < config_.z && mb.dummies_used < config_.s) {
    SlotIndex phys = mb.perm[config_.z + mb.dummies_used];
    if (!mb.valid[phys]) {
      mb.dummies_used++;
      continue;
    }
    mb.valid[phys] = 0;
    mb.dummies_used++;
    EmitRead(bucket, phys, kInvalidBlockId, nullptr, nullptr, 0, 0);
    ++reads;
  }
  dirty_buckets_.insert(bucket);
}

bool RingOram::AbsorbRetiringBucket(BucketIndex bucket) {
  auto it = retiring_.find(bucket);
  if (it == retiring_.end()) {
    return false;
  }
  // Pull the buffered contents into the stash with no physical reads (the
  // in-flight version has never been read). Blocks that already moved out —
  // served to a logical access or overwritten — are skipped via loc_.
  BucketMeta& mb = meta_[bucket];
  for (auto& blk : it->second.blocks) {
    if (loc_[blk.id].bucket != bucket) {
      continue;
    }
    StashEntry fresh;
    fresh.leaf = blk.leaf;
    fresh.value = std::move(blk.value);
    fresh.value_ready = true;
    fresh.from_logical_access = false;
    stash_.Put(blk.id, std::move(fresh));
    loc_[blk.id] = BlockLoc{kLocStash, 0};
  }
  mb.real_ids.assign(config_.z, kInvalidBlockId);
  mb.real_leaves.assign(config_.z, kInvalidLeaf);
  dirty_buckets_.insert(bucket);
  retiring_.erase(it);
  stats_.retiring_bucket_skips++;
  return true;
}

void RingOram::ScheduleReshuffle(BucketIndex bucket) {
  if (options_.defer_writes) {
    auto& bb = buffered_[bucket];
    if (bb.fully_read) {
      return;  // already consumed this epoch; its rewrite is already planned
    }
    if (!AbsorbRetiringBucket(bucket)) {
      BucketReadPhase(bucket);
    }
    bb.fully_read = true;
    deferred_ops_.push_back(DeferredOp{DeferredOpType::kReshuffle, kInvalidLeaf, bucket});
  } else {
    BucketReadPhase(bucket);
    WaitOutstandingReads();
    ResolveLazyResults();
    FlushBucket(bucket);
    // Materialize immediately (write phase at the trigger point).
    auto it = buffered_.find(bucket);
    if (it != buffered_.end() && it->second.rewrite_planned) {
      trace_.Record(PhysicalOpType::kWriteBucket, bucket, meta_[bucket].write_count,
                    kInvalidSlot);
      stats_.physical_bucket_writes++;
      MaterializeBucket(bucket, it->second.blocks, /*via_pool=*/false);
      buffered_.erase(it);
    }
  }
  stats_.early_reshuffles++;
}

void RingOram::ScheduleEviction() {
  Leaf leaf = EvictionLeaf(evict_count_, config_.num_levels);
  ++evict_count_;
  stats_.evictions++;

  // Read phase: pull every remaining valid real block on the path into the
  // stash (buckets already consumed this epoch are skipped — their blocks are
  // in the stash or in planned buckets already).
  for (uint32_t level = 0; level < config_.num_levels; ++level) {
    BucketIndex bucket = PathBucket(leaf, level, config_.num_levels);
    if (options_.defer_writes) {
      auto& bb = buffered_[bucket];
      if (bb.fully_read) {
        stats_.buffered_bucket_skips++;
        continue;
      }
      if (!AbsorbRetiringBucket(bucket)) {
        BucketReadPhase(bucket);
      }
      bb.fully_read = true;
    } else {
      BucketReadPhase(bucket);
    }
  }

  if (options_.defer_writes) {
    deferred_ops_.push_back(DeferredOp{DeferredOpType::kEvictPath, leaf, 0});
  } else {
    WaitOutstandingReads();
    ResolveLazyResults();
    FlushPath(leaf);
    // Materialize the rewritten path immediately.
    std::vector<std::pair<BucketIndex, const std::vector<PlannedBlock>*>> to_write;
    for (auto& [bucket, bb] : buffered_) {
      if (bb.rewrite_planned) {
        to_write.emplace_back(bucket, &bb.blocks);
      }
    }
    for (const auto& [bucket, blocks] : to_write) {
      trace_.Record(PhysicalOpType::kWriteBucket, bucket, meta_[bucket].write_count,
                    kInvalidSlot);
      stats_.physical_bucket_writes++;
    }
    if (options_.parallel) {
      crypto_pool_->ParallelFor(to_write.size(), [&](size_t i) {
        MaterializeBucket(to_write[i].first, *to_write[i].second, /*via_pool=*/true);
      });
      FlushPendingImages();
    } else {
      for (const auto& [bucket, blocks] : to_write) {
        MaterializeBucket(bucket, *blocks, /*via_pool=*/false);
      }
    }
    buffered_.clear();
  }
}

void RingOram::ResolveLazyResults() {
  for (auto it = lazy_results_.begin(); it != lazy_results_.end();) {
    StashEntry* entry = stash_.Find(it->id);
    if (entry != nullptr && entry->value_ready) {
      (*it->results)[it->slot] = entry->value;
      it = lazy_results_.erase(it);
    } else {
      ++it;
    }
  }
}

// ---------------------------------------------------------------------------
// Flushing (eviction/reshuffle write phases)
// ---------------------------------------------------------------------------

void RingOram::PullPlannedBlocks(BucketIndex bucket) {
  auto it = buffered_.find(bucket);
  if (it == buffered_.end() || !it->second.rewrite_planned) {
    return;
  }
  BucketMeta& mb = meta_[bucket];
  for (auto& blk : it->second.blocks) {
    StashEntry e;
    e.leaf = blk.leaf;
    e.value = std::move(blk.value);
    e.value_ready = true;
    stash_.Put(blk.id, std::move(e));
    loc_[blk.id] = BlockLoc{kLocStash, 0};
  }
  it->second.blocks.clear();
  it->second.rewrite_planned = false;
  mb.real_ids.assign(config_.z, kInvalidBlockId);
  mb.real_leaves.assign(config_.z, kInvalidLeaf);
}

std::vector<RingOram::PlannedBlock> RingOram::SelectStashBlocksFor(BucketIndex bucket,
                                                                   Leaf target_leaf,
                                                                   uint32_t level) {
  std::vector<PlannedBlock> out;
  for (auto& [id, entry] : stash_.entries()) {
    if (out.size() >= config_.z) {
      break;
    }
    if (!entry.value_ready) {
      continue;  // should not happen after the pre-flush barrier
    }
    bool fits;
    if (target_leaf == kInvalidLeaf) {
      fits = PathContains(entry.leaf, bucket, config_.num_levels);
    } else {
      fits = CommonPathLevels(entry.leaf, target_leaf, config_.num_levels) > level;
    }
    if (fits) {
      out.push_back(PlannedBlock{id, entry.leaf, entry.value});
    }
  }
  for (const auto& blk : out) {
    stash_.Erase(blk.id);
  }
  return out;
}

void RingOram::PlaceAndRewrite(BucketIndex bucket, std::vector<PlannedBlock> blocks) {
  BucketMeta& mb = meta_[bucket];
  mb.real_ids.assign(config_.z, kInvalidBlockId);
  mb.real_leaves.assign(config_.z, kInvalidLeaf);
  for (size_t i = 0; i < blocks.size(); ++i) {
    mb.real_ids[i] = blocks[i].id;
    mb.real_leaves[i] = blocks[i].leaf;
    loc_[blocks[i].id] = BlockLoc{bucket, static_cast<uint32_t>(i)};
  }
  mb.perm = rng_.RandomPermutation(config_.slots_per_bucket());
  mb.valid.assign(config_.slots_per_bucket(), 1);
  mb.reads_since_write = 0;
  mb.dummies_used = 0;
  mb.write_count++;
  dirty_buckets_.insert(bucket);
  stats_.planned_bucket_rewrites++;

  auto& bb = buffered_[bucket];
  bb.rewrite_planned = true;
  bb.blocks = std::move(blocks);
}

void RingOram::FlushPath(Leaf leaf) {
  // A bucket rewritten earlier this epoch contributes its planned blocks back
  // to the stash so this flush can repack them (write deduplication).
  for (uint32_t level = 0; level < config_.num_levels; ++level) {
    PullPlannedBlocks(PathBucket(leaf, level, config_.num_levels));
  }
  // Deepest-first placement maximizes how far blocks descend.
  for (uint32_t level = config_.num_levels; level-- > 0;) {
    BucketIndex bucket = PathBucket(leaf, level, config_.num_levels);
    PlaceAndRewrite(bucket, SelectStashBlocksFor(bucket, leaf, level));
  }
}

void RingOram::FlushBucket(BucketIndex bucket) {
  PullPlannedBlocks(bucket);
  PlaceAndRewrite(bucket, SelectStashBlocksFor(bucket, kInvalidLeaf, 0));
}

// Shared slot-encryption loop for both materialization paths. A bucket's
// planned blocks always occupy the dense logical-slot prefix [0,
// blocks.size()) — PlaceAndRewrite/Initialize assign real_ids exactly from
// the blocks vector, and nothing clears a slot between planning and
// materialization (both run under mu_ in the same flush).
std::vector<Bytes> RingOram::EncryptBucketSlots(BucketIndex bucket, uint32_t version,
                                                const std::vector<SlotIndex>& perm,
                                                const std::vector<PlannedBlock>& blocks) {
  uint32_t num_slots = config_.slots_per_bucket();
  std::vector<Bytes> slots(num_slots);
  for (uint32_t logical = 0; logical < num_slots; ++logical) {
    SlotIndex phys = perm[logical];
    const bool real = logical < config_.z && logical < blocks.size();
    Bytes encoded;
    if (real) {
      encoded = codec_.EncodeBlock(blocks[logical].id, blocks[logical].leaf, blocks[logical].value);
    }
    const Bytes& plaintext = real ? encoded : codec_.DummyPlaintext();
    Bytes aad = config_.authenticated
                    ? BlockCodec::MakeAad(config_.aad_bucket_offset + bucket, version, phys)
                    : Bytes{};
    if (options_.parallel && !options_.parallel_crypto) {
      std::lock_guard<std::mutex> lk(crypto_mu_);
      slots[phys] = encryptor_->Encrypt(plaintext, aad);
    } else {
      slots[phys] = encryptor_->Encrypt(plaintext, aad);
    }
  }
  return slots;
}

void RingOram::MaterializeBucket(BucketIndex bucket, const std::vector<PlannedBlock>& blocks,
                                 bool via_pool) {
  const BucketMeta& mb = meta_[bucket];
  uint32_t version = mb.write_count;
  assert(blocks.size() <= config_.z);
  std::vector<Bytes> slots = EncryptBucketSlots(bucket, version, mb.perm, blocks);
  // Buffer the encrypted image; the caller flushes all images of this write
  // phase as one batched storage request (the physical analogue of the
  // paper's parallel write-back).
  if (via_pool && options_.parallel) {
    std::lock_guard<std::mutex> lk(images_mu_);
    pending_images_.push_back(BucketImage{bucket, version, std::move(slots)});
    return;
  }
  Status st = store_->WriteBucket(bucket, version, std::move(slots));
  if (!st.ok()) {
    RecordError(st);
  }
}

void RingOram::FlushPendingImages() {
  std::vector<BucketImage> images;
  {
    std::lock_guard<std::mutex> lk(images_mu_);
    images.swap(pending_images_);
  }
  if (images.empty()) {
    return;
  }
  OBS_SPAN_ARG("oram", "oram.flush", images.size());
  if (options_.parallel && store_->SupportsAsyncBatches() && images.size() > 1) {
    // Submit the epoch's write-back as many concurrent sub-batches and wait
    // on one completion set: the event loop keeps them all in flight, the
    // server's worker pool executes them in parallel, and no proxy thread
    // blocks per request.
    size_t max_chunks = 2 * pool_->num_threads();
    size_t chunk = (images.size() + max_chunks - 1) / max_chunks;
    size_t num_chunks = (images.size() + chunk - 1) / chunk;
    CountdownLatch latch(num_chunks);
    std::vector<Status> results(num_chunks, Status::Ok());
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t start = c * chunk;
      size_t end = std::min(start + chunk, images.size());
      std::vector<BucketImage> sub(std::make_move_iterator(images.begin() +
                                                           static_cast<ptrdiff_t>(start)),
                                   std::make_move_iterator(images.begin() +
                                                           static_cast<ptrdiff_t>(end)));
      store_->WriteBucketsBatchAsync(std::move(sub), [&results, &latch, c](Status st) {
        results[c] = std::move(st);
        latch.CountDown();
      });
    }
    latch.Wait();
    for (const Status& st : results) {
      if (!st.ok()) {
        RecordError(st);
      }
    }
    return;
  }
  Status st = store_->WriteBucketsBatch(std::move(images));
  if (!st.ok()) {
    RecordError(st);
  }
}

void RingOram::RetireChunkDone(const std::shared_ptr<RetireTicket>& ticket, Status st) {
  // Notify under the lock: AwaitRetireDurable's caller may destroy this
  // object as soon as the count hits zero.
  std::lock_guard<std::mutex> rlk(retire_mu_);
  if (!st.ok() && ticket->error.ok()) {
    ticket->error = st;
  }
  --ticket->outstanding;
  --retire_outstanding_;
  retire_cv_.notify_all();
}

BucketImage RingOram::EncryptRetireImage(const RetireImagePlan& plan) {
  return BucketImage{plan.bucket, plan.version,
                     EncryptBucketSlots(plan.bucket, plan.version, plan.perm, plan.blocks)};
}

void RingOram::SubmitImagesAsync(std::vector<BucketImage> images,
                                 std::shared_ptr<RetireTicket> ticket) {
  if (images.empty()) {
    return;
  }
  if (options_.parallel && store_->SupportsAsyncBatches() && images.size() > 1) {
    // True submissions: the event loop keeps every sub-batch in flight and
    // the completions land on RetireChunkDone — no proxy thread blocks.
    size_t max_chunks = 2 * pool_->num_threads();
    size_t chunk = (images.size() + max_chunks - 1) / max_chunks;
    size_t num_chunks = (images.size() + chunk - 1) / chunk;
    {
      std::lock_guard<std::mutex> rlk(retire_mu_);
      ticket->outstanding += num_chunks;
      retire_outstanding_ += num_chunks;
    }
    for (size_t c = 0; c < num_chunks; ++c) {
      size_t start = c * chunk;
      size_t end = std::min(start + chunk, images.size());
      std::vector<BucketImage> sub(
          std::make_move_iterator(images.begin() + static_cast<ptrdiff_t>(start)),
          std::make_move_iterator(images.begin() + static_cast<ptrdiff_t>(end)));
      store_->WriteBucketsBatchAsync(std::move(sub), [this, ticket](Status st) {
        RetireChunkDone(ticket, std::move(st));
      });
    }
    return;
  }
  // Blocking store: the batched write occupies one pool thread for its round
  // trip, but the caller still returns immediately — the overlap the epoch
  // pipeline needs survives a synchronous backend.
  {
    std::lock_guard<std::mutex> rlk(retire_mu_);
    ++ticket->outstanding;
    ++retire_outstanding_;
  }
  pool_->Enqueue([this, ticket, images = std::move(images)]() mutable {
    RetireChunkDone(ticket, store_->WriteBucketsBatch(std::move(images)));
  });
}

// ---------------------------------------------------------------------------
// Batched operations
// ---------------------------------------------------------------------------

StatusOr<std::vector<Bytes>> RingOram::RunReadBatch(const std::vector<BlockId>& ids,
                                                    const BatchPlan* replay_plan,
                                                    const EarlyResultFn* early) {
  std::lock_guard<std::mutex> lk(mu_);
  SpanGuard obs_span("oram", "oram.read_batch", epoch_);
  std::vector<Bytes> results(ids.size());
  BatchPlan plan;
  plan.epoch = epoch_;
  plan.batch_index = batch_in_epoch_++;

  current_early_ = early;
  for (size_t i = 0; i < ids.size(); ++i) {
    std::optional<Leaf> forced;
    if (replay_plan != nullptr) {
      forced = replay_plan->requests[i].leaf;
    }
    Status st = PlanAccess(ids[i], forced, plan, &results, i);
    if (!st.ok()) {
      current_early_ = nullptr;
      return st;
    }
  }
  current_early_ = nullptr;

  if (planned_hook_ && replay_plan == nullptr) {
    OBLADI_RETURN_IF_ERROR(planned_hook_(plan));
  }
  {
    // access_r stage: dispatch the batch's path reads and wait them out.
    // Early answers fire from the I/O threads inside this window.
    OBS_SPAN_ARG("sched", "sched.read_stage", ids.size());
    DispatchPendingReads();
    WaitOutstandingReads();
  }
  ResolveLazyResults();

  {
    std::lock_guard<std::mutex> elk(err_mu_);
    if (!first_error_.ok()) {
      Status err = first_error_;
      first_error_ = Status::Ok();
      return err;
    }
  }
  return results;
}

StatusOr<std::vector<Bytes>> RingOram::ReadBatch(const std::vector<BlockId>& ids) {
  return RunReadBatch(ids, nullptr, nullptr);
}

StatusOr<std::vector<Bytes>> RingOram::ReadBatch(const std::vector<BlockId>& ids,
                                                 const EarlyResultFn& early) {
  return RunReadBatch(ids, nullptr, early ? &early : nullptr);
}

StatusOr<std::vector<Bytes>> RingOram::ReplayReadBatch(const BatchPlan& plan) {
  std::vector<BlockId> ids;
  ids.reserve(plan.requests.size());
  for (const auto& req : plan.requests) {
    ids.push_back(req.id);
  }
  return RunReadBatch(ids, &plan, nullptr);
}

void RingOram::AdvanceWriteSchedule(size_t bumps) {
  std::lock_guard<std::mutex> lk(mu_);
  // Pure schedule movement: exactly what the write batch's padding bumps
  // would do at the close, shifted into the epoch. Triggered eviction/
  // reshuffle read phases land in pending_reads_ and — with the sub-epoch
  // scheduler — dispatch immediately (the decoupled access_w read stage),
  // overlapping the next batch's plan logging and answer delivery. These
  // pulls are schedule-derived, never plan-logged, so dispatching them
  // before the next batch's WAL append preserves §8's log-before-read
  // discipline; replay re-derives them from the same schedule. Without the
  // scheduler they park until the next batch's dispatch wave, as before.
  for (size_t i = 0; i < bumps; ++i) {
    BumpAccessCounter();
  }
  if (options_.eager_evict_dispatch && options_.parallel && options_.defer_writes &&
      !pending_reads_.empty()) {
    OBS_SPAN_ARG("sched", "sched.evict_stage", pending_reads_.size());
    stats_.eager_evict_dispatches++;
    DispatchPendingReads();
  }
}

Status RingOram::ApplyWriteValues(const std::vector<std::pair<BlockId, Bytes>>& writes) {
  return WriteBatchInternal(writes, /*padded_size=*/0, /*bump_schedule=*/false);
}

Status RingOram::WriteBatch(const std::vector<std::pair<BlockId, Bytes>>& writes,
                            size_t padded_size) {
  return WriteBatchInternal(writes, padded_size, /*bump_schedule=*/true);
}

Status RingOram::WriteBatchInternal(const std::vector<std::pair<BlockId, Bytes>>& writes,
                                    size_t padded_size, bool bump_schedule) {
  std::lock_guard<std::mutex> lk(mu_);
  for (const auto& [id, value] : writes) {
    if (id >= config_.capacity) {
      return Status::InvalidArgument("block id out of range");
    }
    // Dummiless write (§6.3): place the new version directly in the stash.
    BlockLoc loc = loc_[id];
    if (loc.bucket != kLocStash && loc.bucket != kLocNone) {
      // Drop the stale tree copy; its slot becomes an unreferenced real slot
      // that the next rewrite of that bucket discards.
      BucketMeta& mb = meta_[loc.bucket];
      assert(mb.real_ids[loc.slot] == id);
      mb.real_ids[loc.slot] = kInvalidBlockId;
      mb.real_leaves[loc.slot] = kInvalidLeaf;
      dirty_buckets_.insert(loc.bucket);
      // Defensive: if this bucket has a planned-but-unmaterialized rewrite
      // naming the id (cannot happen mid-epoch by construction), keep the
      // block list aligned with the logical slots.
      auto it = buffered_.find(loc.bucket);
      if (it != buffered_.end() && it->second.rewrite_planned) {
        auto& blks = it->second.blocks;
        for (size_t i = 0; i < blks.size(); ++i) {
          if (blks[i].id == id) {
            blks.erase(blks.begin() + static_cast<ptrdiff_t>(i));
            mb.real_ids.assign(config_.z, kInvalidBlockId);
            mb.real_leaves.assign(config_.z, kInvalidLeaf);
            for (size_t j = 0; j < blks.size(); ++j) {
              mb.real_ids[j] = blks[j].id;
              mb.real_leaves[j] = blks[j].leaf;
              loc_[blks[j].id] = BlockLoc{loc.bucket, static_cast<uint32_t>(j)};
            }
            break;
          }
        }
      }
    }
    Leaf new_leaf = RandomLeaf();
    position_map_.Set(id, new_leaf);
    {
      std::lock_guard<std::mutex> dlk(deposit_mu_);
      StashEntry* entry = stash_.Find(id);
      if (entry != nullptr) {
        entry->leaf = new_leaf;
        entry->value = value;
        entry->value_ready = true;
        entry->from_logical_access = true;
        entry->gen++;  // invalidate any in-flight physical deposit
      } else {
        StashEntry fresh;
        fresh.leaf = new_leaf;
        fresh.value = value;
        fresh.value_ready = true;
        fresh.from_logical_access = true;
        stash_.Put(id, std::move(fresh));
      }
    }
    loc_[id] = BlockLoc{kLocStash, 0};
    stats_.logical_accesses++;
    if (bump_schedule) {
      BumpAccessCounter();
    }
  }
  // Padding writes advance the eviction schedule only, so the adversary sees
  // a fixed-size write batch regardless of the workload. (Skipped when the
  // schedule was pre-advanced through AdvanceWriteSchedule.)
  if (bump_schedule) {
    for (size_t i = writes.size(); i < padded_size; ++i) {
      BumpAccessCounter();
    }
  }
  DispatchPendingReads();
  return Status::Ok();
}

Status RingOram::BeginRetire() {
  std::lock_guard<std::mutex> lk(mu_);
  SpanGuard obs_span("oram", "oram.begin_retire", epoch_);
  size_t depth = std::max<size_t>(1, options_.retire_depth);
  if (retiring_gens_.size() >= depth) {
    return Status::FailedPrecondition("retirement window full: oldest epoch not collected");
  }
  DispatchPendingReads();
  WaitOutstandingReads();

  RetiringGeneration gen;
  gen.gen = next_retire_gen_++;
  auto ticket = std::make_shared<RetireTicket>();

  if (options_.defer_writes) {
    // Replay the deferred write phases in order; repeated touches of a bucket
    // repack it in place, so each bucket materializes exactly once below.
    uint64_t plan_start = NowMicros();
    for (const DeferredOp& op : deferred_ops_) {
      if (op.type == DeferredOpType::kEvictPath) {
        FlushPath(op.leaf);
      } else {
        FlushBucket(op.bucket);
      }
    }
    deferred_ops_.clear();
    stats_.flush_plan_us += NowMicros() - plan_start;

    std::vector<std::pair<BucketIndex, const std::vector<PlannedBlock>*>> to_write;
    for (auto& [bucket, bb] : buffered_) {
      if (bb.rewrite_planned) {
        to_write.emplace_back(bucket, &bb.blocks);
      }
    }
    for (const auto& [bucket, blocks] : to_write) {
      trace_.Record(PhysicalOpType::kWriteBucket, bucket, meta_[bucket].write_count,
                    kInvalidSlot);
      stats_.physical_bucket_writes++;
    }
    if (options_.parallel) {
      // Snapshot everything materialization needs, then hand encryption +
      // submission to the I/O pool immediately: the close step pays neither
      // the crypto nor the network, and the images are already in flight by
      // the time the retirement stage starts waiting — which also opens the
      // recovery unit's checkpoint gate (durability precedes the append) as
      // early as possible, minimizing the next epoch's first-batch stall.
      auto plan = std::make_shared<std::vector<RetireImagePlan>>();
      plan->reserve(to_write.size());
      for (const auto& [bucket, blocks] : to_write) {
        RetireImagePlan p;
        p.bucket = bucket;
        p.version = meta_[bucket].write_count;
        p.perm = meta_[bucket].perm;
        p.blocks = *blocks;
        plan->push_back(std::move(p));
      }
      if (!plan->empty()) {
        {
          // The encrypt+submit task itself holds one outstanding slot so
          // AwaitRetireDurable cannot observe zero before submission.
          std::lock_guard<std::mutex> rlk(retire_mu_);
          ++ticket->outstanding;
          ++retire_outstanding_;
        }
        pool_->Enqueue([this, plan, ticket] {
          uint64_t start = NowMicros();
          std::vector<BucketImage> images(plan->size());
          crypto_pool_->ParallelFor(plan->size(), [&](size_t i) {
            images[i] = EncryptRetireImage((*plan)[i]);
          });
          bg_materialize_us_.fetch_add(NowMicros() - start, std::memory_order_relaxed);
          SubmitImagesAsync(std::move(images), ticket);
          RetireChunkDone(ticket, Status::Ok());
        });
      }
    } else {
      uint64_t mat_start = NowMicros();
      for (const auto& [bucket, blocks] : to_write) {
        MaterializeBucket(bucket, *blocks, /*via_pool=*/false);
      }
      stats_.materialize_us += NowMicros() - mat_start;
    }
    // Keep the rewritten buckets' plaintext contents to serve the next
    // epoch's accesses while the flush is in flight. Each bucket is owned by
    // this generation; a bucket re-rewritten by a later epoch is re-owned
    // (CollectRetired erases only entries still carrying its generation id).
    for (auto& [bucket, bb] : buffered_) {
      if (bb.rewrite_planned) {
        gen.buckets.push_back(bucket);
        retiring_[bucket] = RetiringBucket{gen.gen, std::move(bb.blocks)};
      }
    }
    buffered_.clear();
  }

  // Snapshot every bucket's version at this close: exactly the versions the
  // epoch's checkpoint (captured right after BeginRetire) references, and
  // therefore the truncation floor once that checkpoint is durable. Live
  // counts at truncate time would include later, still-undurable epochs.
  gen.version_floors.reserve(meta_.size());
  for (const BucketMeta& mb : meta_) {
    gen.version_floors.push_back(mb.write_count);
  }
  retiring_gens_.push_back(std::move(gen));
  {
    std::lock_guard<std::mutex> rlk(retire_mu_);
    retire_tickets_.push_back(std::move(ticket));
  }

  stash_.ClearLogicalAccessFlags();
  ++epoch_;
  batch_in_epoch_ = 0;

  {
    std::lock_guard<std::mutex> elk(err_mu_);
    if (!first_error_.ok()) {
      Status err = first_error_;
      first_error_ = Status::Ok();
      return err;
    }
  }
  return Status::Ok();
}

Status RingOram::AwaitRetireDurable() {
  // Deliberately touches only retire_mu_ (never mu_): the retirement stage
  // calls this while a next-epoch batch may hold mu_ — possibly blocked on
  // the recovery unit's checkpoint-ordering gate, which opens only after
  // this returns — so taking mu_ here would deadlock.
  OBS_SPAN("oram", "oram.retire_wait");
  std::unique_lock<std::mutex> rlk(retire_mu_);
  if (retire_tickets_.empty()) {
    return Status::Ok();
  }
  std::shared_ptr<RetireTicket> ticket = retire_tickets_.front();
  retire_cv_.wait(rlk, [&] { return ticket->outstanding == 0; });
  retire_tickets_.pop_front();
  return ticket->error;
}

void RingOram::CollectRetired() {
  std::lock_guard<std::mutex> lk(mu_);
  if (retiring_gens_.empty()) {
    return;
  }
  RetiringGeneration gen = std::move(retiring_gens_.front());
  retiring_gens_.pop_front();
  for (BucketIndex b : gen.buckets) {
    auto it = retiring_.find(b);
    // Skip entries a later epoch re-owned (absorbed + re-rewritten while this
    // generation was still in flight): their buffers are still needed.
    if (it != retiring_.end() && it->second.gen == gen.gen) {
      retiring_.erase(it);
    }
  }
  collected_floors_ = std::move(gen.version_floors);
}

size_t RingOram::RetiringGenerations() const {
  std::lock_guard<std::mutex> lk(mu_);
  return retiring_gens_.size();
}

Status RingOram::FinishEpoch() {
  OBLADI_RETURN_IF_ERROR(BeginRetire());
  uint64_t drain_start = NowMicros();
  Status st = AwaitRetireDurable();
  {
    std::lock_guard<std::mutex> lk(mu_);
    stats_.write_drain_us += NowMicros() - drain_start;
  }
  CollectRetired();
  return st;
}

size_t RingOram::InflightBlocks() const {
  std::lock_guard<std::mutex> lk(mu_);
  size_t n = stash_.size();
  for (const auto& [bucket, rb] : retiring_) {
    n += rb.blocks.size();
  }
  return n;
}

Status RingOram::TruncateStaleVersions() {
  // Snapshot the per-bucket version floors under mu_, but keep the lock OUT
  // of the network round trip: GC used to hold mu_ across one truncate RPC
  // per bucket, stalling the next epoch's batch admission behind thousands
  // of sequential round trips. The snapshot is safe to apply lock-free —
  // write counts only grow, so a concurrent epoch can only make the floor
  // conservative, never wrong.
  std::vector<TruncateRef> refs;
  {
    std::lock_guard<std::mutex> lk(mu_);
    // Prefer the floors banked by the last CollectRetired: they are the
    // versions that generation's (now durable) checkpoint references. Live
    // write counts may already include later, still-undurable epochs whose
    // checkpoints still need the older versions (depth > 1). Without banked
    // floors (truncate outside the retire cycle) live counts are safe: the
    // caller guarantees the covering checkpoint is durable.
    std::optional<std::vector<uint32_t>> floors = std::move(collected_floors_);
    collected_floors_.reset();
    refs.reserve(meta_.size());
    for (BucketIndex b = 0; b < meta_.size(); ++b) {
      uint32_t v = floors.has_value() && b < floors->size() ? (*floors)[b]
                                                            : meta_[b].write_count;
      refs.push_back(TruncateRef{b, v});
    }
  }
  // One batched request: a whole shard's GC is one round trip.
  return store_->TruncateBucketsBatch(refs);
}

// ---------------------------------------------------------------------------
// Invariant checking (tests)
// ---------------------------------------------------------------------------

Status RingOram::CheckInvariants() const {
  std::lock_guard<std::mutex> lk(mu_);
  // Per-bucket checks.
  for (BucketIndex b = 0; b < meta_.size(); ++b) {
    const BucketMeta& mb = meta_[b];
    if (mb.perm.size() != config_.slots_per_bucket()) {
      return Status::Internal("bucket perm has wrong size");
    }
    std::vector<bool> seen(mb.perm.size(), false);
    for (SlotIndex p : mb.perm) {
      if (p >= mb.perm.size() || seen[p]) {
        return Status::Internal("bucket perm is not a permutation");
      }
      seen[p] = true;
    }
    if (mb.dummies_used > config_.s) {
      return Status::Internal("more dummies consumed than exist");
    }
    for (uint32_t i = 0; i < config_.z; ++i) {
      if (mb.real_ids[i] == kInvalidBlockId) {
        continue;
      }
      if (!mb.valid[mb.perm[i]]) {
        return Status::Internal("occupied real slot marked invalid");
      }
      BlockId id = mb.real_ids[i];
      if (loc_[id].bucket != b || loc_[id].slot != i) {
        return Status::Internal("location index out of sync with bucket contents");
      }
    }
  }
  // Per-block checks: path invariant.
  for (BlockId id = 0; id < config_.capacity; ++id) {
    if (!position_map_.Contains(id)) {
      continue;
    }
    Leaf leaf = position_map_.Get(id);
    BlockLoc loc = loc_[id];
    if (loc.bucket == kLocStash) {
      if (!stash_.Contains(id)) {
        return Status::Internal("stash-located block missing from stash");
      }
    } else if (loc.bucket == kLocNone) {
      return Status::Internal("mapped block has no location");
    } else {
      if (meta_[loc.bucket].real_ids[loc.slot] != id) {
        return Status::Internal("tree-located block missing from bucket");
      }
      if (meta_[loc.bucket].real_leaves[loc.slot] != leaf) {
        return Status::Internal("bucket leaf tag disagrees with position map");
      }
      if (!PathContains(leaf, loc.bucket, config_.num_levels)) {
        return Status::Internal("path invariant violated: block off its mapped path");
      }
    }
  }
  return Status::Ok();
}

}  // namespace obladi
