#include "src/proxy/obladi_store.h"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "src/common/clock.h"
#include "src/common/serde.h"
#include "src/obs/exporters.h"
#include "src/obs/trace.h"

namespace obladi {

namespace {

// Block payloads are fixed size; values are length-prefixed inside them.
Bytes EncodeValue(const std::string& value) {
  BinaryWriter w(value.size() + 4);
  w.PutString(value);
  return w.Take();
}

std::string DecodeValue(const Bytes& payload) {
  if (payload.size() < 4) {
    return "";
  }
  BinaryReader r(payload);
  return r.GetString();
}

}  // namespace

std::unique_ptr<ShardedOramSet> ObladiStore::MakeOramSet(uint64_t seed) const {
  ShardedOramOptions options;
  options.oram = cfg_.oram_options;
  options.read_quota = cfg_.read_quota();
  options.write_quota = cfg_.write_quota();
  if (!shard_stores_.empty()) {
    return std::make_unique<ShardedOramSet>(cfg_.MakeLayout(), options, shard_stores_,
                                            encryptor_, seed);
  }
  return std::make_unique<ShardedOramSet>(cfg_.MakeLayout(), options, store_, encryptor_,
                                          seed);
}

ObladiStore::ObladiStore(ObladiConfig cfg,
                         std::vector<std::shared_ptr<BucketStore>> shard_stores,
                         std::shared_ptr<LogStore> log)
    : ObladiStore(std::move(cfg), nullptr, std::move(log)) {
  // Delegation order note: the delegated constructor runs MakeOramSet with
  // shard_stores_ still empty, so rebuild the set over the per-shard stores
  // here, before anything can touch it (no threads observe oram_ yet —
  // the retirement worker only dereferences it once a job is queued).
  shard_stores_ = std::move(shard_stores);
  oram_ = MakeOramSet(cfg_.seed);
  AttachWatchdog();
  RegisterReplicaByteSources();
}

ObladiStore::ObladiStore(ObladiConfig cfg, std::shared_ptr<BucketStore> store,
                         std::shared_ptr<LogStore> log)
    : cfg_(cfg),
      store_(std::move(store)),
      log_(std::move(log)),
      directory_(cfg.oram.capacity) {
  if (cfg_.num_shards == 0) {
    cfg_.num_shards = 1;
  }
  if (cfg_.pipeline_depth == 0 || !cfg_.pipeline_epochs) {
    // The serial baseline drains each retirement inline — depth is
    // meaningless there and must read as 1 everywhere it is exported.
    cfg_.pipeline_depth = 1;
  }
  // The shards' retiring-buffer window moves in lockstep with the proxy's
  // retirement queue: one retiring generation per in-flight epoch.
  cfg_.oram_options.retire_depth = cfg_.pipeline_depth;
  encryptor_ = std::make_shared<Encryptor>(
      Encryptor::FromMasterKey(Bytes{'o', 'b', 'l', 'a', 'd', 'i'}, cfg_.oram.authenticated,
                               cfg_.seed ^ 0x9e3779b97f4a7c15ull));
  oram_ = MakeOramSet(cfg_.seed);

  if (cfg_.recovery.enabled) {
    // Worst-case changed position-map entries *per shard* per epoch.
    cfg_.recovery.posmap_delta_pad_entries =
        cfg_.read_batches_per_epoch * cfg_.read_quota() + cfg_.write_quota();
    recovery_ = std::make_unique<RecoveryUnit>(cfg_.recovery, log_, encryptor_);
    recovery_->SetPipelineWindow(cfg_.pipeline_depth);
    recovery_->SetMetadataProviders(
        [this] { return directory_.SerializeFull(); },
        [this] {
          // Pad the directory delta so its size does not reveal how many new
          // keys an epoch created (at most b_write writes can create keys).
          Bytes delta = directory_.SerializeDelta();
          size_t pad = cfg_.write_batch_size * 64 + 16;
          if (delta.size() < pad) {
            delta.resize(pad, 0);
          }
          return delta;
        });
    InstallPlanHook(/*rendezvous=*/true);
  }
  SetupObservability();
  RegisterReplicaByteSources();
  epoch_batches_.resize(cfg_.read_batches_per_epoch);
  ResetEpochBatchesLocked();
  // The retirement worker exists in every mode: manual-mode FinishEpochNow
  // simply drains it synchronously.
  retirer_ = std::thread([this] { RetireLoop(); });
  retirer_started_ = true;
}

ObladiStore::~ObladiStore() {
  Stop();
  StopRetirer();
  if (started_trace_stream_) {
    Tracer::Get().StopStreaming();
  }
}

void ObladiStore::SetupObservability() {
  if (cfg_.obs.trace) {
    Tracer::Get().Enable(cfg_.obs.trace_ring_capacity);
    if (!cfg_.obs.trace_stream_path.empty()) {
      // Best-effort: a failed open (bad path) leaves the flight recorder
      // running; spans still land in the rings.
      Status st = Tracer::Get().StartStreaming(cfg_.obs.trace_stream_path);
      started_trace_stream_ = st.ok();
    }
  }
  if (cfg_.obs.watchdog) {
    WatchdogSpec spec;
    spec.num_shards = cfg_.num_shards;
    spec.read_quota = cfg_.read_quota();
    spec.batches_per_epoch = cfg_.read_batches_per_epoch;
    spec.write_quota = cfg_.write_quota();
    spec.wire_byte_tolerance = cfg_.obs.watchdog_byte_tolerance;
    spec.byte_warmup_epochs = cfg_.obs.watchdog_byte_warmup_epochs;
    spec.abort_on_violation = cfg_.obs.watchdog_abort;
    watchdog_ = std::make_unique<TraceShapeWatchdog>(spec);
    AttachWatchdog();
  }
  if (cfg_.obs.metrics || cfg_.obs.admin_listener) {
    metrics_ = std::make_unique<MetricsRegistry>();
    metrics_->AddSource([this](MetricsSink& sink) {
      ExportObladiStats(sink, stats(), {});
      {
        // mu_ also guards oram_'s lifetime against SimulateCrash.
        std::lock_guard<std::mutex> lk(mu_);
        if (oram_ != nullptr) {
          ExportRingOramStats(sink, oram_->stats(), {});
        }
      }
      {
        // Pipeline occupancy: epochs currently in the retirement stage
        // (0..pipeline_depth) next to the configured ceiling.
        std::lock_guard<std::mutex> rlk(retire_mu_);
        sink.Gauge("pipeline_depth_live", {}, static_cast<double>(retire_inflight_),
                   "epochs currently in the retirement pipeline");
        sink.Gauge("pipeline_depth_configured", {},
                   static_cast<double>(cfg_.pipeline_depth),
                   "configured epoch pipeline depth");
      }
      if (watchdog_) {
        sink.Counter("obs_watchdog_violations_total", {}, watchdog_->violations(),
                     "trace-shape violations detected");
        sink.Counter("obs_watchdog_epochs_checked_total", {},
                     watchdog_->epochs_checked(), "epochs whose trace shape was checked");
      }
      // Transport hardening counters of every remote/decorated store the
      // proxy was built over, labeled by tier (and shard for per-shard
      // stores), plus unlabeled sums of the headline fault metrics so
      // dashboards and the nemesis assertions need no label math.
      uint64_t deadline_sum = 0;
      uint64_t breaker_sum = 0;
      uint64_t retries_sum = 0;
      for (const auto& [labels, ns] : CollectNetworkStats()) {
        ExportNetworkStats(sink, *ns, labels);
        deadline_sum += ns->deadline_exceeded.load(std::memory_order_relaxed);
        breaker_sum += ns->breaker_open.load(std::memory_order_relaxed);
        retries_sum += ns->retries.load(std::memory_order_relaxed);
      }
      sink.Counter("deadline_exceeded_total", {}, deadline_sum,
                   "requests expired before a response landed (all tiers)");
      sink.Counter("breaker_open_total", {}, breaker_sum,
                   "circuit-breaker open transitions (all tiers)");
      sink.Counter("net_retries_total", {}, retries_sum,
                   "retry-policy resubmissions (all tiers)");
      // Replication tier: failover/resync counters per replicated store,
      // per-replica health and lag gauges, and each replica's own transport
      // counters (the replicated wrapper deliberately exposes no aggregate).
      uint64_t failover_sum = 0;
      uint64_t resync_epoch_sum = 0;
      for (const auto& [labels, rs] : CollectReplicationStats()) {
        failover_sum += rs.failovers;
        resync_epoch_sum += rs.resync_epochs;
        sink.Counter("failover_total", labels, rs.failovers,
                     "automatic primary failovers on read-path failures");
        sink.Counter("replica_resyncs_total", labels, rs.resyncs,
                     "completed replica catch-up passes");
        sink.Counter("replica_resync_epochs_total", labels, rs.resync_epochs,
                     "cumulative epochs of lag cleared by replica resyncs");
        for (const ReplicaInfo& rep : rs.replicas) {
          MetricLabels rl = labels;
          rl.emplace_back("replica", std::to_string(rep.index));
          sink.Gauge("replica_lag_epochs", rl, static_cast<double>(rep.lag_epochs),
                     "epochs this replica is behind the acknowledged state");
          sink.Gauge("replica_healthy", rl,
                     rep.health == ReplicaHealth::kCurrent ? 1.0 : 0.0,
                     "1 = replica is current and serving");
          sink.Gauge("replica_primary", rl, rep.primary ? 1.0 : 0.0,
                     "1 = reads currently target this replica");
          if (rep.stats != nullptr) {
            ExportNetworkStats(sink, *rep.stats, rl);
          }
        }
      }
      sink.Counter("failover_all_total", {}, failover_sum,
                   "automatic primary failovers (all replicated stores)");
      sink.Counter("replica_resync_epochs_all_total", {}, resync_epoch_sum,
                   "epochs of replica lag cleared (all replicated stores)");
      {
        // Shard health: which storage node a degradation/abort came from.
        std::lock_guard<std::mutex> lk(mu_);
        if (oram_ != nullptr) {
          auto health = oram_->ShardHealthSnapshot();
          auto failures = oram_->ShardFailuresSnapshot();
          for (size_t sd = 0; sd < health.size(); ++sd) {
            MetricLabels labels{{"shard", std::to_string(sd)}};
            sink.Gauge("obladi_shard_healthy", labels, health[sd],
                       "1 = shard's last storage operation succeeded");
            sink.Counter("obladi_shard_failures_total", labels, failures[sd],
                         "failed shard storage operations");
          }
        }
      }
    });
  }
  if (watchdog_) {
    // Default wire-byte accounting: feed the watchdog the byte counters of
    // whatever remote stores the proxy was constructed over. Collected
    // lazily at sample time so the per-shard constructor's late store
    // installation is picked up.
    watchdog_->SetWireByteSource([this]() -> std::pair<uint64_t, uint64_t> {
      uint64_t sent = 0;
      uint64_t received = 0;
      for (const auto& [labels, ns] : CollectNetworkStats()) {
        sent += ns->bytes_sent.load(std::memory_order_relaxed);
        received += ns->bytes_received.load(std::memory_order_relaxed);
      }
      return {sent, received};
    });
  }
  if (cfg_.obs.admin_listener) {
    AdminServerOptions opts;
    opts.host = cfg_.obs.admin_host;
    opts.port = cfg_.obs.admin_port;
    admin_ = std::make_unique<AdminServer>(opts, metrics_.get());
    admin_->AddHandler("/trace", "application/json",
                       [] { return Tracer::Get().ChromeTraceJson(); });
    admin_->AddHandler("/healthz", "text/plain", [this] { return HealthzText(); });
    Status st = admin_->Start();
    if (!st.ok()) {
      // A busy port should not take the proxy down with it.
      std::fprintf(stderr, "[obs] admin listener failed to start: %s\n",
                   st.message().c_str());
      admin_.reset();
    }
  }
}

void ObladiStore::AttachWatchdog() {
  if (watchdog_ && oram_) {
    oram_->SetWatchdog(watchdog_.get());
  }
}

std::vector<std::pair<MetricLabels, NetworkStats*>> ObladiStore::CollectNetworkStats()
    const {
  std::vector<std::pair<MetricLabels, NetworkStats*>> out;
  if (store_ != nullptr && store_->network_stats() != nullptr) {
    out.emplace_back(MetricLabels{{"tier", "bucket"}}, store_->network_stats());
  }
  for (size_t s = 0; s < shard_stores_.size(); ++s) {
    if (shard_stores_[s] != nullptr && shard_stores_[s]->network_stats() != nullptr) {
      out.emplace_back(MetricLabels{{"tier", "bucket"}, {"shard", std::to_string(s)}},
                       shard_stores_[s]->network_stats());
    }
  }
  if (log_ != nullptr && log_->network_stats() != nullptr) {
    out.emplace_back(MetricLabels{{"tier", "log"}}, log_->network_stats());
  }
  return out;
}

std::vector<std::pair<MetricLabels, ReplicationStats>> ObladiStore::CollectReplicationStats()
    const {
  std::vector<std::pair<MetricLabels, ReplicationStats>> out;
  auto add = [&](MetricLabels labels, ReplicationStats rs) {
    if (!rs.replicas.empty()) {
      out.emplace_back(std::move(labels), std::move(rs));
    }
  };
  if (store_ != nullptr) {
    add(MetricLabels{{"tier", "bucket"}}, store_->replication_stats());
  }
  for (size_t s = 0; s < shard_stores_.size(); ++s) {
    if (shard_stores_[s] != nullptr) {
      add(MetricLabels{{"tier", "bucket"}, {"shard", std::to_string(s)}},
          shard_stores_[s]->replication_stats());
    }
  }
  if (log_ != nullptr) {
    add(MetricLabels{{"tier", "log"}}, log_->replication_stats());
  }
  return out;
}

void ObladiStore::RegisterReplicaByteSources() {
  if (!watchdog_) {
    return;
  }
  auto sample_of = [](const ReplicationStats& rs,
                      size_t index) -> TraceShapeWatchdog::WireByteSample {
    TraceShapeWatchdog::WireByteSample out;
    out.generation = rs.generation;
    if (index < rs.replicas.size() && rs.replicas[index].stats != nullptr) {
      out.sent = rs.replicas[index].stats->bytes_sent.load(std::memory_order_relaxed);
      out.received = rs.replicas[index].stats->bytes_received.load(std::memory_order_relaxed);
    }
    return out;
  };
  auto add_bucket = [&](const std::string& label, const std::shared_ptr<BucketStore>& store) {
    if (store == nullptr) {
      return;
    }
    ReplicationStats rs = store->replication_stats();
    for (size_t r = 0; r < rs.replicas.size(); ++r) {
      if (rs.replicas[r].stats == nullptr) {
        continue;  // replica without transport counters: nothing to band-check
      }
      std::string name = label + "/replica" + std::to_string(r);
      if (!replica_byte_sources_registered_.insert(name).second) {
        continue;
      }
      watchdog_->AddWireByteSource(
          name, [store, r, sample_of] { return sample_of(store->replication_stats(), r); });
    }
  };
  add_bucket("bucket", store_);
  for (size_t s = 0; s < shard_stores_.size(); ++s) {
    add_bucket("bucket/shard" + std::to_string(s), shard_stores_[s]);
  }
  if (log_ != nullptr) {
    ReplicationStats rs = log_->replication_stats();
    for (size_t r = 0; r < rs.replicas.size(); ++r) {
      if (rs.replicas[r].stats == nullptr) {
        continue;
      }
      std::string name = "log/replica" + std::to_string(r);
      if (!replica_byte_sources_registered_.insert(name).second) {
        continue;
      }
      std::shared_ptr<LogStore> log = log_;
      watchdog_->AddWireByteSource(
          name, [log, r, sample_of] { return sample_of(log->replication_stats(), r); });
    }
  }
}

void ObladiStore::DriveReplicaHealing(EpochId epoch) {
  auto drive = [&](BucketStore* store) {
    if (store != nullptr) {
      store->NoteEpochRetired(epoch);
      (void)store->TryHealReplicas();  // failure: replica stays lagging, retried next epoch
    }
  };
  drive(store_.get());
  for (const auto& store : shard_stores_) {
    drive(store.get());
  }
  if (log_ != nullptr) {
    log_->NoteEpochRetired(epoch);
    (void)log_->TryHealReplicas();
  }
}

std::string ObladiStore::HealthzText() const {
  std::string out = "ok\n";
  for (const auto& [labels, rs] : CollectReplicationStats()) {
    std::string where;
    for (const auto& [k, v] : labels) {
      where += (where.empty() ? "" : ",") + k + "=" + v;
    }
    for (const ReplicaInfo& rep : rs.replicas) {
      out += "replica{" + where + ",replica=" + std::to_string(rep.index) +
             "} health=" + ReplicaHealthName(rep.health) +
             (rep.primary ? " primary" : "") +
             " lag_epochs=" + std::to_string(rep.lag_epochs) + "\n";
    }
  }
  return out;
}

void ObladiStore::ResetEpochBatchesLocked() {
  epoch_batches_.assign(cfg_.read_batches_per_epoch, EpochBatch{});
  for (auto& batch : epoch_batches_) {
    batch.shard_counts.assign(cfg_.num_shards, 0);
  }
  next_dispatch_ = 0;
  epoch_first_dispatch_us_ = 0;
}

Status ObladiStore::Load(const std::vector<std::pair<Key, std::string>>& records) {
  std::lock_guard<std::mutex> dlk(dispatch_mu_);
  std::vector<Bytes> values(cfg_.oram.capacity);
  for (const auto& [key, value] : records) {
    auto id = directory_.GetOrCreate(key);
    if (!id.ok()) {
      return id.status();
    }
    values[*id] = EncodeValue(value);
  }
  OBLADI_RETURN_IF_ERROR(oram_->Initialize(values));
  if (recovery_) {
    OBLADI_RETURN_IF_ERROR(recovery_->LogFullCheckpoint(oram_->shard_ptrs()));
  }
  std::lock_guard<std::mutex> lk(mu_);
  loaded_ = true;
  return Status::Ok();
}

Timestamp ObladiStore::Begin() {
  if (!skew_enabled_.load(std::memory_order_acquire)) {
    return engine_.Begin();
  }
  // One lock over engine Begin + hook: concurrent Begins must map to
  // claimed timestamps in the same order as their internal ones, or the
  // skewed proxy would (wrongly) present a reordered timeline and fail the
  // audit for a reason the scenario didn't inject.
  std::lock_guard<std::mutex> lk(skew_mu_);
  Timestamp internal = engine_.Begin();
  if (!claimed_ts_hook_) {
    return internal;
  }
  Timestamp claimed = claimed_ts_hook_(internal);
  claimed_to_internal_[claimed] = internal;
  return claimed;
}

Timestamp ObladiStore::ResolveTxn(Timestamp txn) const {
  if (!skew_enabled_.load(std::memory_order_acquire)) {
    return txn;
  }
  std::lock_guard<std::mutex> lk(skew_mu_);
  auto it = claimed_to_internal_.find(txn);
  return it == claimed_to_internal_.end() ? txn : it->second;
}

void ObladiStore::SetClaimedTimestampHook(std::function<uint64_t(uint64_t)> hook) {
  std::lock_guard<std::mutex> lk(skew_mu_);
  claimed_ts_hook_ = std::move(hook);
  skew_enabled_.store(claimed_ts_hook_ != nullptr, std::memory_order_release);
}

StatusOr<std::shared_future<Status>> ObladiStore::EnqueueFetch(const Key& key, BlockId id) {
  std::lock_guard<std::mutex> lk(mu_);
  if (crashed_) {
    return Status::Unavailable("proxy crashed");
  }
  auto it = inflight_fetches_.find(key);
  if (it != inflight_fetches_.end()) {
    stats_.fetch_dedups++;
    return it->second;
  }
  // Admission is per shard: a batch can take this fetch only while the
  // target shard's fixed sub-batch quota has room (the padded per-shard
  // sub-batch size never changes, so overflow aborts instead of leaking).
  uint32_t shard = oram_->router().ShardOf(id);
  for (size_t b = next_dispatch_; b < epoch_batches_.size(); ++b) {
    EpochBatch& batch = epoch_batches_[b];
    if (batch.shard_counts[shard] < cfg_.read_quota()) {
      PendingFetch fetch;
      fetch.id = id;
      fetch.key = key;
      fetch.done = std::make_shared<std::promise<Status>>();
      std::shared_future<Status> fut = fetch.done->get_future().share();
      batch.fetches.push_back(std::move(fetch));
      batch.shard_counts[shard]++;
      inflight_fetches_.emplace(key, fut);
      stats_.oram_fetches++;
      return fut;
    }
  }
  return Status::ResourceExhausted("all read batches in this epoch are full");
}

StatusOr<std::string> ObladiStore::Read(Timestamp txn, const Key& key) {
  txn = ResolveTxn(txn);
  for (;;) {
    ReadOutcome outcome = engine_.Read(txn, key);
    if (outcome.kind == ReadOutcome::kAborted) {
      return Status::Aborted("transaction aborted");
    }
    if (outcome.kind == ReadOutcome::kValue) {
      {
        std::lock_guard<std::mutex> lk(mu_);
        stats_.cache_hits++;
      }
      return outcome.value;
    }
    // kNeedBase: fetch through the ORAM via the epoch's read batches.
    auto id = directory_.Lookup(key);
    if (!id.ok()) {
      return id.status();  // unknown key
    }
    auto fut = EnqueueFetch(key, *id);
    if (!fut.ok()) {
      if (fut.status().code() == StatusCode::kResourceExhausted) {
        {
          std::lock_guard<std::mutex> lk(mu_);
          stats_.batch_overflow_aborts++;
        }
        engine_.AbortBatchOverflow(txn);
      } else {
        engine_.Abort(txn);
      }
      return Status::Aborted(fut.status().message());
    }
    Status st = fut->get();
    if (!st.ok()) {
      engine_.Abort(txn);
      return Status::Aborted("base fetch failed: " + st.message());
    }
    // Base installed; retry against the version cache.
  }
}

Status ObladiStore::Write(Timestamp txn, const Key& key, std::string value) {
  txn = ResolveTxn(txn);
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (crashed_) {
      return Status::Unavailable("proxy crashed");
    }
  }
  if (value.size() + 4 > cfg_.oram.block_payload_size) {
    return Status::InvalidArgument("value exceeds block payload size");
  }
  auto id = directory_.GetOrCreate(key);
  if (!id.ok()) {
    return id.status();
  }
  return engine_.Write(txn, key, std::move(value));
}

StatusOr<std::shared_future<Status>> ObladiStore::CommitAsync(Timestamp txn) {
  if (skew_enabled_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(skew_mu_);
    auto it = claimed_to_internal_.find(txn);
    if (it != claimed_to_internal_.end()) {
      // The claimed handle's last use: translate and drop the mapping.
      txn = it->second;
      claimed_to_internal_.erase(it);
    }
  }
  std::shared_ptr<std::promise<Status>> waiter;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (crashed_) {
      return Status::Unavailable("proxy crashed");
    }
    waiter = std::make_shared<std::promise<Status>>();
    commit_waiters_[txn] = waiter;
  }
  std::shared_future<Status> fut = waiter->get_future().share();
  Status st = engine_.Finish(txn);
  if (!st.ok()) {
    std::lock_guard<std::mutex> lk(mu_);
    commit_waiters_.erase(txn);
    return st;
  }
  return fut;
}

Status ObladiStore::Commit(Timestamp txn) {
  auto fut = CommitAsync(txn);
  if (!fut.ok()) {
    return fut.status();
  }
  return fut->get();
}

void ObladiStore::Abort(Timestamp txn) {
  if (skew_enabled_.load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lk(skew_mu_);
    auto it = claimed_to_internal_.find(txn);
    if (it != claimed_to_internal_.end()) {
      txn = it->second;
      claimed_to_internal_.erase(it);
    }
  }
  engine_.Abort(txn);
}

void ObladiStore::InstallPlanHook(bool rendezvous) {
  if (!recovery_) {
    return;
  }
  if (rendezvous && cfg_.combine_batch_plan_logs) {
    oram_->SetBatchPlannedHook([this](uint32_t shard, const BatchPlan& plan) {
      return SubmitPlanForLogging(shard, plan);
    });
  } else {
    // Direct per-shard logging: used while completing the crash-recovery
    // epoch, whose dummy sub-batches run one shard at a time (a K-wide
    // rendezvous would never fill).
    oram_->SetBatchPlannedHook([this](uint32_t shard, const BatchPlan& plan) {
      return recovery_->LogReadBatchPlan(shard, plan);
    });
  }
}

Status ObladiStore::SubmitPlanForLogging(uint32_t shard, const BatchPlan& plan) {
  std::unique_lock<std::mutex> lk(plan_mu_);
  plan_batch_.emplace_back(shard, plan);
  if (plan_batch_.size() < cfg_.num_shards) {
    ++plan_waiting_;
    Status st;
    for (;;) {
      if (plan_cv_.wait_for(lk, std::chrono::seconds(5), [&] { return plan_done_; })) {
        st = plan_result_;
        break;
      }
      if (plan_leader_active_) {
        // The leader is appending — legitimately unbounded (it may sit in
        // the recovery unit's checkpoint-ordering gate until the previous
        // epoch retires). Keep waiting.
        continue;
      }
      // No leader ever formed: a peer sub-batch failed before planning.
      // Abandon the round so its stale plans cannot leak into the next
      // batch's record.
      plan_batch_.clear();
      st = Status::Internal("plan rendezvous timed out (a shard sub-batch "
                            "failed before planning)");
      break;
    }
    --plan_waiting_;
    if (plan_done_ && plan_waiting_ == 0) {
      plan_done_ = false;
      plan_result_ = Status::Ok();
    }
    return st;
  }
  // Leader (the K-th sub-batch): append the whole batch's plans as one
  // record while the peers wait.
  std::vector<std::pair<uint32_t, BatchPlan>> batch;
  batch.swap(plan_batch_);
  plan_leader_active_ = true;
  lk.unlock();
  Status st = recovery_->LogReadBatchPlans(batch);
  lk.lock();
  plan_leader_active_ = false;
  plan_result_ = st;
  plan_done_ = true;
  plan_cv_.notify_all();
  if (plan_waiting_ == 0) {
    plan_done_ = false;
    plan_result_ = Status::Ok();
  }
  return st;
}

// The write batch's schedule movement for read batch `index` of the epoch:
// spread write_quota bumps per shard evenly across the R batches so the
// per-epoch total is exact and the close applies values with no movement.
size_t ObladiStore::WriteAdvanceForBatch(size_t index) const {
  size_t quota = cfg_.write_quota();
  size_t r = cfg_.read_batches_per_epoch;
  return quota * (index + 1) / r - quota * index / r;
}

Status ObladiStore::DispatchBatch(EpochBatch batch, size_t index) {
  OBS_SPAN_ARG("epoch", "epoch.read_batch", index);
  // Admission backpressure: the stash budget caps in-flight blocks across
  // the retirement pipeline; dispatching more reads would grow it further.
  WaitForStashBudget();
  // Pipelined epochs: advance the (workload-independent) write schedule
  // before planning, so the triggered eviction read phases join this
  // batch's dispatch wave instead of bunching into a storage wave at the
  // epoch close. The serial baseline keeps the pre-pipelining behavior
  // (schedule moves with the write batch at the close).
  if (cfg_.pipeline_epochs) {
    oram_->AdvanceWriteSchedule(WriteAdvanceForBatch(index));
  }
  std::vector<BlockId> ids;
  ids.reserve(batch.fetches.size());
  for (const PendingFetch& fetch : batch.fetches) {
    ids.push_back(fetch.id);
  }
  // Sub-epoch read stage: answer each fetch as soon as its path group
  // decrypts, from the shards' I/O threads. Distinct slots fire at most
  // once and every fire happens-before ReadBatch returns, so the plain
  // delivered[] handoff is race-free. InstallBase is engine-lock safe.
  std::vector<char> delivered(batch.fetches.size(), 0);
  std::atomic<uint64_t> early_count{0};
  ShardedOramSet::EarlyResultFn early = [&](size_t i, const Bytes& payload) {
    if (i >= batch.fetches.size()) {
      return;  // padding slot
    }
    engine_.InstallBase(batch.fetches[i].key, DecodeValue(payload));
    batch.fetches[i].done->set_value(Status::Ok());
    delivered[i] = 1;
    early_count.fetch_add(1, std::memory_order_relaxed);
  };
  // The sharded set routes the ids and pads every shard's sub-batch to the
  // fixed per-shard quota, so the adversary-visible shape is constant.
  // Early answers only reorder completion in time — the serial baseline
  // keeps strict batch-granularity completion.
  auto results =
      cfg_.pipeline_epochs ? oram_->ReadBatch(ids, early) : oram_->ReadBatch(ids);
  if (!results.ok()) {
    // Slots already answered early genuinely succeeded; only the rest see
    // the batch failure.
    for (size_t i = 0; i < batch.fetches.size(); ++i) {
      if (!delivered[i]) {
        batch.fetches[i].done->set_value(results.status());
      }
    }
    return results.status();
  }
  for (size_t i = 0; i < batch.fetches.size(); ++i) {
    if (delivered[i]) {
      continue;
    }
    engine_.InstallBase(batch.fetches[i].key, DecodeValue((*results)[i]));
    batch.fetches[i].done->set_value(Status::Ok());
  }
  std::lock_guard<std::mutex> lk(mu_);
  stats_.read_batches++;
  stats_.sched_overlapped_accesses += early_count.load(std::memory_order_relaxed);
  return Status::Ok();
}

void ObladiStore::WaitForStashBudget() {
  if (cfg_.max_stash_blocks == 0) {
    return;
  }
  std::unique_lock<std::mutex> rlk(retire_mu_);
  auto under_budget = [&] {
    // With no retirement in flight nothing will shrink the stash — stalling
    // would deadlock, so a budget smaller than one epoch's working set
    // degrades to no backpressure rather than a hang.
    return retire_inflight_ == 0 ||
           oram_->InflightBlocks() <= cfg_.max_stash_blocks;
  };
  if (under_budget()) {
    return;
  }
  OBS_SPAN("sched", "sched.stash_stall");
  uint64_t start = NowMicros();
  if (cfg_.retire_timeout_ms == 0) {
    retire_cv_.wait(rlk, under_budget);
  } else {
    retire_cv_.wait_for(rlk, std::chrono::milliseconds(cfg_.retire_timeout_ms),
                        under_budget);
  }
  uint64_t waited = NowMicros() - start;
  rlk.unlock();
  std::lock_guard<std::mutex> lk(mu_);
  stats_.stash_budget_stalls++;
  stats_.stash_budget_stall_us += waited;
}

Status ObladiStore::StepReadBatch() {
  std::lock_guard<std::mutex> dlk(dispatch_mu_);
  EpochBatch batch;
  size_t index = 0;
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (crashed_) {
      return Status::Unavailable("proxy crashed");
    }
    if (next_dispatch_ >= epoch_batches_.size()) {
      return Status::FailedPrecondition("all read batches dispatched; finish the epoch");
    }
    batch = std::move(epoch_batches_[next_dispatch_]);
    index = next_dispatch_;
    ++next_dispatch_;
    if (next_dispatch_ == 1) {
      epoch_first_dispatch_us_ = NowMicros();
    }
  }
  return DispatchBatch(std::move(batch), index);
}

Status ObladiStore::CloseEpochNow() {
  SpanGuard obs_span("epoch", "epoch.close");
  std::lock_guard<std::mutex> dlk(dispatch_mu_);
  // Dispatch any remaining read batches so every epoch has the same shape.
  for (;;) {
    EpochBatch batch;
    size_t index = 0;
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (crashed_) {
        return Status::Unavailable("proxy crashed");
      }
      if (next_dispatch_ >= epoch_batches_.size()) {
        break;
      }
      batch = std::move(epoch_batches_[next_dispatch_]);
      index = next_dispatch_;
      ++next_dispatch_;
      if (next_dispatch_ == 1) {
        epoch_first_dispatch_us_ = NowMicros();
      }
    }
    OBLADI_RETURN_IF_ERROR(DispatchBatch(std::move(batch), index));
  }

  // Every batch of this epoch has run, so open the next epoch's batches
  // before EndEpoch clears the version chains. A read arriving during the
  // close then queues on the next epoch's first batch and blocks, instead
  // of finding this epoch's completed fetch, missing the cleared chain and
  // looping. A reader from the closing epoch that lands there is aborted by
  // EndEpoch and sees kAborted once its fetch resolves.
  uint64_t first_dispatch_us;
  {
    std::lock_guard<std::mutex> lk(mu_);
    first_dispatch_us = epoch_first_dispatch_us_;
    ResetEpochBatchesLocked();
    inflight_fetches_.clear();
  }

  // Commit in timestamp order while the write batch fits both the global cap
  // and every shard's fixed quota. The final writes also seed the next
  // epoch's version cache, so reads of this epoch's writes never wait on the
  // in-flight write-back.
  WriteBatchAdmission admission;
  admission.max_write_keys = cfg_.write_batch_size;
  admission.install_committed_as_base = true;
  if (cfg_.num_shards > 1) {
    admission.shard_quotas.assign(cfg_.num_shards, cfg_.write_quota());
    admission.shard_of = [this](const Key& key) -> uint32_t {
      auto id = directory_.Lookup(key);
      return id.ok() ? oram_->router().ShardOf(*id) : 0;
    };
  }
  EpochOutcome outcome = engine_.EndEpoch(admission);

  std::vector<std::pair<BlockId, Bytes>> writes;
  writes.reserve(outcome.final_writes.size());
  for (const auto& [key, value] : outcome.final_writes) {
    auto id = directory_.Lookup(key);
    if (!id.ok()) {
      return Status::Internal("committed write for unknown key");
    }
    writes.emplace_back(*id, EncodeValue(value));
  }
  if (cfg_.pipeline_epochs) {
    // The schedule already advanced with the batches; the close only
    // deposits the decided values — no storage wave.
    OBLADI_RETURN_IF_ERROR(oram_->ApplyWriteValues(writes));
  } else {
    OBLADI_RETURN_IF_ERROR(oram_->WriteBatch(writes));
  }

  // Depth-D pipeline: wait for a free retirement slot — at most
  // pipeline_depth closed epochs may be in flight, capping live state at
  // depth + 1 epochs' worth.
  // From here on the epoch's transactions are already decided (EndEpoch
  // cleared them), so any failure must resolve the blocked commit waiters —
  // in manual mode nobody else ever will.
  auto fail_epoch = [this](Status st) -> Status {
    std::lock_guard<std::mutex> lk(mu_);
    FailAllWaiters();
    return st;
  };
  uint64_t stall_us = 0;
  bool overlapped = false;
  Status idle_st = AwaitRetireSlot(cfg_.pipeline_depth, first_dispatch_us, &stall_us,
                                   &overlapped, cfg_.retire_timeout_ms);
  if (!idle_st.ok()) {
    return fail_epoch(idle_st);
  }

  // Submit the write-back without waiting and capture the checkpoint payload
  // before the next epoch can mutate any shard state.
  EpochId closing_epoch = oram_->epoch();
  obs_span.set_arg(closing_epoch);
  Status retire_st = oram_->BeginRetire();
  if (!retire_st.ok()) {
    return fail_epoch(retire_st);
  }
  RetireJob job;
  if (recovery_) {
    auto cp = recovery_->CaptureEpochCommit(oram_->shard_ptrs());
    if (!cp.ok()) {
      // BeginRetire already submitted the flush: hand the worker a
      // collect-only job to reel it back in FIFO with any older in-flight
      // retirements, so the pipeline is not left wedged on an uncollected
      // generation.
      RetireJob reel;
      reel.collect_only = true;
      reel.epoch = closing_epoch;
      {
        std::lock_guard<std::mutex> rlk(retire_mu_);
        retire_queue_.push_back(std::move(reel));
        ++retire_inflight_;
        retire_cv_.notify_all();
      }
      return fail_epoch(cp.status());
    }
    job.checkpoint = std::move(*cp);
  }
  job.committed.insert(outcome.committed.begin(), outcome.committed.end());
  job.epoch = closing_epoch;

  size_t inflight = oram_->InflightBlocks();
  {
    std::lock_guard<std::mutex> lk(mu_);
    // The waiters travel with the retirement: clients learn the decisions
    // only once the epoch is durable (fate sharing, released asynchronously).
    job.waiters.swap(commit_waiters_);
    stats_.epochs++;
    if (overlapped) {
      stats_.epochs_overlapped++;
    }
    stats_.retire_stall_us += stall_us;
    stats_.max_inflight_stash_blocks =
        std::max<uint64_t>(stats_.max_inflight_stash_blocks, inflight);
  }
  {
    std::lock_guard<std::mutex> rlk(retire_mu_);
    retire_queue_.push_back(std::move(job));
    ++retire_inflight_;
    retire_cv_.notify_all();
  }
  return Status::Ok();
}

Status ObladiStore::AwaitRetireSlot(size_t max_inflight, uint64_t first_dispatch_us,
                                    uint64_t* stall_us, bool* overlapped,
                                    uint64_t timeout_ms) {
  std::unique_lock<std::mutex> rlk(retire_mu_);
  if (retire_inflight_ > 0 && overlapped != nullptr) {
    // An older epoch is still retiring while this one closes: real overlap
    // whether or not the window is full enough to stall.
    *overlapped = true;
  }
  if (retire_inflight_ >= max_inflight) {
    OBS_SPAN("epoch", "epoch.retire_stall");
    uint64_t start = NowMicros();
    if (timeout_ms == 0) {
      retire_cv_.wait(rlk, [&] { return retire_inflight_ < max_inflight; });
    } else if (!retire_cv_.wait_for(rlk, std::chrono::milliseconds(timeout_ms),
                                    [&] { return retire_inflight_ < max_inflight; })) {
      // Retirement stall watchdog: the oldest epoch's write-back or
      // checkpoint is stuck (unreachable storage node, hung WAL fsync).
      // Give up on this close instead of hanging the epoch driver — the
      // caller fails blocked clients retriably, and the wedged retirement
      // is drained (unbounded) by SimulateCrash once the fault heals.
      if (stall_us != nullptr) {
        *stall_us += NowMicros() - start;
      }
      return Status::DeadlineExceeded("epoch retirement window still full after " +
                                      std::to_string(timeout_ms) + "ms");
    }
    if (stall_us != nullptr) {
      *stall_us += NowMicros() - start;
    }
  } else if (overlapped != nullptr && first_dispatch_us != 0 &&
             last_retire_done_us_ > first_dispatch_us) {
    // A previous retirement was still running when this epoch's first
    // batch went out: real overlap, even though no close-time stall.
    *overlapped = true;
  }
  return retire_status_;
}

Status ObladiStore::DrainRetirement() {
  return AwaitRetireSlot(1, 0, nullptr, nullptr, /*timeout_ms=*/0);
}

Status ObladiStore::FinishEpochNow() {
  OBLADI_RETURN_IF_ERROR(CloseEpochNow());
  return DrainRetirement();
}

void ObladiStore::SetRetireHookForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> rlk(retire_mu_);
  retire_hook_ = std::move(hook);
}

void ObladiStore::RetireLoop() {
  Tracer::Get().SetThreadName("epoch-retirer");
  // One job finishes (and frees its retirement slot) with this epilogue:
  // decrement in-flight and wake slot/budget/drain waiters.
  auto finish_job = [this] {
    std::lock_guard<std::mutex> rlk(retire_mu_);
    if (retire_inflight_ > 0) {
      --retire_inflight_;
    }
    last_retire_done_us_ = NowMicros();
    retire_cv_.notify_all();
  };
  for (;;) {
    RetireJob job;
    bool abandon;
    {
      std::unique_lock<std::mutex> rlk(retire_mu_);
      retire_cv_.wait(rlk, [&] { return !retire_queue_.empty() || retire_stop_; });
      if (retire_queue_.empty()) {
        return;  // stopping with nothing queued
      }
      job = std::move(retire_queue_.front());
      retire_queue_.pop_front();
      abandon = retire_abandon_;
    }
    SpanGuard retire_span("epoch", "epoch.retire", job.epoch);
    // 1. Wait for the oldest epoch's write-back to be durable on the server
    //    (the ORAM's retirement tickets are FIFO, aligned with this queue).
    //    Takes no ORAM metadata lock, so in-flight batches run undisturbed.
    Status st = oram_->AwaitRetireDurable();
    if (job.collect_only) {
      // Failed close: nothing was captured and the close already failed the
      // waiters — just reclaim the generation so the pipeline stays usable.
      oram_->CollectRetired();
      finish_job();
      continue;
    }
    {
      std::function<void()> hook;
      {
        std::lock_guard<std::mutex> rlk(retire_mu_);
        hook = retire_hook_;
      }
      if (hook) {
        hook();  // test window: the epoch is retiring but not yet durable
      }
      std::lock_guard<std::mutex> rlk(retire_mu_);
      abandon = abandon || retire_abandon_;
    }
    if (abandon) {
      // Simulated crash inside the retirement window: the checkpoint never
      // reaches the log (recovery sees this epoch as in flight) and every
      // waiter observes the crash instead of a decision. With depth > 1 every
      // queued epoch drains through here, each abandoning its own pending
      // checkpoint capture.
      if (recovery_) {
        recovery_->AbandonPendingCheckpoint(Status::Unavailable("proxy crashed"));
      }
      for (auto& [ts, waiter] : job.waiters) {
        waiter->set_value(Status::Aborted("proxy crashed"));
      }
      finish_job();
      continue;
    }
    // 2. Only now may the checkpoint become durable — it references the new
    //    bucket versions (shadow paging), and appending it opens the
    //    recovery unit's gate for the next epoch's plan records.
    if (recovery_) {
      if (st.ok()) {
        st = recovery_->AppendCaptured(std::move(job.checkpoint));
      } else {
        recovery_->AbandonPendingCheckpoint(st);
      }
    }
    // 3. Epoch fate sharing: the epoch is durable, release the commit
    //    decisions now — clients re-enter while the housekeeping below
    //    (which contends with the next epoch's batches for ORAM locks)
    //    still runs.
    for (auto& [ts, waiter] : job.waiters) {
      if (!st.ok()) {
        waiter->set_value(st);
      } else if (job.committed.count(ts) != 0) {
        waiter->set_value(Status::Ok());
      } else {
        waiter->set_value(Status::Aborted("epoch decision: aborted"));
      }
    }
    // 4. Retired buckets become physically readable again.
    oram_->CollectRetired();
    // 5. Superseded bucket versions are no longer needed by recovery.
    if (st.ok() && recovery_) {
      st = oram_->TruncateStaleVersions();
    }
    // 6. Replica upkeep: report the retired epoch (lag is counted in
    //    epochs) and drive one catch-up pass over any lagging replicas —
    //    off the commit critical path, so clients keep committing while a
    //    healed node resyncs. No-ops on unreplicated deployments.
    DriveReplicaHealing(job.epoch);
    {
      std::lock_guard<std::mutex> rlk(retire_mu_);
      if (!st.ok() && retire_status_.ok()) {
        retire_status_ = st;
      }
    }
    finish_job();
  }
}

void ObladiStore::StopRetirer() {
  {
    std::lock_guard<std::mutex> rlk(retire_mu_);
    if (!retirer_started_) {
      return;
    }
    retire_stop_ = true;
    retire_cv_.notify_all();
  }
  retirer_.join();
  retirer_started_ = false;
}

void ObladiStore::Start() {
  if (!cfg_.timed_mode || pacer_running_.exchange(true)) {
    return;
  }
  pacer_ = std::thread([this] { PacerLoop(); });
}

void ObladiStore::Stop() {
  if (pacer_running_.exchange(false) && pacer_.joinable()) {
    pacer_.join();
  }
}

void ObladiStore::PacerLoop() {
  Tracer::Get().SetThreadName("epoch-pacer");
  // Absolute deadlines, not relative sleeps: a relative Δ per batch adds the
  // (network-bound) epoch change into the cadence — effective epoch length
  // becomes R*Δ + flush time, leaking flush duration into the dispatch
  // schedule. The deadline only re-anchors when the loop has fallen behind
  // (a serial epoch change longer than Δ), so a keeping-up pacer is
  // drift-free and its timing is workload- and latency-independent.
  uint64_t deadline = NowMicros() + cfg_.batch_interval_us;
  while (pacer_running_.load()) {
    for (size_t i = 0; i < cfg_.read_batches_per_epoch && pacer_running_.load(); ++i) {
      PreciseSleepUntilMicros(deadline);
      deadline = std::max(deadline + cfg_.batch_interval_us, NowMicros());
      Status st = StepReadBatch();
      if (!st.ok() && st.code() != StatusCode::kFailedPrecondition) {
        FailPacerFatal();  // storage failure: stop pacing, fail blocked clients
        return;
      }
    }
    if (!pacer_running_.load()) {
      return;
    }
    // Pipelined: close only — retirement rides the background stage while
    // the next epoch's batches dispatch on schedule. Serial baseline: drain.
    Status st = cfg_.pipeline_epochs ? CloseEpochNow() : FinishEpochNow();
    if (!st.ok()) {
      FailPacerFatal();
      return;
    }
  }
}

void ObladiStore::FailPacerFatal() {
  // The pacer is the only epoch driver in timed mode; if it stops on a
  // storage failure, nobody will ever close an epoch again, so clients
  // blocked on commit decisions or fetches must fail now rather than hang.
  std::lock_guard<std::mutex> lk(mu_);
  crashed_ = true;
  FailAllWaiters();
}

void ObladiStore::FailAllWaiters() {
  for (auto& batch : epoch_batches_) {
    for (auto& fetch : batch.fetches) {
      fetch.done->set_value(Status::Aborted("proxy crashed"));
    }
    batch.fetches.clear();
    batch.shard_counts.assign(cfg_.num_shards, 0);
  }
  for (auto& [ts, waiter] : commit_waiters_) {
    waiter->set_value(Status::Aborted("proxy crashed"));
  }
  commit_waiters_.clear();
  inflight_fetches_.clear();
}

void ObladiStore::SimulateCrash() {
  Stop();
  // Abandon any in-flight retirement: the dying proxy never appends its
  // pending checkpoint, and dispatchers blocked in the recovery unit's
  // ordering gate must fail (releasing dispatch_mu_) rather than wait for a
  // checkpoint that will never land.
  {
    std::lock_guard<std::mutex> rlk(retire_mu_);
    retire_abandon_ = true;
    retire_cv_.notify_all();
  }
  if (recovery_) {
    recovery_->AbandonPendingCheckpoint(Status::Unavailable("proxy crashed"));
  }
  // The worker must be quiescent before the ORAM object dies below.
  (void)DrainRetirement();
  std::lock_guard<std::mutex> dlk(dispatch_mu_);
  std::lock_guard<std::mutex> lk(mu_);
  crashed_ = true;
  FailAllWaiters();
  engine_.Reset();
  {
    // Claimed-timestamp translations are volatile proxy state too.
    std::lock_guard<std::mutex> slk(skew_mu_);
    claimed_to_internal_.clear();
  }
  // All volatile ORAM metadata is gone with the proxy.
  oram_.reset();
  {
    std::lock_guard<std::mutex> plk(plan_mu_);
    plan_batch_.clear();
    plan_done_ = false;
    plan_result_ = Status::Ok();
  }
  std::lock_guard<std::mutex> rlk(retire_mu_);
  retire_abandon_ = false;
  retire_status_ = Status::Ok();
}

Status ObladiStore::CompleteCrashEpoch(const std::vector<size_t>& replayed_per_shard) {
  // Per the security proof (Appendix B, H4): after replaying the aborted
  // epoch's logged sub-batches, complete the epoch's fixed structure — every
  // shard must still observe its full complement of R quota-sized
  // sub-batches — with fresh dummy sub-batches and an empty write batch,
  // then commit it.
  for (uint32_t s = 0; s < cfg_.num_shards; ++s) {
    for (size_t b = replayed_per_shard[s]; b < cfg_.read_batches_per_epoch; ++b) {
      if (cfg_.pipeline_epochs) {
        oram_->AdvanceShardWriteSchedule(s, WriteAdvanceForBatch(b));
      }
      OBLADI_RETURN_IF_ERROR(oram_->ReadShardDummyBatch(s));
    }
  }
  if (!cfg_.pipeline_epochs) {
    OBLADI_RETURN_IF_ERROR(oram_->WriteBatch({}));
  }
  // Pipelined: the (empty) write batch's schedule movement rode the batches
  // above (and the replayed ones), so there is nothing left to apply.
  OBLADI_RETURN_IF_ERROR(oram_->FinishEpoch());
  OBLADI_RETURN_IF_ERROR(recovery_->LogEpochCommit(oram_->shard_ptrs()));
  return oram_->TruncateStaleVersions();
}

Status ObladiStore::RecoverFromCrash(RecoveryBreakdown* breakdown) {
  OBS_SPAN("epoch", "recovery");
  std::lock_guard<std::mutex> dlk(dispatch_mu_);
  if (!recovery_) {
    return Status::FailedPrecondition("recovery is not enabled");
  }
  auto recovered = recovery_->Recover();
  if (!recovered.ok()) {
    return recovered.status();
  }
  if (!recovered->has_state) {
    return Status::DataLoss("no durable state to recover");
  }
  if (recovered->shards.size() != cfg_.num_shards) {
    return Status::InvalidArgument("checkpoint shard count does not match configuration");
  }

  uint64_t salt = recovered->epoch * 7919 + 1;
  {
    std::lock_guard<std::mutex> lk(mu_);
    salt += stats_.recoveries * 104729;
  }
  auto rebuilt = MakeOramSet(cfg_.seed ^ salt);
  {
    // mu_ guards oram_'s lifetime against concurrent metrics scrapes.
    std::lock_guard<std::mutex> lk(mu_);
    oram_ = std::move(rebuilt);
  }
  for (uint32_t s = 0; s < cfg_.num_shards; ++s) {
    RecoveryUnit::ShardState& shard = recovered->shards[s];
    OBLADI_RETURN_IF_ERROR(oram_->RestoreShardState(
        s, std::move(shard.position_map), std::move(shard.metas), std::move(shard.stash),
        shard.access_count, shard.evict_count, recovered->epoch));
  }
  InstallPlanHook(/*rendezvous=*/false);  // crash-epoch batches are single shard
  // Re-attach the watchdog to the rebuilt ORAM set and drop any tallies
  // from the aborted epoch — the replayed + completed crash epoch below
  // rebuilds a full complement of shaped sub-batches. The byte sample also
  // resets: recovery traffic is legitimately unshaped.
  AttachWatchdog();
  if (watchdog_) {
    watchdog_->ResetEpoch();
  }

  if (!recovered->metadata_full.empty()) {
    directory_.ApplyFull(recovered->metadata_full);
  }
  for (const Bytes& delta : recovered->metadata_deltas) {
    directory_.ApplyDelta(delta);
  }

  // Replay the unretired epochs' logged sub-batches so the adversary
  // observes the same paths again (§8), then complete each as a crash
  // epoch. With pipeline depth D the log can hold plans from up to D
  // epochs past the last durable checkpoint (D-1 closed-but-undurable
  // epochs plus the partial one); the plans carry their epoch, and each
  // epoch's group is replayed and completed oldest-first — completing one
  // advances the shards to the next logged epoch, exactly mirroring the
  // pre-crash timeline. Their commit decisions were never released (epoch
  // fate sharing), so dummy-completing them loses nothing acknowledged.
  // With no logged plans at all, one all-dummy crash epoch still runs.
  Stopwatch replay;
  const auto& plans = recovered->pending_plans;
  std::vector<size_t> replayed_per_shard(cfg_.num_shards, 0);
  size_t i = 0;
  do {
    replayed_per_shard.assign(cfg_.num_shards, 0);
    EpochId group_epoch = i < plans.size() ? plans[i].plan.epoch : 0;
    for (; i < plans.size() && plans[i].plan.epoch == group_epoch; ++i) {
      const RecoveryUnit::PendingPlan& pending = plans[i];
      // Mirror dispatch: under pipelining the write schedule advanced with
      // each batch, so the replayed physical trace matches the pre-crash
      // one exactly.
      if (cfg_.pipeline_epochs) {
        oram_->AdvanceShardWriteSchedule(pending.shard,
                                         WriteAdvanceForBatch(pending.plan.batch_index));
      }
      auto result = oram_->ReplayShardBatch(pending.shard, pending.plan);
      if (!result.ok()) {
        return result.status();
      }
      replayed_per_shard[pending.shard]++;
    }
    OBLADI_RETURN_IF_ERROR(CompleteCrashEpoch(replayed_per_shard));
  } while (i < plans.size());
  InstallPlanHook(/*rendezvous=*/true);
  recovered->breakdown.path_replay_us = replay.ElapsedMicros();
  recovered->breakdown.total_us += recovered->breakdown.path_replay_us;

  {
    std::lock_guard<std::mutex> lk(mu_);
    crashed_ = false;
    loaded_ = true;
    ResetEpochBatchesLocked();
    inflight_fetches_.clear();
    stats_.recoveries++;
  }
  if (breakdown != nullptr) {
    *breakdown = recovered->breakdown;
  }
  return Status::Ok();
}

ObladiStats ObladiStore::stats() const {
  ObladiStats out;
  {
    std::lock_guard<std::mutex> lk(mu_);
    out = stats_;
  }
  MvtsoStats txn = engine_.stats();
  out.txn_begun = txn.begun;
  out.txn_committed = txn.committed;
  out.txn_aborted = txn.aborts_write_conflict + txn.aborts_cascade +
                    txn.aborts_unfinished_epoch + txn.aborts_batch_overflow +
                    txn.aborts_explicit;
  out.aborts_per_committed_txn =
      txn.committed == 0 ? 0
                         : static_cast<double>(out.txn_aborted) /
                               static_cast<double>(txn.committed);
  return out;
}

}  // namespace obladi
