// Layer-boundary instrumentation of the end-to-end benchmark: an in-memory
// span log, per-operation latency recorders, and timing decorators that sit
// between two layers of the program (proxy -> remote stores on the proxy
// side, StorageServer -> backend on the storage side).
//
// The decorators forward every BucketStore/LogStore entry point, including
// SupportsAsyncBatches(), every *Async form, network_stats() and the
// replication hooks, so the program under a decorator takes exactly the
// paths it takes without one. When the probe is disarmed a decorator only
// forwards (plus one relaxed load); armed, it times each call from submit to
// completion and records a span.
#ifndef E2EBENCH_SRC_LAYERS_H_
#define E2EBENCH_SRC_LAYERS_H_

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/clock.h"
#include "src/storage/bucket_store.h"

namespace e2e {

using obladi::NowMicros;

// Samples of one quantity (milliseconds unless stated), median on demand.
class Samples {
 public:
  void Add(double v) {
    std::lock_guard<std::mutex> lk(mu_);
    values_.push_back(v);
  }
  size_t Count() const {
    std::lock_guard<std::mutex> lk(mu_);
    return values_.size();
  }
  std::vector<double> Values() const {
    std::lock_guard<std::mutex> lk(mu_);
    return values_;
  }
  // Nearest-rank quantile; 0 when empty.
  double Quantile(double q) const {
    std::vector<double> sorted;
    {
      std::lock_guard<std::mutex> lk(mu_);
      sorted = values_;
    }
    if (sorted.empty()) {
      return 0;
    }
    std::sort(sorted.begin(), sorted.end());
    size_t idx = static_cast<size_t>(q * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(idx, sorted.size() - 1)];
  }

 private:
  mutable std::mutex mu_;
  std::vector<double> values_;
};

struct Span {
  const char* name = "";
  const char* layer = "";
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t start_us = 0;
  uint64_t end_us = 0;
  uint64_t txn_or_epoch = 0;  // logical transaction id (client) or epoch id
  uint32_t tid = 0;
};

inline uint32_t ThreadTag() {
  static std::atomic<uint32_t> next{1};
  thread_local uint32_t tag = next.fetch_add(1);
  return tag;
}

// Everything one process records. `armed` gates the timing and the spans;
// the in-flight high-water mark is tracked always (one atomic each way).
class Probe {
 public:
  static constexpr size_t kMaxSpans = 400000;

  std::atomic<bool> armed{false};
  // Epoch the proxy is executing, refreshed by the benchmark's sampler; tags
  // storage-path spans that no logical transaction owns.
  std::atomic<uint64_t> epoch{0};

  bool Armed() const { return armed.load(std::memory_order_relaxed); }
  uint64_t NewSpanId() { return next_span_.fetch_add(1, std::memory_order_relaxed); }

  void AddSpan(const Span& s) {
    std::lock_guard<std::mutex> lk(span_mu_);
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(s);
    }
  }
  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lk(span_mu_);
    return spans_;
  }

  Samples& Op(const std::string& name) {
    std::lock_guard<std::mutex> lk(ops_mu_);
    auto& slot = ops_[name];
    if (!slot) {
      slot = std::make_unique<Samples>();
    }
    return *slot;
  }
  std::map<std::string, const Samples*> ops() const {
    std::lock_guard<std::mutex> lk(ops_mu_);
    std::map<std::string, const Samples*> out;
    for (const auto& [name, s] : ops_) {
      out[name] = s.get();
    }
    return out;
  }

  void Enter() {
    uint64_t now = inflight_.fetch_add(1, std::memory_order_relaxed) + 1;
    uint64_t prev = max_inflight_.load(std::memory_order_relaxed);
    while (now > prev && !max_inflight_.compare_exchange_weak(prev, now)) {
    }
  }
  void Leave() { inflight_.fetch_sub(1, std::memory_order_relaxed); }
  uint64_t max_inflight() const { return max_inflight_.load(); }

  // Replica write spread: every replica copy of one logical write reports
  // its completion time under the write's group id; once all `fanout`
  // copies are in, the slowest minus the fastest is recorded.
  void NoteReplicaDone(uint64_t group, size_t fanout, uint64_t done_us) {
    std::lock_guard<std::mutex> lk(spread_mu_);
    auto& g = groups_[group];
    g.push_back(done_us);
    if (g.size() >= fanout) {
      uint64_t lo = *std::min_element(g.begin(), g.end());
      uint64_t hi = *std::max_element(g.begin(), g.end());
      replica_spread_ms.Add(static_cast<double>(hi - lo) / 1000.0);
      groups_.erase(group);
    }
  }
  Samples replica_spread_ms;

 private:
  std::atomic<uint64_t> next_span_{1};
  mutable std::mutex span_mu_;
  std::vector<Span> spans_;
  mutable std::mutex ops_mu_;
  std::map<std::string, std::unique_ptr<Samples>> ops_;
  std::atomic<uint64_t> inflight_{0};
  std::atomic<uint64_t> max_inflight_{0};
  std::mutex spread_mu_;
  std::unordered_map<uint64_t, std::vector<uint64_t>> groups_;
};

// One timed call: records latency under "<layer>.<op>" and a span on
// completion. A null probe makes it a no-op.
class Timing {
 public:
  Timing(Probe* probe, const char* layer, const char* op)
      : probe_(probe), layer_(layer), op_(op), armed_(probe != nullptr && probe->Armed()) {
    if (probe_ == nullptr) {
      return;
    }
    probe_->Enter();
    if (armed_) {
      start_us_ = NowMicros();
    }
  }
  void Finish() {
    if (probe_ == nullptr) {
      return;
    }
    probe_->Leave();
    if (!armed_) {
      return;
    }
    uint64_t end = NowMicros();
    probe_->Op(std::string(layer_) + "." + op_).Add(static_cast<double>(end - start_us_) / 1000.0);
    Span s;
    s.name = op_;
    s.layer = layer_;
    s.id = probe_->NewSpanId();
    s.start_us = start_us_;
    s.end_us = end;
    s.txn_or_epoch = probe_->epoch.load(std::memory_order_relaxed);
    s.tid = ThreadTag();
    probe_->AddSpan(s);
  }

 private:
  Probe* probe_;
  const char* layer_;
  const char* op_;
  bool armed_;
  uint64_t start_us_ = 0;
};

// Write-group id shared by the replica copies of one replicated write: set
// by the shard-level decorator around its call into ReplicatedBucketStore,
// which fans the write out to its replicas on the calling thread.
inline thread_local uint64_t tls_write_group = 0;

class TimedBucketStore : public obladi::BucketStore {
 public:
  // `fanout` > 0 marks a replica-level decorator under a replicated store
  // with that many replicas (it reports replica write completions).
  // `group_writes` marks the shard-level decorator above such a store: it
  // only opens write groups and times nothing, so no call is counted twice.
  TimedBucketStore(std::shared_ptr<obladi::BucketStore> inner, Probe* probe, const char* layer,
                   size_t fanout = 0, bool group_writes = false)
      : inner_(std::move(inner)),
        probe_(probe),
        timed_(group_writes ? nullptr : probe),
        layer_(layer),
        fanout_(fanout),
        group_writes_(group_writes) {}

  obladi::StatusOr<obladi::Bytes> ReadSlot(obladi::BucketIndex bucket, uint32_t version,
                                           obladi::SlotIndex slot) override {
    Timing t(timed_, layer_, "read_slots");
    auto r = inner_->ReadSlot(bucket, version, slot);
    t.Finish();
    return r;
  }
  obladi::Status WriteBucket(obladi::BucketIndex bucket, uint32_t version,
                             std::vector<obladi::Bytes> slots) override {
    GroupScope g(this);
    Timing t(timed_, layer_, "write_buckets");
    auto r = inner_->WriteBucket(bucket, version, std::move(slots));
    t.Finish();
    NoteReplica(g.group);
    return r;
  }
  std::vector<obladi::StatusOr<obladi::Bytes>> ReadSlotsBatch(
      const std::vector<obladi::SlotRef>& refs) override {
    Timing t(timed_, layer_, "read_slots");
    auto r = inner_->ReadSlotsBatch(refs);
    t.Finish();
    return r;
  }
  obladi::Status WriteBucketsBatch(std::vector<obladi::BucketImage> images) override {
    GroupScope g(this);
    Timing t(timed_, layer_, "write_buckets");
    auto r = inner_->WriteBucketsBatch(std::move(images));
    t.Finish();
    NoteReplica(g.group);
    return r;
  }
  obladi::Status TruncateBucket(obladi::BucketIndex bucket, uint32_t keep_from_version) override {
    Timing t(timed_, layer_, "truncate");
    auto r = inner_->TruncateBucket(bucket, keep_from_version);
    t.Finish();
    return r;
  }
  obladi::Status TruncateBucketsBatch(const std::vector<obladi::TruncateRef>& refs) override {
    Timing t(timed_, layer_, "truncate");
    auto r = inner_->TruncateBucketsBatch(refs);
    t.Finish();
    return r;
  }
  std::vector<obladi::StatusOr<obladi::PathXorResult>> ReadPathsXor(
      const std::vector<obladi::PathSlots>& paths, uint32_t header_bytes,
      uint32_t trailer_bytes) override {
    Timing t(timed_, layer_, "read_paths_xor");
    auto r = inner_->ReadPathsXor(paths, header_bytes, trailer_bytes);
    t.Finish();
    return r;
  }

  bool SupportsAsyncBatches() const override { return inner_->SupportsAsyncBatches(); }
  void ReadSlotsBatchAsync(std::vector<obladi::SlotRef> refs, ReadSlotsDone done) override {
    auto t = std::make_shared<Timing>(timed_, layer_, "read_slots");
    inner_->ReadSlotsBatchAsync(std::move(refs),
                                [t, done = std::move(done)](auto results) {
                                  t->Finish();
                                  done(std::move(results));
                                });
  }
  void WriteBucketsBatchAsync(std::vector<obladi::BucketImage> images,
                              WriteBucketsDone done) override {
    GroupScope g(this);
    auto t = std::make_shared<Timing>(timed_, layer_, "write_buckets");
    uint64_t group = g.group;
    inner_->WriteBucketsBatchAsync(
        std::move(images), [this, t, group, done = std::move(done)](obladi::Status s) {
          t->Finish();
          NoteReplica(group);
          done(std::move(s));
        });
  }
  void ReadPathsXorAsync(std::vector<obladi::PathSlots> paths, uint32_t header_bytes,
                         uint32_t trailer_bytes, ReadPathsXorDone done) override {
    auto t = std::make_shared<Timing>(timed_, layer_, "read_paths_xor");
    inner_->ReadPathsXorAsync(std::move(paths), header_bytes, trailer_bytes,
                              [t, done = std::move(done)](auto results) {
                                t->Finish();
                                done(std::move(results));
                              });
  }

  size_t num_buckets() const override { return inner_->num_buckets(); }
  obladi::NetworkStats* network_stats() override { return inner_->network_stats(); }
  obladi::ReplicationStats replication_stats() override { return inner_->replication_stats(); }
  void NoteEpochRetired(obladi::EpochId epoch) override { inner_->NoteEpochRetired(epoch); }
  obladi::Status TryHealReplicas() override { return inner_->TryHealReplicas(); }

 private:
  // Opens a write group for the duration of a shard-level write call.
  struct GroupScope {
    explicit GroupScope(TimedBucketStore* s) {
      if (s->group_writes_ && s->probe_->Armed()) {
        static std::atomic<uint64_t> next{1};
        outer = tls_write_group;
        tls_write_group = next.fetch_add(1);
        owner = true;
      }
      group = tls_write_group;
    }
    ~GroupScope() {
      if (owner) {
        tls_write_group = outer;
      }
    }
    uint64_t group = 0;
    uint64_t outer = 0;
    bool owner = false;
  };
  void NoteReplica(uint64_t group) {
    if (fanout_ > 0 && group != 0) {
      probe_->NoteReplicaDone(group, fanout_, NowMicros());
    }
  }

  std::shared_ptr<obladi::BucketStore> inner_;
  Probe* probe_;
  Probe* timed_;  // null for the group-only role
  const char* layer_;
  size_t fanout_;
  bool group_writes_;
};

// LogStore decorator; also counts appended records and bytes (the WAL
// ledger) whether or not the probe is armed.
class TimedLogStore : public obladi::LogStore {
 public:
  TimedLogStore(std::shared_ptr<obladi::LogStore> inner, Probe* probe, const char* layer)
      : inner_(std::move(inner)), probe_(probe), layer_(layer) {}

  obladi::StatusOr<uint64_t> Append(obladi::Bytes record) override {
    Count(record);
    Timing t(probe_, layer_, "log_append");
    auto r = inner_->Append(std::move(record));
    t.Finish();
    return r;
  }
  obladi::Status Sync() override {
    Timing t(probe_, layer_, "log_sync");
    auto r = inner_->Sync();
    t.Finish();
    return r;
  }
  obladi::StatusOr<uint64_t> AppendSync(obladi::Bytes record) override {
    Count(record);
    Timing t(probe_, layer_, "log_append_sync");
    auto r = inner_->AppendSync(std::move(record));
    t.Finish();
    return r;
  }
  obladi::StatusOr<std::vector<obladi::Bytes>> ReadAll() override {
    Timing t(probe_, layer_, "log_read_all");
    auto r = inner_->ReadAll();
    t.Finish();
    return r;
  }
  obladi::Status Truncate(uint64_t upto_lsn) override {
    Timing t(probe_, layer_, "log_truncate");
    auto r = inner_->Truncate(upto_lsn);
    t.Finish();
    return r;
  }
  uint64_t NextLsn() const override { return inner_->NextLsn(); }
  obladi::NetworkStats* network_stats() override { return inner_->network_stats(); }
  obladi::ReplicationStats replication_stats() override { return inner_->replication_stats(); }
  void NoteEpochRetired(obladi::EpochId epoch) override { inner_->NoteEpochRetired(epoch); }
  obladi::Status TryHealReplicas() override { return inner_->TryHealReplicas(); }

  uint64_t appends() const { return appends_.load(); }
  uint64_t bytes() const { return bytes_.load(); }

 private:
  void Count(const obladi::Bytes& record) {
    appends_.fetch_add(1, std::memory_order_relaxed);
    bytes_.fetch_add(record.size(), std::memory_order_relaxed);
  }

  std::shared_ptr<obladi::LogStore> inner_;
  Probe* probe_;
  const char* layer_;
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> bytes_{0};
};

// Process CPU time (user + system) in milliseconds.
inline double ProcessCpuMs() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 + static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

// The leading number of a field of /proc/self/status ("Threads:", "VmHWM:"
// in kB), or 0 if absent.
inline uint64_t ProcStatusField(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) {
    return 0;
  }
  char line[256];
  uint64_t value = 0;
  size_t n = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, n) == 0) {
      value = std::strtoull(line + n, nullptr, 10);
      break;
    }
  }
  std::fclose(f);
  return value;
}

}  // namespace e2e

#endif  // E2EBENCH_SRC_LAYERS_H_
