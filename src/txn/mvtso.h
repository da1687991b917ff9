// Multiversioned timestamp ordering (MVTSO) concurrency control (§6.1).
//
// Obladi chooses MVTSO because uncommitted writes are immediately visible to
// concurrent transactions — essential when commit decisions are delayed to
// epoch boundaries (a pessimistic scheme would hold write locks for a whole
// epoch). The engine implements:
//   * version chains per key with read markers;
//   * the MVTSO write rule (abort a writer whose predecessor version was
//     already read by a later-timestamped transaction);
//   * write-read dependency tracking with cascading aborts;
//   * two commit disciplines: epoch commit (Obladi — Finish() registers the
//     request, EndEpoch() decides all transactions at once) and immediate
//     commit (NoPriv — TryCommitImmediate waits for dependencies).
//
// The engine is purely in-memory: callers fetch missing base values from
// their storage (ORAM or remote KV) and install them with InstallBase. For
// Obladi, the version chains double as the epoch's version cache (§6.2):
// EndEpoch clears them and returns the final write set for the write batch.
#ifndef OBLADI_SRC_TXN_MVTSO_H_
#define OBLADI_SRC_TXN_MVTSO_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/txn/kv_interface.h"

namespace obladi {

enum class TxnState : uint8_t {
  kActive,     // executing
  kFinished,   // commit requested, awaiting epoch decision
  kCommitted,
  kAborted,
};

struct ReadOutcome {
  enum Kind { kValue, kNeedBase, kAborted } kind = kAborted;
  std::string value;
};

struct EpochOutcome {
  std::vector<Timestamp> committed;
  std::vector<Timestamp> aborted;
  // Last committed version of every key written this epoch (the write batch).
  std::vector<std::pair<Key, std::string>> final_writes;
};

// Admission rule for the epoch's fixed-size write batch. A sharded proxy
// additionally caps the distinct write keys routed to each ORAM shard: the
// per-shard write batches are padded to a fixed quota, so a transaction
// whose writes would overflow any shard's quota aborts (the same "batch
// filling up" rule as the global cap, applied per partition).
struct WriteBatchAdmission {
  size_t max_write_keys = 0;                    // global cap; 0 = unlimited
  std::function<uint32_t(const Key&)> shard_of; // null = single shard
  std::vector<size_t> shard_quotas;             // per-shard distinct-key caps
  // Pipelined epochs: re-install the epoch's final committed writes as the
  // next epoch's base versions (writer ts 0) after the chains are cleared.
  // Epoch-commit *admission* is thereby decoupled from durability *release*:
  // the next epoch reads the committed values straight from the version
  // cache while the write batch is still being flushed to the ORAM in the
  // background — no client learns a commit decision any earlier (the proxy
  // still withholds those until the epoch's checkpoint is durable), and on a
  // crash the whole undurable epoch vanishes with the cache.
  bool install_committed_as_base = false;
};

struct MvtsoStats {
  uint64_t begun = 0;
  uint64_t committed = 0;
  uint64_t aborts_write_conflict = 0;
  uint64_t aborts_cascade = 0;
  uint64_t aborts_unfinished_epoch = 0;
  uint64_t aborts_batch_overflow = 0;
  uint64_t aborts_explicit = 0;
};

class MvtsoEngine {
 public:
  MvtsoEngine() = default;

  Timestamp Begin();

  // Returns the latest version with writer timestamp <= ts, recording the
  // read marker and (if the writer is uncommitted) a write-read dependency.
  ReadOutcome Read(Timestamp ts, const Key& key);

  // MVTSO write rule; kAborted (with cascade) on conflict.
  Status Write(Timestamp ts, const Key& key, std::string value);

  // Install the committed base version fetched from storage (writer ts 0).
  void InstallBase(const Key& key, std::string value);
  bool HasAnyVersion(const Key& key) const;

  // Epoch mode: register a commit request; the decision comes from EndEpoch.
  Status Finish(Timestamp ts);

  // Immediate mode (NoPriv): wait until every dependency is decided, then
  // commit. Returns kAborted if the transaction or a dependency aborted.
  Status TryCommitImmediate(Timestamp ts);

  // Explicit abort with cascade. Idempotent.
  void Abort(Timestamp ts) { AbortWithReason(ts, AbortReason::kExplicit); }

  // Same, counted as a batch-overflow abort: the proxy could not schedule
  // the transaction's fetch in this epoch's read batches.
  void AbortBatchOverflow(Timestamp ts) { AbortWithReason(ts, AbortReason::kBatchOverflow); }

  // Epoch mode: decide every live transaction. Finished transactions commit
  // in timestamp order while their combined distinct write-key count fits in
  // max_write_keys (0 = unlimited); everything else aborts. Clears all
  // version chains (the version cache lives one epoch, §6.2).
  EpochOutcome EndEpoch(size_t max_write_keys);

  // Same, with per-shard write-batch admission (sharded proxies).
  EpochOutcome EndEpoch(const WriteBatchAdmission& admission);

  TxnState GetState(Timestamp ts) const;
  std::vector<std::pair<Key, std::string>> WritesOf(Timestamp ts) const;

  // Drop all transactions and version chains (proxy crash). The timestamp
  // counter keeps advancing so handles stay unique across the crash.
  void Reset();

  MvtsoStats stats() const;

 private:
  enum class AbortReason { kWriteConflict, kCascade, kUnfinishedEpoch, kBatchOverflow, kExplicit };

  struct Version {
    Timestamp writer = 0;  // 0 = committed base from storage
    std::string value;
    Timestamp max_read = 0;  // read marker
  };
  struct Chain {
    std::vector<Version> versions;  // ascending writer timestamp
    Timestamp pruned_floor = 0;     // readers older than this must abort
  };
  struct TxnRecord {
    TxnState state = TxnState::kActive;
    std::unordered_set<Timestamp> deps;        // uncommitted writers observed
    std::unordered_set<Timestamp> dependents;  // who observed our writes
    std::map<Key, std::string> writes;
  };

  void AbortWithReason(Timestamp ts, AbortReason reason);
  void AbortLocked(Timestamp ts, AbortReason reason);
  void RemoveVersionsOf(Timestamp ts, const TxnRecord& rec);
  TxnRecord* FindTxn(Timestamp ts);
  const TxnRecord* FindTxn(Timestamp ts) const;

  mutable std::mutex mu_;
  std::condition_variable decided_cv_;
  std::atomic<Timestamp> next_ts_{1};
  std::map<Timestamp, TxnRecord> txns_;
  std::unordered_map<Key, Chain> chains_;
  MvtsoStats stats_;
};

}  // namespace obladi

#endif  // OBLADI_SRC_TXN_MVTSO_H_
