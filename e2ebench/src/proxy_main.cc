// Proxy process of the end-to-end benchmark.
//
//   e2e_proxy --workload NAME --seed N --seconds S --trace 0|1
//             --storage-bin PATH [--history-out FILE] [--trace-out FILE]
//             [--nopriv]
//
// Starts the storage node(s) as a separate process (PATH), connects the
// Obladi proxy to them over RemoteBucketStore/RemoteLogStore, loads the
// workload's initial records, and drives closed-loop clients for S seconds
// after a warm-up. Commits are pipelined with ObladiStore::CommitAsync; one
// decision-waiter thread blocks on the decisions. A transaction whose
// decision comes back aborted, or whose body runs out of in-body attempts,
// is re-run with the same drawn inputs.
//
// After the run drains, every key written by a committed transaction is
// read back through the proxy, and the client-observed history is checked
// by serial replay (history.h). The last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1; also writes a Chrome trace to --trace-out).
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_apps_common.h"
#include "src/baseline/nopriv_store.h"
#include "src/crypto/encryptor.h"
#include "src/net/remote_store.h"
#include "src/net/replicated_store.h"
#include "src/oram/block_codec.h"
#include "src/proxy/obladi_store.h"
#include "src/workload/driver.h"
#include "src/history.h"
#include "src/layers.h"

extern char** environ;

namespace e2e {
namespace {

using namespace obladi;

// ---------------------------------------------------------------------------
// Workloads and deployment shapes.

struct WorkloadSpec {
  const char* name;
  AppKind kind;
  uint32_t shards;
  uint32_t replicas;
  uint32_t write_quorum;
  uint64_t link_delay_ms;  // modeled link delay at the storage node (0 = none)
  size_t storage_workers;
  double warmup_s;
};

const WorkloadSpec kSpecs[] = {
    {"smallbank", AppKind::kSmallBank, 1, 1, 1, 0, 16, 2.0},
    {"freehealth", AppKind::kFreeHealth, 1, 1, 1, 0, 16, 2.0},
    {"smallbank_k4r2_wan", AppKind::kSmallBank, 4, 2, 2, 10, 80, 3.0},
};

// Batch interval Δ of every workload. Long enough that the pacer holds its
// R·Δ schedule with headroom on a 4-vCPU host (a batch step takes ~10 ms of
// proxy work at these epoch sizes): CPU-saturated epochs swing with host
// steal, while a held schedule keeps throughput and latency steady and
// leaves proxy CPU visible as proxy_cpu_ms_per_txn.
constexpr uint64_t kBatchIntervalUs = 20000;
constexpr size_t kClients = 3;  // + 1 decision waiter = 4 load threads
constexpr size_t kMaxUndecidedPerClient = 16;
constexpr int kMaxReruns = 50;  // re-runs of one logical transaction
constexpr size_t kReadbackThreads = 32;
constexpr uint64_t kDecisionTimeoutS = 60;
// Set-ups per run: all but the last run in child processes, so the measured
// process's peak RSS covers one set-up only; the median time is reported.
constexpr int kSetups = 3;

std::unique_ptr<Workload> MakeWorkload(AppKind kind) { return MakeAppWorkload(kind, false); }

ObladiConfig MakeConfig(const WorkloadSpec& spec, uint64_t capacity, uint64_t seed) {
  // Paper epoch parameters (R, b_read, b_write, Z, block size) from the
  // application configuration; every other ORAM option at its default.
  ObladiConfig cfg = AppObladiConfig(spec.kind, capacity);
  cfg.oram_options = RingOramOptions{};
  cfg.recovery.enabled = true;
  cfg.num_shards = spec.shards;
  cfg.batch_interval_us = kBatchIntervalUs;
  cfg.seed = seed;
  return cfg;
}

// ---------------------------------------------------------------------------
// The storage-node child process, driven over its stdin/stdout.

class StorageProcess {
 public:
  StorageProcess() = default;
  StorageProcess(const StorageProcess&) = delete;
  StorageProcess& operator=(const StorageProcess&) = delete;
  ~StorageProcess() { Stop(); }

  bool Start(const std::string& bin, const std::vector<std::string>& args,
             std::vector<uint16_t>* ports) {
    int to_child[2];
    int from_child[2];
    if (pipe2(to_child, O_CLOEXEC) != 0) {
      return false;
    }
    if (pipe2(from_child, O_CLOEXEC) != 0) {
      close(to_child[0]);
      close(to_child[1]);
      return false;
    }
    posix_spawn_file_actions_t fa;
    posix_spawn_file_actions_init(&fa);
    posix_spawn_file_actions_adddup2(&fa, to_child[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&fa, from_child[1], STDOUT_FILENO);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(bin.c_str()));
    for (const auto& a : args) {
      argv.push_back(const_cast<char*>(a.c_str()));
    }
    argv.push_back(nullptr);
    int rc = posix_spawn(&pid_, bin.c_str(), &fa, nullptr, argv.data(), environ);
    posix_spawn_file_actions_destroy(&fa);
    close(to_child[0]);
    close(from_child[1]);
    in_fd_ = to_child[1];
    out_fd_ = from_child[0];
    if (rc != 0) {
      pid_ = -1;
      std::fprintf(stderr, "cannot start %s: %s\n", bin.c_str(), std::strerror(rc));
      return false;
    }
    std::string line;
    if (!ReadLine(&line, 60000) || line.rfind("PORTS", 0) != 0) {
      std::fprintf(stderr, "storage node did not report its ports\n");
      return false;
    }
    ports->clear();
    size_t pos = 5;
    while (pos < line.size()) {
      size_t next = line.find(' ', pos + 1);
      std::string tok =
          line.substr(pos, next == std::string::npos ? std::string::npos : next - pos);
      if (tok.find_first_not_of(' ') != std::string::npos) {
        ports->push_back(static_cast<uint16_t>(std::stoul(tok)));
      }
      if (next == std::string::npos) {
        break;
      }
      pos = next;
    }
    return !ports->empty();
  }

  bool Send(const std::string& line) {
    std::string s = line + "\n";
    return in_fd_ >= 0 && write(in_fd_, s.data(), s.size()) == static_cast<ssize_t>(s.size());
  }

  // One request/response exchange ("stats").
  std::string Query(const std::string& line) {
    std::string reply;
    if (!Send(line) || !ReadLine(&reply, 30000)) {
      return "";
    }
    return reply;
  }

  void Stop() {
    if (in_fd_ >= 0) {
      Send("quit");
      close(in_fd_);
      in_fd_ = -1;
    }
    if (pid_ > 0) {
      int status = 0;
      for (int i = 0; i < 2000; ++i) {  // up to 20 s for a clean exit
        if (waitpid(pid_, &status, WNOHANG) == pid_) {
          pid_ = -1;
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
      }
      if (pid_ > 0) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        pid_ = -1;
      }
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

 private:
  bool ReadLine(std::string* line, int timeout_ms) {
    uint64_t deadline = NowMicros() + static_cast<uint64_t>(timeout_ms) * 1000;
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      uint64_t now = NowMicros();
      if (now >= deadline || out_fd_ < 0) {
        return false;
      }
      pollfd p{out_fd_, POLLIN, 0};
      if (poll(&p, 1, static_cast<int>((deadline - now) / 1000) + 1) <= 0) {
        continue;
      }
      char chunk[4096];
      ssize_t n = read(out_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        return false;
      }
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  pid_t pid_ = -1;
  int in_fd_ = -1;
  int out_fd_ = -1;
  std::string buf_;
};

// Runs this program again with `args` and returns its standard output.
std::string RunChild(const std::vector<std::string>& args) {
  char self[4096];
  ssize_t len = readlink("/proc/self/exe", self, sizeof(self) - 1);
  int fds[2];
  if (len <= 0 || pipe2(fds, O_CLOEXEC) != 0) {
    return "";
  }
  self[len] = '\0';
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
  std::vector<char*> argv{self};
  for (const auto& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  pid_t pid = -1;
  int rc = posix_spawn(&pid, self, &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  close(fds[1]);
  std::string out;
  if (rc == 0) {
    char chunk[4096];
    ssize_t n = 0;
    while ((n = read(fds[0], chunk, sizeof(chunk))) > 0) {
      out.append(chunk, static_cast<size_t>(n));
    }
    int status = 0;
    waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
      out.clear();
    }
  }
  close(fds[0]);
  return out;
}

// Pulls `"key": number` out of the storage node's flat JSON stats line.
double JsonNumber(const std::string& json, const std::string& key, size_t from = 0) {
  size_t at = json.find("\"" + key + "\"", from);
  if (at == std::string::npos) {
    return 0;
  }
  size_t colon = json.find(':', at);
  return colon == std::string::npos ? 0 : std::strtod(json.c_str() + colon + 1, nullptr);
}
double StorageOpP50(const std::string& json, const std::string& op) {
  size_t at = json.find("\"" + op + "\"");
  return at == std::string::npos ? 0 : JsonNumber(json, "p50_ms", at);
}

// ---------------------------------------------------------------------------
// One deployment: storage process + proxy over remote stores.

struct Deployment {
  StorageProcess storage;
  std::vector<NetworkStats*> wire;  // every bucket and log connection
  std::shared_ptr<TimedLogStore> wal;  // traced runs only
  std::unique_ptr<ObladiStore> proxy;
  ObladiConfig cfg;
  double setup_s = 0;

  ~Deployment() {
    if (proxy) {
      proxy->Stop();
      (void)proxy->DrainRetirement();
      proxy.reset();
    }
    storage.Stop();
  }
};

struct Probes {
  Probe net;  // proxy -> remote bucket stores
  Probe wal;  // proxy -> remote log
  Probe client;
  void Arm(bool on) {
    net.armed.store(on);
    wal.armed.store(on);
    client.armed.store(on);
  }
};

std::unique_ptr<Deployment> SetUp(const WorkloadSpec& spec, const std::string& storage_bin,
                                  const std::vector<std::pair<Key, std::string>>& records,
                                  uint64_t seed, Probes* probes) {
  auto dep = std::make_unique<Deployment>();
  uint64_t capacity = records.size() + records.size() / 2 + 4096;
  dep->cfg = MakeConfig(spec, capacity, seed);
  const ObladiConfig& cfg = dep->cfg;
  ShardLayout layout = cfg.MakeLayout();
  const bool replicated = spec.replicas > 1;
  const size_t nodes = replicated ? static_cast<size_t>(spec.shards) * spec.replicas : 1;
  const size_t node_buckets =
      replicated ? layout.shard_config.num_buckets() : cfg.StoreBuckets();

  uint64_t t0 = NowMicros();
  std::vector<uint16_t> ports;
  if (!dep->storage.Start(storage_bin,
                          {"--nodes", std::to_string(nodes), "--buckets",
                           std::to_string(node_buckets), "--slots",
                           std::to_string(layout.shard_config.slots_per_bucket()),
                           "--delay-ms", std::to_string(spec.link_delay_ms), "--workers",
                           std::to_string(spec.storage_workers)},
                          &ports) ||
      ports.size() != nodes) {
    return nullptr;
  }
  auto connect_buckets = [&](uint16_t port) -> std::shared_ptr<BucketStore> {
    RemoteStoreOptions opts;
    opts.port = port;
    auto r = RemoteBucketStore::Connect(opts);
    if (!r.ok()) {
      std::fprintf(stderr, "connect: %s\n", r.status().ToString().c_str());
      return nullptr;
    }
    dep->wire.push_back((*r)->network_stats());
    return std::shared_ptr<BucketStore>(std::move(*r));
  };
  auto connect_log = [&](uint16_t port) -> std::shared_ptr<LogStore> {
    RemoteStoreOptions opts;
    opts.port = port;
    auto r = RemoteLogStore::Connect(opts);
    if (!r.ok()) {
      std::fprintf(stderr, "connect: %s\n", r.status().ToString().c_str());
      return nullptr;
    }
    dep->wire.push_back((*r)->network_stats());
    return std::shared_ptr<LogStore>(std::move(*r));
  };

  std::shared_ptr<LogStore> log;
  if (!replicated) {
    auto buckets = connect_buckets(ports[0]);
    log = connect_log(ports[0]);
    if (!buckets || !log) {
      return nullptr;
    }
    if (probes != nullptr) {
      buckets = std::make_shared<TimedBucketStore>(buckets, &probes->net, "net");
      dep->wal = std::make_shared<TimedLogStore>(log, &probes->wal, "wal");
      log = dep->wal;
    }
    dep->proxy = std::make_unique<ObladiStore>(cfg, buckets, log);
  } else {
    // Node (shard k, replica r) = r * K + k; the WAL's replicas live on the
    // shard-0 nodes.
    ReplicatedStoreOptions ropts;
    ropts.write_quorum = spec.write_quorum;
    std::vector<std::shared_ptr<BucketStore>> shard_stores;
    for (uint32_t k = 0; k < spec.shards; ++k) {
      std::vector<std::shared_ptr<BucketStore>> replicas;
      for (uint32_t r = 0; r < spec.replicas; ++r) {
        auto b = connect_buckets(ports[r * spec.shards + k]);
        if (!b) {
          return nullptr;
        }
        if (probes != nullptr) {
          b = std::make_shared<TimedBucketStore>(b, &probes->net, "net", spec.replicas);
        }
        replicas.push_back(std::move(b));
      }
      std::shared_ptr<BucketStore> shard =
          std::make_shared<ReplicatedBucketStore>(std::move(replicas), ropts);
      if (probes != nullptr) {
        shard = std::make_shared<TimedBucketStore>(shard, &probes->net, "shard", 0,
                                                   /*group_writes=*/true);
      }
      shard_stores.push_back(std::move(shard));
    }
    std::vector<std::shared_ptr<LogStore>> log_replicas;
    for (uint32_t r = 0; r < spec.replicas; ++r) {
      auto l = connect_log(ports[r * spec.shards]);
      if (!l) {
        return nullptr;
      }
      log_replicas.push_back(std::move(l));
    }
    log = std::make_shared<ReplicatedLogStore>(std::move(log_replicas), ropts);
    if (probes != nullptr) {
      dep->wal = std::make_shared<TimedLogStore>(log, &probes->wal, "wal");
      log = dep->wal;
    }
    dep->proxy = std::make_unique<ObladiStore>(cfg, std::move(shard_stores), log);
  }
  Status st = dep->proxy->Load(records);
  if (!st.ok()) {
    std::fprintf(stderr, "load failed: %s\n", st.ToString().c_str());
    return nullptr;
  }
  dep->setup_s = static_cast<double>(NowMicros() - t0) / 1e6;
  return dep;
}

// ---------------------------------------------------------------------------
// Load generation.

struct Logical {
  uint64_t id = 0;
  uint64_t seed = 0;  // the transaction's drawn inputs: RunOne(Rng(seed))
  int reruns = 0;
};

struct Attempt {
  Timestamp ts = 0;
  uint64_t begin_us = 0;
  uint64_t span = 0;  // client span id (traced runs)
  std::vector<Op> ops;
};

struct PendingDecision {
  size_t client = 0;
  Logical logical;
  Attempt attempt;
  std::shared_future<Status> decision;
  uint64_t commit_call_us = 0;
};

struct Window {
  std::atomic<uint64_t> start_us{UINT64_MAX};
  std::atomic<uint64_t> end_us{UINT64_MAX};
  bool Contains(uint64_t t) const {
    return t >= start_us.load(std::memory_order_relaxed) &&
           t < end_us.load(std::memory_order_relaxed);
  }
};

class LoadRun {
 public:
  LoadRun(ObladiStore& proxy, Workload& workload, uint64_t seed, Probes* probes)
      : proxy_(proxy), workload_(workload), seed_(seed), probes_(probes), clients_(kClients) {}

  void Start() {
    waiter_ = std::thread([this] { WaiterLoop(); });
    for (size_t c = 0; c < kClients; ++c) {
      threads_.emplace_back([this, c] { ClientLoop(c); });
    }
  }

  // Stop drawing transactions, let every undecided commit resolve, and
  // abandon logical transactions still waiting for a re-run.
  void Stop() {
    stop_.store(true);
    {
      std::lock_guard<std::mutex> lk(mu_);
      cv_.notify_all();
    }
    for (auto& t : threads_) {
      t.join();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      clients_done_ = true;
      cv_.notify_all();
    }
    waiter_.join();
  }

  Window window;
  std::atomic<uint64_t> commits{0};       // decided committed, any time
  std::atomic<uint64_t> win_commits{0};   // ... inside the window
  std::atomic<uint64_t> win_finished{0};  // logical txns finished inside the window
  std::atomic<uint64_t> win_failed{0};
  std::atomic<uint64_t> win_begins{0};
  std::atomic<bool> fatal{false};
  Samples commit_ms;         // Begin of the committing attempt -> decision
  Samples decision_wait_ms;  // CommitAsync -> decision (armed only)
  Samples read_wait_ms;      // answered ObladiStore::Read calls (armed only)

  std::vector<CommittedTxn> TakeHistory() {
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(history_);
  }

 private:
  // The client's view of the proxy: forwards to ObladiStore, records what
  // each attempt observed, and turns Commit into CommitAsync + hand-off.
  class ClientKv : public TransactionalKv {
   public:
    ClientKv(LoadRun& run, size_t client) : run_(run), client_(client) {}

    void SetLogical(const Logical& l) {
      logical_ = l;
      submitted_ = false;
    }
    bool submitted() const { return submitted_; }

    Timestamp Begin() override {
      cur_ = Attempt{};
      cur_.ts = run_.proxy_.Begin();
      cur_.begin_us = NowMicros();
      if (run_.window.Contains(cur_.begin_us)) {
        run_.win_begins.fetch_add(1, std::memory_order_relaxed);
      }
      if (run_.probes_ != nullptr && run_.probes_->client.Armed()) {
        cur_.span = run_.probes_->client.NewSpanId();
      }
      return cur_.ts;
    }
    StatusOr<std::string> Read(Timestamp txn, const Key& key) override {
      uint64_t t0 = NowMicros();
      auto r = run_.proxy_.Read(txn, key);
      bool answered = r.ok() || r.status().code() == StatusCode::kNotFound;
      if (cur_.span != 0) {
        uint64_t t1 = NowMicros();
        if (answered) {  // aborted reads return at once and wait for nothing
          run_.read_wait_ms.Add(static_cast<double>(t1 - t0) / 1000.0);
        }
        run_.AddSpan(answered ? "read" : "read_aborted", "client", t0, t1, cur_.span,
                     logical_.id);
      }
      if (r.ok()) {
        cur_.ops.push_back(Op{false, true, key, *r});
      } else if (r.status().code() == StatusCode::kNotFound) {
        cur_.ops.push_back(Op{false, false, key, ""});
      }
      return r;
    }
    Status Write(Timestamp txn, const Key& key, std::string value) override {
      std::string copy = value;
      Status st = run_.proxy_.Write(txn, key, std::move(value));
      if (st.ok()) {
        cur_.ops.push_back(Op{true, true, key, std::move(copy)});
      }
      return st;
    }
    Status Commit(Timestamp txn) override {
      uint64_t t0 = NowMicros();
      auto fut = run_.proxy_.CommitAsync(txn);
      if (!fut.ok()) {
        return fut.status();
      }
      uint64_t t1 = NowMicros();
      if (cur_.span != 0) {
        run_.AddSpan("commit_async", "client", t0, t1, cur_.span, logical_.id);
      }
      submitted_ = true;
      run_.Submit(PendingDecision{client_, logical_, std::move(cur_), std::move(*fut), t1});
      return Status::Ok();
    }
    void Abort(Timestamp txn) override {
      run_.proxy_.Abort(txn);
      if (cur_.span != 0) {
        run_.AddSpan("txn_aborted", "client", cur_.begin_us, NowMicros(), 0, logical_.id,
                     cur_.span);
      }
    }

   private:
    LoadRun& run_;
    size_t client_;
    Logical logical_;
    Attempt cur_;
    bool submitted_ = false;
  };

  struct ClientSlot {
    std::deque<Logical> retry;
    size_t undecided = 0;
  };

  void AddSpan(const char* name, const char* layer, uint64_t start, uint64_t end, uint64_t parent,
               uint64_t txn, uint64_t id = 0) {
    Span s;
    s.name = name;
    s.layer = layer;
    s.id = id != 0 ? id : probes_->client.NewSpanId();
    s.parent = parent;
    s.start_us = start;
    s.end_us = end;
    s.txn_or_epoch = txn;
    s.tid = ThreadTag();
    probes_->client.AddSpan(s);
  }

  void Submit(PendingDecision p) {
    std::lock_guard<std::mutex> lk(mu_);
    clients_[p.client].undecided++;
    queue_.push_back(std::move(p));
    cv_.notify_all();
  }

  void ClientLoop(size_t c) {
    ClientKv kv(*this, c);
    uint64_t seq = 0;
    while (!stop_.load()) {
      Logical l;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] {
          return stop_.load() || clients_[c].undecided < kMaxUndecidedPerClient;
        });
        if (stop_.load()) {
          break;
        }
        if (!clients_[c].retry.empty()) {
          l = clients_[c].retry.front();
          clients_[c].retry.pop_front();
        } else {
          l.id = (static_cast<uint64_t>(c) << 40) | seq;
          uint64_t mix = seed_ * 0x9e3779b97f4a7c15ull + (l.id + 1) * 0xbf58476d1ce4e5b9ull;
          l.seed = SplitMix64(mix);
          ++seq;
        }
      }
      kv.SetLogical(l);
      Rng rng(l.seed);
      Status st = workload_.RunOne(kv, rng);
      if (!kv.submitted()) {
        // The body never reached a commit request. If it ran out of in-body
        // attempts (each landed while the epoch's batches were all taken),
        // re-run it like an aborted decision; any other error fails it.
        if (st.code() == StatusCode::kAborted && ++l.reruns < kMaxReruns) {
          std::lock_guard<std::mutex> lk(mu_);
          clients_[c].retry.push_back(l);
          continue;
        }
        if (window.Contains(NowMicros())) {
          win_finished.fetch_add(1);
          win_failed.fetch_add(1);
        }
        std::fprintf(stderr, "transaction %llu failed: %s\n",
                     static_cast<unsigned long long>(l.id), st.ToString().c_str());
      }
    }
  }

  void WaiterLoop() {
    for (;;) {
      PendingDecision p;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_.wait(lk, [&] { return !queue_.empty() || clients_done_; });
        if (queue_.empty()) {
          return;
        }
        p = std::move(queue_.front());
        queue_.pop_front();
      }
      Status st;
      if (p.decision.wait_for(std::chrono::seconds(kDecisionTimeoutS)) !=
          std::future_status::ready) {
        std::fprintf(stderr, "commit decision did not arrive within %llus\n",
                     static_cast<unsigned long long>(kDecisionTimeoutS));
        fatal.store(true);
        st = Status::Unavailable("decision timeout");
      } else {
        st = p.decision.get();
      }
      uint64_t now = NowMicros();
      bool in_window = window.Contains(now);
      bool retry = false;
      if (st.ok()) {
        commits.fetch_add(1);
        if (in_window) {
          win_commits.fetch_add(1);
          win_finished.fetch_add(1);
          commit_ms.Add(static_cast<double>(now - p.attempt.begin_us) / 1000.0);
        }
        if (p.attempt.span != 0) {
          decision_wait_ms.Add(static_cast<double>(now - p.commit_call_us) / 1000.0);
          AddSpan("decision_wait", "proxy", p.commit_call_us, now, p.attempt.span, p.logical.id);
          AddSpan("txn", "client", p.attempt.begin_us, now, 0, p.logical.id, p.attempt.span);
        }
      } else if (st.code() == StatusCode::kAborted && !fatal.load()) {
        retry = ++p.logical.reruns < kMaxReruns;
        if (!retry && in_window) {
          win_finished.fetch_add(1);
          win_failed.fetch_add(1);
        }
      } else {
        std::fprintf(stderr, "commit failed: %s\n", st.ToString().c_str());
        fatal.store(true);
      }
      std::lock_guard<std::mutex> lk(mu_);
      if (st.ok()) {
        history_.push_back(CommittedTxn{p.attempt.ts, p.logical.id, std::move(p.attempt.ops)});
      } else if (retry && !stop_.load()) {
        clients_[p.client].retry.push_back(p.logical);
      }
      clients_[p.client].undecided--;
      cv_.notify_all();
    }
  }

  ObladiStore& proxy_;
  Workload& workload_;
  uint64_t seed_;
  Probes* probes_;

  std::atomic<bool> stop_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<PendingDecision> queue_;
  std::vector<ClientSlot> clients_;
  bool clients_done_ = false;
  std::vector<CommittedTxn> history_;
  std::vector<std::thread> threads_;
  std::thread waiter_;
};

// Reads every key back through the proxy, at most two keys per
// transaction, and returns the observations (false if a pair never
// committed).
bool ReadBack(ObladiStore& proxy, const std::vector<std::string>& keys,
              std::vector<ReadbackObs>* out) {
  std::atomic<size_t> next{0};
  std::atomic<bool> ok{true};
  std::mutex mu;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kReadbackThreads; ++t) {
    threads.emplace_back([&] {
      for (;;) {
        size_t i = next.fetch_add(2);
        if (i >= keys.size() || !ok.load()) {
          return;
        }
        size_t n = std::min<size_t>(2, keys.size() - i);
        bool done = false;
        for (int attempt = 0; attempt < 1000 && !done; ++attempt) {
          if (attempt > 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
          }
          Timestamp ts = proxy.Begin();
          std::vector<ReadbackObs> obs;
          bool aborted = false;
          for (size_t j = 0; j < n; ++j) {
            auto r = proxy.Read(ts, keys[i + j]);
            if (r.ok()) {
              obs.push_back(ReadbackObs{keys[i + j], true, *r});
            } else if (r.status().code() == StatusCode::kNotFound) {
              obs.push_back(ReadbackObs{keys[i + j], false, ""});
            } else {
              aborted = true;
              break;
            }
          }
          if (aborted) {
            proxy.Abort(ts);
            continue;
          }
          auto fut = proxy.CommitAsync(ts);
          if (!fut.ok() || fut->wait_for(std::chrono::seconds(kDecisionTimeoutS)) !=
                               std::future_status::ready ||
              !fut->get().ok()) {
            continue;
          }
          std::lock_guard<std::mutex> lk(mu);
          out->insert(out->end(), obs.begin(), obs.end());
          done = true;
        }
        if (!done) {
          ok.store(false);
        }
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  return ok.load();
}

// ---------------------------------------------------------------------------
// Measurement snapshots.

struct HostCpu {
  uint64_t total = 0;
  uint64_t steal = 0;
};

HostCpu ReadHostCpu() {
  HostCpu h;
  std::FILE* f = std::fopen("/proc/stat", "r");
  if (f == nullptr) {
    return h;
  }
  unsigned long long v[8] = {0};
  if (std::fscanf(f, "cpu %llu %llu %llu %llu %llu %llu %llu %llu", &v[0], &v[1], &v[2], &v[3],
                  &v[4], &v[5], &v[6], &v[7]) == 8) {
    for (unsigned long long x : v) {
      h.total += x;
    }
    h.steal = v[7];
  }
  std::fclose(f);
  return h;
}

struct Snapshot {
  uint64_t t_us = 0;
  double cpu_ms = 0;
  ObladiStats ps;
  MvtsoStats ms;
  RingOramStats os;
  uint64_t up = 0;
  uint64_t down = 0;
  uint64_t round_trips = 0;
  uint64_t wal_appends = 0;
  uint64_t wal_bytes = 0;
  HostCpu host;
  std::string storage;  // the storage node's stats line (traced runs)
};

Snapshot Take(Deployment& dep, bool with_storage) {
  Snapshot s;
  s.t_us = NowMicros();
  s.cpu_ms = ProcessCpuMs();
  s.ps = dep.proxy->stats();
  s.ms = dep.proxy->txn_stats();
  s.os = dep.proxy->oram()->stats();
  for (NetworkStats* n : dep.wire) {
    s.up += n->bytes_sent.load();
    s.down += n->bytes_received.load();
    s.round_trips += n->round_trips.load();
  }
  if (dep.wal) {
    s.wal_appends = dep.wal->appends();
    s.wal_bytes = dep.wal->bytes();
  }
  s.host = ReadHostCpu();
  if (with_storage) {
    s.storage = dep.storage.Query("stats");
  }
  return s;
}

// Seal / open cost of one slot at the run's slot size (public Encryptor).
void CryptoCost(const ObladiConfig& cfg, double* seal_us, double* open_us) {
  Encryptor enc =
      Encryptor::FromMasterKey(Bytes{'b', 'e', 'n', 'c', 'h'}, cfg.oram.authenticated, 7);
  BlockCodec codec(cfg.oram, Bytes(32, 1));
  Bytes plain = codec.DummyPlaintext(1, 1, 1);
  Bytes aad = BlockCodec::MakeAad(1, 1, 1);
  constexpr int kOps = 500;
  Samples seal, open;
  for (int round = 0; round < 7; ++round) {
    std::vector<Bytes> sealed;
    sealed.reserve(kOps);
    uint64_t t0 = NowNanos();
    for (int i = 0; i < kOps; ++i) {
      sealed.push_back(enc.Encrypt(plain, aad));
    }
    uint64_t t1 = NowNanos();
    size_t ok = 0;
    for (const Bytes& c : sealed) {
      ok += enc.Decrypt(c, aad).ok() ? 1 : 0;
    }
    uint64_t t2 = NowNanos();
    if (ok != sealed.size()) {
      std::fprintf(stderr, "crypto round trip failed\n");
    }
    seal.Add(static_cast<double>(t1 - t0) / 1e3 / kOps);
    open.Add(static_cast<double>(t2 - t1) / 1e3 / kOps);
  }
  *seal_us = seal.Quantile(0.5);
  *open_us = open.Quantile(0.5);
}

// Chrome trace-event JSON of every recorded span, with each layer's self
// time (span time not covered by its child spans).
void WriteChromeTrace(const std::string& path, const std::vector<Span>& spans,
                      std::map<std::string, double>* self_ms) {
  std::map<uint64_t, std::vector<const Span*>> children;
  for (const Span& s : spans) {
    if (s.parent != 0) {
      children[s.parent].push_back(&s);
    }
  }
  for (const Span& s : spans) {
    uint64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      std::vector<std::pair<uint64_t, uint64_t>> iv;
      for (const Span* c : it->second) {
        uint64_t a = std::max(c->start_us, s.start_us);
        uint64_t b = std::min(c->end_us, s.end_us);
        if (b > a) {
          iv.emplace_back(a, b);
        }
      }
      std::sort(iv.begin(), iv.end());
      uint64_t cur_a = 0, cur_b = 0;
      for (auto [a, b] : iv) {
        if (a > cur_b) {
          covered += cur_b - cur_a;
          cur_a = a;
          cur_b = b;
        } else {
          cur_b = std::max(cur_b, b);
        }
      }
      covered += cur_b - cur_a;
    }
    uint64_t dur = s.end_us > s.start_us ? s.end_us - s.start_us : 0;
    (*self_ms)[s.layer] += static_cast<double>(dur - std::min(dur, covered)) / 1000.0;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  std::fprintf(f, "{\"traceEvents\": [\n");
  bool first = true;
  for (const Span& s : spans) {
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %llu, "
                 "\"dur\": %llu, \"pid\": 1, \"tid\": %u, \"args\": {\"span\": %llu, "
                 "\"parent\": %llu, \"txn_or_epoch\": %llu}}",
                 first ? "" : ",\n", s.name, s.layer,
                 static_cast<unsigned long long>(s.start_us),
                 static_cast<unsigned long long>(s.end_us - s.start_us), s.tid,
                 static_cast<unsigned long long>(s.id), static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.txn_or_epoch));
    first = false;
  }
  std::fprintf(f, "\n], \"otherData\": {\"layer_self_ms\": {");
  first = true;
  for (const auto& [layer, ms] : *self_ms) {
    std::fprintf(f, "%s\"%s\": %.3f", first ? "" : ", ", layer.c_str(), ms);
    first = false;
  }
  std::fprintf(f, "}}}\n");
  std::fclose(f);
}

// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string storage_bin;
  std::string history_out;
  std::string trace_out;
  bool setup_only = false;
  bool nopriv = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    std::string k = argv[i];
    if (k == "--nopriv" || k == "--setup-only") {
      (k == "--nopriv" ? a->nopriv : a->setup_only) = true;
      continue;
    }
    if (i + 1 >= argc) {
      return false;
    }
    std::string v = argv[++i];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      a->trace = v == "1";
    } else if (k == "--storage-bin") {
      a->storage_bin = v;
    } else if (k == "--history-out") {
      a->history_out = v;
    } else if (k == "--trace-out") {
      a->trace_out = v;
    } else {
      return false;
    }
  }
  return !a->workload.empty() && a->seconds > 0 && (a->nopriv || !a->storage_bin.empty());
}

std::string Metric(const std::string& name, double value, const char* unit) {
  char buf[256];
  std::snprintf(buf, sizeof(buf), "\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", name.c_str(),
                value, unit);
  return buf;
}

double Ratio(double a, double b) { return b == 0 ? 0 : a / b; }

// NoPriv reference: the same MVTSO engine over a non-oblivious in-process
// store with the same modeled link delay, same client count, blocking
// commits (NoPriv decides immediately). Prints committed txn/s.
int RunNoPriv(const WorkloadSpec& spec, const Args& args) {
  auto workload = MakeWorkload(spec.kind);
  LatencyProfile link{"link", spec.link_delay_ms * 1000, spec.link_delay_ms * 1000, 0};
  auto storage = std::make_shared<RemoteKv>(link);
  NoPrivStore store(storage);
  if (!store.Load(workload->InitialRecords()).ok()) {
    return 1;
  }
  DriverOptions opts;
  opts.num_threads = kClients;
  opts.duration_ms = static_cast<uint64_t>(args.seconds * 1000);
  opts.warmup_ms = static_cast<uint64_t>(spec.warmup_s * 1000);
  opts.seed = args.seed;
  DriverResult r = RunWorkload(store, *workload, opts);
  std::printf("nopriv %s: %.1f txn/s committed (%llu committed, %llu failed, %zu clients)\n",
              spec.name, r.throughput_tps, static_cast<unsigned long long>(r.committed),
              static_cast<unsigned long long>(r.failed), kClients);
  return 0;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_proxy --workload NAME --seed N --seconds S --trace 0|1 "
                 "--storage-bin PATH [--history-out FILE] [--trace-out FILE] [--nopriv]\n");
    return 2;
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& s : kSpecs) {
    if (args.workload == s.name) {
      spec = &s;
    }
  }
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  signal(SIGPIPE, SIG_IGN);
  TuneAllocatorForBenchmarks();
  if (args.nopriv) {
    return RunNoPriv(*spec, args);
  }

  auto workload = MakeWorkload(spec->kind);
  std::vector<std::pair<Key, std::string>> records = workload->InitialRecords();

  if (args.setup_only) {
    auto dep = SetUp(*spec, args.storage_bin, records, args.seed, nullptr);
    if (!dep) {
      return 1;
    }
    std::printf("setup_s %.6f\n", dep->setup_s);
    return 0;
  }
  Samples setup_s;
  for (int i = 0; i + 1 < kSetups; ++i) {
    std::string out = RunChild({"--workload", args.workload, "--seed", std::to_string(args.seed),
                                "--seconds", "1", "--trace", "0", "--storage-bin",
                                args.storage_bin, "--setup-only"});
    if (out.rfind("setup_s ", 0) != 0) {
      std::fprintf(stderr, "set-up failed\n");
      return 1;
    }
    setup_s.Add(std::strtod(out.c_str() + 8, nullptr));
  }
  // The measured deployment.
  std::unique_ptr<Probes> probes = args.trace ? std::make_unique<Probes>() : nullptr;
  std::unique_ptr<Deployment> dep =
      SetUp(*spec, args.storage_bin, records, args.seed, probes.get());
  if (!dep) {
    std::fprintf(stderr, "set-up failed\n");
    return 1;
  }
  setup_s.Add(dep->setup_s);
  ObladiStore& proxy = *dep->proxy;
  proxy.Start();

  LoadRun run(proxy, *workload, args.seed, probes.get());
  run.Start();
  std::this_thread::sleep_for(std::chrono::duration<double>(spec->warmup_s));

  Snapshot s0 = Take(*dep, args.trace);
  if (args.trace) {
    dep->storage.Send("arm");
  }
  run.window.start_us.store(s0.t_us);
  // Traced runs alternate 1 s slices with the probes disarmed and armed;
  // the commit rate of the two kinds gives the tracing overhead.
  const uint64_t window_us = static_cast<uint64_t>(args.seconds * 1e6);
  double armed_commits = 0, armed_s = 0, plain_commits = 0, plain_s = 0;
  std::vector<std::pair<uint64_t, uint64_t>> slices;  // (commits, epochs) per second
  {
    uint64_t slice_start = s0.t_us;
    uint64_t slice_commits = run.commits.load();
    uint64_t slice_epochs = s0.ps.epochs;
    bool armed = false;
    for (;;) {
      uint64_t now = NowMicros();
      bool last = now + 50000 >= s0.t_us + window_us;
      if (now - slice_start >= 1000000 || last) {
        uint64_t c = run.commits.load();
        uint64_t e = proxy.stats().epochs;
        slices.emplace_back(c - slice_commits, e - slice_epochs);
        if (probes) {
          (armed ? armed_commits : plain_commits) += static_cast<double>(c - slice_commits);
          (armed ? armed_s : plain_s) += static_cast<double>(now - slice_start) / 1e6;
          armed = !armed;
          probes->Arm(armed);
        }
        slice_start = now;
        slice_commits = c;
        slice_epochs = e;
      }
      if (now >= s0.t_us + window_us) {
        break;
      }
      if (probes) {
        probes->net.epoch.store(proxy.stats().epochs);
        probes->wal.epoch.store(probes->net.epoch.load());
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(
          std::min<uint64_t>(50, (s0.t_us + window_us - now) / 1000 + 1)));
    }
  }
  std::string slice_text;
  for (auto [c, e] : slices) {
    slice_text += " " + std::to_string(c) + "/" + std::to_string(e);
  }
  std::fprintf(stderr, "per-second commits/epochs:%s\n", slice_text.c_str());
  run.window.end_us.store(NowMicros());
  if (probes) {
    probes->Arm(false);
  }
  Snapshot s1 = Take(*dep, args.trace);
  const uint64_t threads = ProcStatusField("Threads:");
  run.Stop();

  // Correctness: read back every written key, then replay serially.
  History history;
  history.initial = records;
  history.committed = run.TakeHistory();
  std::vector<std::string> written = WrittenKeys(history);
  uint64_t rb0 = NowMicros();
  bool readback_ok = ReadBack(proxy, written, &history.readback);
  double readback_s = static_cast<double>(NowMicros() - rb0) / 1e6;
  CheckResult check = ReplayAndCheck(history);
  bool correct = !run.fatal.load() && readback_ok && check.ok() &&
                 history.readback.size() == written.size();
  std::fprintf(stderr,
               "check: %llu committed txns replayed, %llu reads (%llu mismatches), "
               "%llu keys read back in %.1fs (%llu mismatches)%s\n",
               static_cast<unsigned long long>(check.txns),
               static_cast<unsigned long long>(check.reads_checked),
               static_cast<unsigned long long>(check.read_mismatches),
               static_cast<unsigned long long>(check.readback_checked), readback_s,
               static_cast<unsigned long long>(check.readback_mismatches),
               readback_ok ? "" : ", READBACK INCOMPLETE");
  for (const std::string& e : check.first_errors) {
    std::fprintf(stderr, "  %s\n", e.c_str());
  }
  if (!args.history_out.empty() && !SaveHistory(history, args.history_out)) {
    std::fprintf(stderr, "cannot write history %s\n", args.history_out.c_str());
    correct = false;
  }

  const double win_s = static_cast<double>(s1.t_us - s0.t_us) / 1e6;
  const uint64_t epochs = s1.ps.epochs - s0.ps.epochs;
  const double commits = static_cast<double>(run.win_commits.load());
  const double cpu_ms = s1.cpu_ms - s0.cpu_ms;
  const uint64_t attempted = run.win_finished.load();
  const uint64_t failed = run.win_failed.load();
  std::printf("%s seed=%llu: %.0f commits in %.2fs over %llu epochs, %zu commit-latency "
              "samples, attempted=%llu failed=%llu\n",
              spec->name, static_cast<unsigned long long>(args.seed), commits, win_s,
              static_cast<unsigned long long>(epochs), run.commit_ms.Count(),
              static_cast<unsigned long long>(attempted), static_cast<unsigned long long>(failed));

  std::vector<std::string> m;
  auto add = [&](const std::string& name, double value, const char* unit) {
    m.push_back(Metric(name, value, unit));
  };
  auto d = [](uint64_t a, uint64_t b) { return static_cast<double>(a - b); };
  auto per_epoch = [&](double v) { return epochs == 0 ? 0 : v / static_cast<double>(epochs); };
  auto per_commit = [&](double v) { return Ratio(v, commits); };
  if (!args.trace) {
    add("throughput_tps", commits / win_s, "1/s");
    add("commit_p50_ms", run.commit_ms.Quantile(0.5), "ms");
    add("commit_p90_ms", run.commit_ms.Quantile(0.9), "ms");
    add("proxy_cpu_ms_per_txn", per_commit(cpu_ms), "ms");
    add("up_kb_per_epoch", per_epoch(d(s1.up, s0.up) / 1024), "KiB");
    add("down_kb_per_epoch", per_epoch(d(s1.down, s0.down) / 1024), "KiB");
    add("peak_rss_mb", static_cast<double>(ProcStatusField("VmHWM:")) / 1024, "MiB");
    add("setup_s", setup_s.Quantile(0.5), "s");
  } else {
    const ObladiStats& p0 = s0.ps;
    const ObladiStats& p1 = s1.ps;
    add("client.read_wait_ms_p50", run.read_wait_ms.Quantile(0.5), "ms");
    add("client.attempts_per_commit", per_commit(static_cast<double>(run.win_begins.load())),
        "ratio");
    add("proxy.epoch_ms", per_epoch(win_s * 1000), "ms");
    add("proxy.read_batches_per_epoch", per_epoch(d(p1.read_batches, p0.read_batches)), "count");
    add("proxy.batch_fill",
        Ratio(d(p1.oram_fetches, p0.oram_fetches),
              d(p1.read_batches, p0.read_batches) * static_cast<double>(dep->cfg.read_batch_size)),
        "ratio");
    add("proxy.batch_overflow_aborts_per_commit",
        per_commit(d(p1.batch_overflow_aborts, p0.batch_overflow_aborts)), "ratio");
    add("proxy.fetch_dedups_per_fetch",
        Ratio(d(p1.fetch_dedups, p0.fetch_dedups), d(p1.oram_fetches, p0.oram_fetches)), "ratio");
    add("proxy.threads", static_cast<double>(threads), "count");
    add("proxy.cpu_ms_per_epoch", per_epoch(cpu_ms), "ms");
    add("proxy.decision_wait_ms_p50", run.decision_wait_ms.Quantile(0.5), "ms");
    add("proxy.retire_stall_ms_per_epoch",
        per_epoch(d(p1.retire_stall_us, p0.retire_stall_us) / 1000), "ms");
    add("proxy.max_inflight_stash_blocks", static_cast<double>(p1.max_inflight_stash_blocks),
        "count");
    const std::pair<const char*, uint64_t MvtsoStats::*> aborts[] = {
        {"write_conflict", &MvtsoStats::aborts_write_conflict},
        {"cascade", &MvtsoStats::aborts_cascade},
        {"unfinished_epoch", &MvtsoStats::aborts_unfinished_epoch},
        {"batch_overflow", &MvtsoStats::aborts_batch_overflow},
        {"explicit", &MvtsoStats::aborts_explicit},
    };
    for (auto [reason, field] : aborts) {
      add(std::string("txn.aborts_") + reason + "_per_commit",
          per_commit(d(s1.ms.*field, s0.ms.*field)), "ratio");
    }
    const std::pair<const char*, uint64_t RingOramStats::*> oram_counts[] = {
        {"logical_accesses", &RingOramStats::logical_accesses},
        {"slot_reads", &RingOramStats::physical_slot_reads},
        {"bucket_writes", &RingOramStats::physical_bucket_writes},
        {"evictions", &RingOramStats::evictions},
        {"early_reshuffles", &RingOramStats::early_reshuffles},
        {"xor_path_reads", &RingOramStats::xor_path_reads},
    };
    for (auto [name, field] : oram_counts) {
      add(std::string("oram.") + name + "_per_epoch", per_epoch(d(s1.os.*field, s0.os.*field)),
          "count");
    }
    const std::pair<const char*, uint64_t RingOramStats::*> oram_times_us[] = {
        {"flush_plan", &RingOramStats::flush_plan_us},
        {"materialize", &RingOramStats::materialize_us},
        {"write_drain", &RingOramStats::write_drain_us},
    };
    for (auto [name, field] : oram_times_us) {
      add(std::string("oram.") + name + "_ms_per_epoch",
          per_epoch(d(s1.os.*field, s0.os.*field) / 1000), "ms");
    }
    double seal_us = 0, open_us = 0;
    CryptoCost(dep->cfg, &seal_us, &open_us);
    add("crypto.seal_us_per_slot", seal_us, "us");
    add("crypto.open_us_per_slot", open_us, "us");
    add("net.round_trips_per_epoch", per_epoch(d(s1.round_trips, s0.round_trips)), "count");
    auto p50 = [](const std::map<std::string, const Samples*>& ops, const std::string& name) {
      auto it = ops.find(name);
      return it == ops.end() ? 0 : it->second->Quantile(0.5);
    };
    auto net_ops = probes->net.ops();
    for (const char* op : {"read_paths_xor", "read_slots", "write_buckets", "truncate"}) {
      add(std::string("net.rpc_ms_p50.") + op, p50(net_ops, std::string("net.") + op), "ms");
    }
    add("net.max_inflight_rpcs", static_cast<double>(probes->net.max_inflight()), "count");
    add("net.replica_write_spread_ms_p50", probes->net.replica_spread_ms.Quantile(0.5), "ms");
    for (const char* op : {"read_slots", "write_buckets", "truncate", "log_append_sync"}) {
      add(std::string("storage.service_ms_p50.") + op,
          StorageOpP50(s1.storage, std::string("storage.") + op), "ms");
    }
    add("storage.cpu_ms_per_epoch",
        per_epoch(JsonNumber(s1.storage, "cpu_ms") - JsonNumber(s0.storage, "cpu_ms")), "ms");
    // A node whose workers are all busy queues requests behind the modeled
    // delay: the deployment must keep this below its worker count.
    double busy = JsonNumber(s1.storage, "max_busy_workers");
    add("storage.max_busy_workers", busy, "count");
    if (busy >= JsonNumber(s1.storage, "workers")) {
      std::fprintf(stderr, "warning: a storage node ran out of workers (%.0f busy)\n", busy);
    }
    add("wal.appends_per_epoch", per_epoch(d(s1.wal_appends, s0.wal_appends)), "count");
    add("wal.kb_per_epoch", per_epoch(d(s1.wal_bytes, s0.wal_bytes) / 1024), "KiB");
    add("wal.append_sync_ms_p50", p50(probes->wal.ops(), "wal.log_append_sync"), "ms");
    add("host.steal_pct",
        100.0 * Ratio(d(s1.host.steal, s0.host.steal), d(s1.host.total, s0.host.total)), "%");
    double plain_tps = Ratio(plain_commits, plain_s);
    double armed_tps = Ratio(armed_commits, armed_s);
    add("trace.overhead_pct", plain_tps == 0 ? 0 : 100.0 * (plain_tps - armed_tps) / plain_tps,
        "%");

    std::vector<Span> spans = probes->client.spans();
    for (const Probe* p : {&probes->net, &probes->wal}) {
      std::vector<Span> more = p->spans();
      spans.insert(spans.end(), more.begin(), more.end());
    }
    std::map<std::string, double> self_ms;
    if (!args.trace_out.empty()) {
      WriteChromeTrace(args.trace_out, spans, &self_ms);
      std::fprintf(stderr, "trace: %zu spans -> %s; layer self time:", spans.size(),
                   args.trace_out.c_str());
      for (const auto& [layer, ms] : self_ms) {
        std::fprintf(stderr, " %s=%.0fms", layer.c_str(), ms);
      }
      std::fprintf(stderr, "\n");
    }
  }

  std::string out = std::string("{\"correct\": ") + (correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    out += (i == 0 ? "" : ", ") + m[i];
  }
  out += "}}";
  dep.reset();
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;  // the verdict travels in "correct"
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) { return e2e::Main(argc, argv); }
