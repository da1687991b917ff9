// Storage-node process of the end-to-end benchmark: N StorageServers, each
// over an in-memory bucket store and log, optionally behind a modeled link
// delay, with a timing decorator between each server and its backend.
//
//   e2e_storage --nodes N --buckets B --slots S [--delay-ms D] [--workers W]
//
// Prints "PORTS p1 ... pN" once every server listens, then obeys one
// command per stdin line:
//   arm | disarm   start / stop timing backend calls
//   stats          print one JSON line: process CPU, busiest-worker count,
//                  per-operation service-time medians
//   quit (or EOF)  stop every server and exit 0
#include <cstdio>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/net/storage_server.h"
#include "src/storage/latency_store.h"
#include "src/storage/memory_store.h"
#include "src/layers.h"

namespace {

uint64_t ArgU64(int argc, char** argv, const char* name, uint64_t fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) {
      return std::strtoull(argv[i + 1], nullptr, 10);
    }
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace obladi;
  const uint64_t nodes = ArgU64(argc, argv, "--nodes", 1);
  const uint64_t buckets = ArgU64(argc, argv, "--buckets", 0);
  const uint64_t slots = ArgU64(argc, argv, "--slots", 0);
  const uint64_t delay_ms = ArgU64(argc, argv, "--delay-ms", 0);
  const uint64_t workers = ArgU64(argc, argv, "--workers", 16);
  if (nodes == 0 || nodes > 64 || buckets == 0 || slots == 0 || workers == 0 ||
      workers > 256) {
    std::fprintf(stderr, "usage: e2e_storage --nodes N --buckets B --slots S "
                         "[--delay-ms D] [--workers W]\n");
    return 2;
  }

  // One probe per node, so the busiest-worker count is per server.
  std::vector<std::unique_ptr<e2e::Probe>> probes;
  std::vector<std::unique_ptr<StorageServer>> servers;
  LatencyProfile link{"link", delay_ms * 1000, delay_ms * 1000, 0};
  std::string ports = "PORTS";
  for (uint64_t n = 0; n < nodes; ++n) {
    std::shared_ptr<BucketStore> bucket_backend =
        std::make_shared<MemoryBucketStore>(buckets, slots);
    std::shared_ptr<LogStore> log_backend = std::make_shared<MemoryLogStore>();
    if (delay_ms > 0) {
      bucket_backend = std::make_shared<LatencyBucketStore>(bucket_backend, link);
      log_backend = std::make_shared<LatencyLogStore>(log_backend, link);
    }
    probes.push_back(std::make_unique<e2e::Probe>());
    e2e::Probe* probe = probes.back().get();
    StorageServerOptions opts;
    opts.num_workers = workers;
    servers.push_back(std::make_unique<StorageServer>(
        std::make_shared<e2e::TimedBucketStore>(bucket_backend, probe, "storage"),
        std::make_shared<e2e::TimedLogStore>(log_backend, probe, "storage"), opts));
    Status st = servers.back()->Start();
    if (!st.ok()) {
      std::fprintf(stderr, "storage node %llu failed to start: %s\n",
                   static_cast<unsigned long long>(n), st.ToString().c_str());
      return 1;
    }
    ports += " " + std::to_string(servers.back()->port());
  }
  std::printf("%s\n", ports.c_str());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "arm" || line == "disarm") {
      for (auto& p : probes) {
        p->armed.store(line == "arm");
      }
    } else if (line == "stats") {
      std::map<std::string, e2e::Samples> merged;
      uint64_t max_busy = 0;
      for (const auto& p : probes) {
        max_busy = std::max(max_busy, p->max_inflight());
        for (const auto& [name, samples] : p->ops()) {
          for (double v : samples->Values()) {
            merged[name].Add(v);
          }
        }
      }
      std::string ops;
      for (const auto& [name, samples] : merged) {
        char buf[160];
        std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"count\": %zu, \"p50_ms\": %.6f}",
                      ops.empty() ? "" : ", ", name.c_str(), samples.Count(),
                      samples.Quantile(0.5));
        ops += buf;
      }
      std::printf("{\"cpu_ms\": %.3f, \"max_busy_workers\": %llu, \"workers\": %llu, "
                  "\"ops\": {%s}}\n",
                  e2e::ProcessCpuMs(), static_cast<unsigned long long>(max_busy),
                  static_cast<unsigned long long>(workers), ops.c_str());
      std::fflush(stdout);
    } else if (line == "quit") {
      break;
    }
  }
  for (auto& s : servers) {
    s->Stop();
  }
  return 0;
}
