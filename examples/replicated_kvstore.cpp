// A replicated key-value store built on the DFS client API.
//
// Values are stored as DFS objects with 3-way pipelined-binary-tree
// replication enforced by the storage NICs: a single one-sided write from
// the client fans out packet-by-packet across the replica tree (paper §V),
// and the store treats a write as committed only when all three replicas
// acked. Reads verify against any replica.
//
//   $ ./build/examples/replicated_kvstore
#include <cstdio>
#include <map>
#include <string>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

using namespace nadfs;
using namespace nadfs::services;

namespace {

class KvStore {
 public:
  KvStore(Cluster& cluster, Client& client, std::uint8_t replication)
      : cluster_(cluster), client_(client) {
    policy_.resiliency = dfs::Resiliency::kReplication;
    policy_.strategy = dfs::ReplStrategy::kPbt;
    policy_.repl_k = replication;
  }

  /// Asynchronous put; `cb(err, latency)` fires when all replicas committed
  /// (err == kOk) or the write failed.
  void put(const std::string& key, Bytes value, OpCb cb) {
    const FileLayout* layout = cluster_.metadata().lookup("/kv/" + key);
    if (!layout) {
      layout = &cluster_.metadata().create("/kv/" + key, kMaxValue, policy_);
    }
    const auto cap =
        cluster_.metadata().grant(client_.client_id(), *layout, auth::Right::kReadWrite);
    sizes_[key] = value.size();
    const TimePs issued = cluster_.sim().now();
    client_.write(*layout, cap, std::move(value),
                  [cb = std::move(cb), issued](dfs::DfsError err, TimePs at) {
                    cb(err, at - issued);
                  });
  }

  /// Asynchronous get from the primary replica; `cb(err, value, latency)`.
  void get(const std::string& key, ReadCb cb) {
    const FileLayout* layout = cluster_.metadata().lookup("/kv/" + key);
    if (!layout) {
      cb(dfs::DfsError::kNotFound, {}, 0);
      return;
    }
    const auto cap = cluster_.metadata().grant(client_.client_id(), *layout, auth::Right::kRead);
    const TimePs issued = cluster_.sim().now();
    client_.read(*layout, cap, static_cast<std::uint32_t>(sizes_.at(key)),
                 [cb = std::move(cb), issued](dfs::DfsError err, Bytes data, TimePs at) {
                   cb(err, std::move(data), at - issued);
                 });
  }

  /// Direct replica inspection (for the consistency audit below).
  const FileLayout* layout(const std::string& key) const {
    return cluster_.metadata().lookup("/kv/" + key);
  }

  static constexpr std::size_t kMaxValue = 64 * KiB;

 private:
  Cluster& cluster_;
  Client& client_;
  FilePolicy policy_;
  std::map<std::string, std::size_t> sizes_;
};

}  // namespace

int main() {
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  KvStore kv(cluster, client, 3);

  constexpr int kKeys = 64;
  Rng rng(2026);
  std::map<std::string, Bytes> expected;
  Summary put_lat, get_lat;
  int commits = 0;

  // Workload: 64 puts with mixed value sizes (128 B .. 32 KiB).
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "user:" + std::to_string(i);
    Bytes value(128u << rng.next_below(9));
    for (auto& b : value) b = rng.next_byte();
    expected[key] = value;
    kv.put(key, value, [&](dfs::DfsError err, TimePs lat) {
      if (err == dfs::DfsError::kOk) {
        ++commits;
        put_lat.add(to_ns(lat));
      }
    });
  }
  cluster.sim().run();
  std::printf("puts committed on all 3 replicas: %d/%d\n", commits, kKeys);
  std::printf("put latency:  mean %.0f ns, p50 %.0f ns, p99 %.0f ns\n", put_lat.mean(),
              put_lat.median(), put_lat.percentile(99));

  // Read everything back through the offloaded read path.
  int verified = 0;
  for (const auto& [key, value] : expected) {
    kv.get(key, [&, key = key](dfs::DfsError err, Bytes data, TimePs lat) {
      get_lat.add(to_ns(lat));
      if (err == dfs::DfsError::kOk && data == expected.at(key)) ++verified;
    });
  }
  cluster.sim().run();
  std::printf("gets verified against expected values: %d/%d\n", verified, kKeys);
  std::printf("get latency:  mean %.0f ns, p50 %.0f ns, p99 %.0f ns\n", get_lat.mean(),
              get_lat.median(), get_lat.percentile(99));

  // Consistency audit: every replica of every key holds identical bytes.
  int divergent = 0;
  for (const auto& [key, value] : expected) {
    const auto* layout = kv.layout(key);
    for (const auto& coord : layout->targets) {
      if (cluster.storage_by_node(coord.node).target().read(coord.addr, value.size()) != value) {
        ++divergent;
      }
    }
  }
  std::printf("replica audit: %d divergent replicas across %d keys x 3 replicas\n", divergent,
              kKeys);

  // Survivability demonstration: any single node's copy suffices.
  const auto* layout = kv.layout("user:0");
  const auto& v = expected.at("user:0");
  for (const auto& coord : layout->targets) {
    const bool ok =
        cluster.storage_by_node(coord.node).target().read(coord.addr, v.size()) == v;
    std::printf("  node %u copy of user:0 -> %s\n", coord.node, ok ? "intact" : "BAD");
  }
  return divergent == 0 && commits == kKeys && verified == kKeys ? 0 : 1;
}
