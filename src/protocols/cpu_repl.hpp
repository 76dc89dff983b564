// CPU-based pipelined replication (paper Fig. 8 "CPU-Ring", Fig. 9/10
// CPU-Ring / CPU-PBT).
//
// The client pushes the data to the primary as chunked RDMA writes; each
// storage node's CPU is notified per landed chunk and forwards it to its
// child(ren) in the broadcast tree — paying, per hop and per chunk, the
// notification latency, the CPU forwarding work, and the PCIe bounce out of
// host memory. The first chunk additionally pays capability validation.
// Every node acks the client when its last chunk is durable; the write
// completes when all k acks are in (same completion rule as sPIN).
//
// Chunking pipelines the hops; the paper reports the *optimal* chunk size,
// so benches sweep `chunk_bytes` and keep the minimum (see optimal_over()).
#pragma once

#include <memory>
#include <unordered_map>

#include "protocols/protocol.hpp"

namespace nadfs::protocols {

class CpuRepl final : public WriteProtocol {
 public:
  /// `chunk_bytes` is the pipelining granularity (0: no chunking).
  CpuRepl(Cluster& cluster, dfs::ReplStrategy strategy, std::size_t chunk_bytes);
  const char* name() const override {
    return strategy_ == dfs::ReplStrategy::kRing ? "CPU-Ring" : "CPU-PBT";
  }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

  std::size_t chunk_bytes() const { return chunk_bytes_; }

 private:
  /// Out-of-band replication descriptor the storage software holds (in a
  /// deployed DFS this comes from the metadata service).
  struct OpConfig {
    std::uint64_t token;
    std::uint64_t greq;
    dfs::ReplStrategy strategy;
    std::vector<dfs::Coord> coords;  // rank order
    std::uint32_t chunk_count;
    net::NodeId client;
  };
  struct NodeProgress {
    std::uint32_t chunks_done = 0;
    bool validated = false;
    TimePs last_durable = 0;
  };
  struct Registry {
    std::unordered_map<std::uint64_t, OpConfig> ops;                      // by token
    std::unordered_map<std::uint64_t, NodeProgress> progress;             // by token
  };

  void install_server(services::StorageNode& node);

  Cluster& cluster_;
  dfs::ReplStrategy strategy_;
  std::size_t chunk_bytes_;
  std::uint64_t next_token_ = 1;
  // One registry per storage node, indexed by node id.
  std::unordered_map<net::NodeId, std::shared_ptr<Registry>> registries_;
};

}  // namespace nadfs::protocols
