// INEC-TriEC: per-chunk NIC-offloaded erasure coding baseline
// (paper §VI-A / Fig. 13 left, after Shi & Lu, SC'19/SC'20).
//
// The client RDMA-writes data chunk d to data node d. Once the chunk is
// fully in host memory, the NIC's EC engine is triggered: it reads the
// chunk back over PCIe, encodes the m intermediate parities at the engine's
// rate, and sends them to the parity nodes. A parity node's NIC stages the
// k intermediate contributions in host memory and, when the last one lands,
// XORs them and commits the final parity, acking the client.
//
// The contrast with sPIN-TriEC is structural: INEC operates per *chunk* and
// bounces everything through host memory (write in, read back, stage,
// read again to aggregate), while the sPIN handlers encode per *packet*
// on the NIC before the data ever crosses PCIe. Those bounce costs are
// exactly what this driver charges.
#pragma once

#include <memory>
#include <unordered_map>

#include "protocols/protocol.hpp"
#include "sim/resource.hpp"

namespace nadfs::protocols {

struct InecConfig {
  /// Throughput of the NIC EC engine (encode and XOR aggregate). Calibrated
  /// to the effective throughput of 2019/20-era ConnectX EC calc offload
  /// that the INEC/TriEC papers measured — a few GB/s, well under PCIe.
  Bandwidth ec_engine = Bandwidth::from_gbytes_per_sec(1.5);
  /// Fixed cost per engine activation: INEC primitives are chains of
  /// pre-posted triggered WQEs (WAIT+CALC+SEND); the INEC paper's measured
  /// per-chunk latencies put this chain at O(10 us), which dominates small
  /// blocks (their small-block bandwidth collapse, Fig. 15 right).
  TimePs trigger_cost = us(10);
};

class InecTriEc final : public WriteProtocol {
 public:
  explicit InecTriEc(Cluster& cluster, InecConfig config = {});
  const char* name() const override { return "INEC-TriEC"; }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

 private:
  struct DataNodeOp {
    std::uint64_t greq;
    unsigned data_idx;
    unsigned ec_k, ec_m;
    std::vector<dfs::Coord> parity;  // staging base addresses derive from these
    std::uint64_t chunk_len;
  };
  struct ParityNodeOp {
    std::uint64_t greq;
    unsigned ec_k;
    std::uint64_t parity_addr;
    std::uint64_t chunk_len;
    net::NodeId client;
    unsigned staged = 0;
    TimePs last_staged = 0;
  };
  struct Registry {
    std::unordered_map<std::uint64_t, DataNodeOp> data_ops;      // by token|idx
    std::unordered_map<std::uint64_t, ParityNodeOp> parity_ops;  // by token
    std::unique_ptr<sim::GapServer> engine;                     // NIC EC engine
  };

  void install_server(services::StorageNode& node);
  static std::uint64_t staging_addr(const ParityNodeOp& op, unsigned data_idx) {
    return op.parity_addr + op.chunk_len * (1 + data_idx);
  }

  Cluster& cluster_;
  InecConfig cfg_;
  std::uint64_t next_token_ = 1;
  std::unordered_map<net::NodeId, std::shared_ptr<Registry>> registries_;
};

}  // namespace nadfs::protocols
