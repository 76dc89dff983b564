// End-to-end tests of every baseline protocol driver against the same
// correctness bar as the sPIN path: right bytes at the right addresses on
// every node involved, sane completion semantics.
#include <gtest/gtest.h>

#include <memory>

#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "protocols/cpu_repl.hpp"
#include "protocols/hyperloop.hpp"
#include "protocols/inec.hpp"
#include "protocols/protocol.hpp"
#include "protocols/raw_rdma.hpp"
#include "protocols/rpc.hpp"

namespace nadfs {
namespace {

using namespace protocols;
using services::ClusterConfig;
using services::FilePolicy;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

struct Run {
  bool done = false;
  dfs::DfsError err = dfs::DfsError::kOk;
  TimePs at = 0;
};

/// Drive one write through `proto` on a fresh host-path cluster (no sPIN
/// context installed) and return the result.
Run drive(Cluster& cluster, Client& client, WriteProtocol& proto, const FileLayout& layout,
          const auth::Capability& cap, const Bytes& data) {
  Run r;
  proto.write(client, layout, cap, data, [&](dfs::DfsError err, TimePs at) {
    r.done = true;
    r.err = err;
    r.at = at;
  });
  cluster.sim().run();
  return r;
}

ClusterConfig host_path_config(unsigned nodes = 4) {
  ClusterConfig cfg;
  cfg.storage_nodes = nodes;
  cfg.install_dfs = false;
  return cfg;
}

TEST(RawWriteProtocol, WritesAndCompletesOnTransportAck) {
  Cluster cluster(host_path_config());
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("o", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  RawWrite proto(cluster);

  const Bytes data = random_bytes(20000, 1);
  const auto r = drive(cluster, client, proto, layout, cap, data);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.err, dfs::DfsError::kOk);
  EXPECT_EQ(cluster.storage_by_node(layout.targets[0].node)
                .target()
                .read(layout.targets[0].addr, data.size()),
            data);
}

TEST(RpcProtocol, WritesViaBounceBuffer) {
  Cluster cluster(host_path_config());
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("o", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  RpcWrite proto(cluster);

  const Bytes data = random_bytes(30000, 2);
  const auto r = drive(cluster, client, proto, layout, cap, data);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.err, dfs::DfsError::kOk);
  EXPECT_EQ(cluster.storage_by_node(layout.targets[0].node)
                .target()
                .read(layout.targets[0].addr, data.size()),
            data);
}

TEST(RpcProtocol, RejectsForgedCapability) {
  // Both RPC flavours validate on the server CPU and answer a forged
  // capability with a denial status that the client surfaces as kDenied.
  for (const bool zero_copy : {false, true}) {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 16 * KiB, FilePolicy{});
    auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    cap.mac ^= 0xBAD;
    // Each protocol installs its own server on the storage nodes, so only
    // one is constructed per cluster.
    std::unique_ptr<WriteProtocol> proto;
    if (zero_copy) {
      proto = std::make_unique<RpcRdmaWrite>(cluster);
    } else {
      proto = std::make_unique<RpcWrite>(cluster);
    }

    const auto r = drive(cluster, client, *proto, layout, cap, random_bytes(4 * KiB, 3));
    ASSERT_TRUE(r.done) << proto->name();
    EXPECT_EQ(r.err, dfs::DfsError::kDenied) << proto->name();
    if (!zero_copy) {
      EXPECT_EQ(static_cast<RpcWrite&>(*proto).validation_failures(), 1u);
    }
    EXPECT_EQ(cluster.storage_by_node(layout.targets[0].node).target().bytes_written(), 0u);
  }
}

TEST(RpcRdmaProtocol, ZeroCopyWrite) {
  Cluster cluster(host_path_config());
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("o", 128 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  RpcRdmaWrite proto(cluster);

  const Bytes data = random_bytes(100000, 4);
  const auto r = drive(cluster, client, proto, layout, cap, data);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.err, dfs::DfsError::kOk);
  EXPECT_EQ(cluster.storage_by_node(layout.targets[0].node)
                .target()
                .read(layout.targets[0].addr, data.size()),
            data);
}

TEST(RpcRdmaProtocol, LargeWriteBeatsRpcBounceBuffer) {
  // For large writes the RPC bounce-buffer copy dominates; RPC+RDMA's extra
  // RTT is cheaper (paper Fig. 6 crossover).
  const Bytes data = random_bytes(512 * KiB, 5);
  TimePs rpc_at, rpcrdma_at;
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    RpcWrite proto(cluster);
    rpc_at = drive(cluster, client, proto, layout, cap, data).at;
  }
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    RpcRdmaWrite proto(cluster);
    rpcrdma_at = drive(cluster, client, proto, layout, cap, data).at;
  }
  EXPECT_LT(rpcrdma_at, rpc_at);
}

FilePolicy repl_policy(dfs::ReplStrategy strategy, std::uint8_t k) {
  FilePolicy p;
  p.resiliency = dfs::Resiliency::kReplication;
  p.strategy = strategy;
  p.repl_k = k;
  return p;
}

void expect_replicated(Cluster& cluster, const FileLayout& layout, const Bytes& data) {
  for (const auto& coord : layout.targets) {
    EXPECT_EQ(cluster.storage_by_node(coord.node).target().read(coord.addr, data.size()), data)
        << "replica at node " << coord.node;
  }
}

TEST(CpuReplProtocol, RingReplicatesToAllNodes) {
  Cluster cluster(host_path_config());
  Client client(cluster, 0);
  const auto& layout =
      cluster.metadata().create("o", 128 * KiB, repl_policy(dfs::ReplStrategy::kRing, 3));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  CpuRepl proto(cluster, dfs::ReplStrategy::kRing, 16 * KiB);

  const Bytes data = random_bytes(100000, 6);
  const auto r = drive(cluster, client, proto, layout, cap, data);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.err, dfs::DfsError::kOk);
  expect_replicated(cluster, layout, data);
}

TEST(CpuReplProtocol, PbtReplicatesToAllNodes) {
  Cluster cluster(host_path_config(7));
  Client client(cluster, 0);
  const auto& layout =
      cluster.metadata().create("o", 128 * KiB, repl_policy(dfs::ReplStrategy::kPbt, 7));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  CpuRepl proto(cluster, dfs::ReplStrategy::kPbt, 16 * KiB);

  const Bytes data = random_bytes(90000, 7);
  const auto r = drive(cluster, client, proto, layout, cap, data);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.err, dfs::DfsError::kOk);
  expect_replicated(cluster, layout, data);
}

TEST(CpuReplProtocol, ChunkingPipelinesTheRing) {
  // 512 KiB over a 4-node ring: 16 KiB chunks must beat store-and-forward
  // of the whole write at every hop.
  const Bytes data = random_bytes(512 * KiB, 8);
  TimePs chunked, monolithic;
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout =
        cluster.metadata().create("o", 1 * MiB, repl_policy(dfs::ReplStrategy::kRing, 4));
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    CpuRepl proto(cluster, dfs::ReplStrategy::kRing, 16 * KiB);
    chunked = drive(cluster, client, proto, layout, cap, data).at;
  }
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout =
        cluster.metadata().create("o", 1 * MiB, repl_policy(dfs::ReplStrategy::kRing, 4));
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    CpuRepl proto(cluster, dfs::ReplStrategy::kRing, 0);
    monolithic = drive(cluster, client, proto, layout, cap, data).at;
  }
  EXPECT_LT(chunked, monolithic);
}

TEST(RdmaFlatProtocol, ClientWritesEveryReplica) {
  Cluster cluster(host_path_config());
  Client client(cluster, 0);
  const auto& layout =
      cluster.metadata().create("o", 64 * KiB, repl_policy(dfs::ReplStrategy::kRing, 4));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  RdmaFlat proto(cluster);

  const Bytes data = random_bytes(40000, 9);
  const auto r = drive(cluster, client, proto, layout, cap, data);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.err, dfs::DfsError::kOk);
  expect_replicated(cluster, layout, data);
}

TEST(HyperLoopProtocol, RingReplicatesWithoutStorageCpu) {
  Cluster cluster(host_path_config());
  Client client(cluster, 0);
  const auto& layout =
      cluster.metadata().create("o", 128 * KiB, repl_policy(dfs::ReplStrategy::kRing, 3));
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  HyperLoop proto(cluster, 32 * KiB);

  const Bytes data = random_bytes(100000, 10);
  const auto r = drive(cluster, client, proto, layout, cap, data);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.err, dfs::DfsError::kOk);
  expect_replicated(cluster, layout, data);
  // NIC-only: no CPU server was ever installed, so forwarding came from the
  // triggered WQEs.
}

TEST(HyperLoopProtocol, ConfigOverheadHurtsSmallWrites) {
  // HyperLoop pays the metadata ring before data flows; RDMA-Flat does not
  // (paper Fig. 9: Flat wins small, HyperLoop catches up on large writes).
  const Bytes small = random_bytes(4 * KiB, 11);
  TimePs flat_at, hl_at;
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout =
        cluster.metadata().create("o", 64 * KiB, repl_policy(dfs::ReplStrategy::kRing, 4));
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    RdmaFlat proto(cluster);
    flat_at = drive(cluster, client, proto, layout, cap, small).at;
  }
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout =
        cluster.metadata().create("o", 64 * KiB, repl_policy(dfs::ReplStrategy::kRing, 4));
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    HyperLoop proto(cluster, 0);
    hl_at = drive(cluster, client, proto, layout, cap, small).at;
  }
  EXPECT_GT(hl_at, flat_at);
}

TEST(InecProtocol, WritesDataAndCorrectParity) {
  Cluster cluster(host_path_config(5));
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const auto& layout = cluster.metadata().create("o", 30000, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  InecTriEc proto(cluster);

  Bytes data = random_bytes(30000, 12);
  const auto r = drive(cluster, client, proto, layout, cap, data);
  ASSERT_TRUE(r.done);
  EXPECT_EQ(r.err, dfs::DfsError::kOk);

  const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
  Bytes padded = data;
  padded.resize(chunk_len * 3, 0);
  std::vector<Bytes> chunks(3);
  for (unsigned i = 0; i < 3; ++i) {
    chunks[i].assign(padded.begin() + static_cast<std::ptrdiff_t>(i * chunk_len),
                     padded.begin() + static_cast<std::ptrdiff_t>((i + 1) * chunk_len));
    EXPECT_EQ(cluster.storage_by_node(layout.targets[i].node)
                  .target()
                  .read(layout.targets[i].addr, chunk_len),
              chunks[i]);
  }
  ec::ReedSolomon rs(3, 2);
  const auto parity = rs.encode(chunks);
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.storage_by_node(layout.parity[i].node)
                  .target()
                  .read(layout.parity[i].addr, chunk_len),
              parity[i])
        << "parity " << i;
  }
}

TEST(CrossProtocol, SpinOverheadOverRawIsModest) {
  // Fig. 6: sPIN adds bounded overhead over raw writes (up to ~27% for
  // small writes, approaching raw for large ones).
  const Bytes small = random_bytes(1 * KiB, 13);
  const Bytes large = random_bytes(512 * KiB, 14);
  TimePs raw_small, raw_large, spin_small, spin_large;
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    RawWrite proto(cluster);
    raw_small = drive(cluster, client, proto, layout, cap, small).at;
  }
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    RawWrite proto(cluster);
    raw_large = drive(cluster, client, proto, layout, cap, large).at;
  }
  {
    Cluster cluster;  // sPIN installed
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    SpinWrite proto;
    spin_small = drive(cluster, client, proto, layout, cap, small).at;
  }
  {
    Cluster cluster;
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    SpinWrite proto;
    spin_large = drive(cluster, client, proto, layout, cap, large).at;
  }
  EXPECT_GT(spin_small, raw_small);
  // Small-write overhead bounded (paper: up to 27%; allow headroom).
  EXPECT_LT(static_cast<double>(spin_small), static_cast<double>(raw_small) * 1.6);
  // Large-write overhead amortized to a few percent.
  EXPECT_LT(static_cast<double>(spin_large), static_cast<double>(raw_large) * 1.10);
}

TEST(CrossProtocol, RpcSlowerThanSpinForValidatedWrites) {
  const Bytes data = random_bytes(64 * KiB, 15);
  TimePs rpc_at, spin_at;
  {
    Cluster cluster(host_path_config());
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    RpcWrite proto(cluster);
    rpc_at = drive(cluster, client, proto, layout, cap, data).at;
  }
  {
    Cluster cluster;
    Client client(cluster, 0);
    const auto& layout = cluster.metadata().create("o", 1 * MiB, FilePolicy{});
    const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
    SpinWrite proto;
    spin_at = drive(cluster, client, proto, layout, cap, data).at;
  }
  EXPECT_LT(spin_at, rpc_at);
}

}  // namespace
}  // namespace nadfs
