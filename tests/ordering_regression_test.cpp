// Regression tests for forwarded-stream network ordering.
//
// sPIN requires the network to deliver a message's header packet first and
// its completion packet last (§II-B.1). For *forwarded* streams
// (replication hops, EC intermediate parities) the forwarding NIC must
// enforce this itself: payload handlers run concurrently, and a short final
// packet encodes faster than its full-size predecessors, so without
// outbound ordering its forward overtakes them on the wire and the next hop
// drops it ("payload before header"/"completion before payload"). The NIC
// outbound engine therefore drains a message's sends in issue order
// (pspin::MsgState::last_send_start).
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

/// EC write sized so each chunk's final packet carries only a few bytes:
/// its encode handler finishes ~1000x sooner than full-packet handlers.
TEST(ForwardOrdering, TinyFinalPacketParityStreamStaysOrdered) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;

  // Chunk = first-packet data + 2 full packets + 16 bytes.
  // (header bytes for an EC WRH with 2 parity coords: 62 + 22 + 24 = 108.)
  const std::size_t chunk = (2048 - 108) + 2 * 2048 + 16;
  const std::size_t size = chunk * 3;
  const auto& layout = cluster.metadata().create("o", size, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  const Bytes data = random_bytes(size, 1);
  bool ok = false;
  client.write(layout, cap, data,
               [&](dfs::DfsError err, TimePs) { ok = err == dfs::DfsError::kOk; });
  cluster.sim().run();
  ASSERT_TRUE(ok);

  const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
  std::vector<Bytes> chunks(3);
  for (unsigned i = 0; i < 3; ++i) {
    chunks[i].assign(data.begin() + static_cast<std::ptrdiff_t>(i * chunk_len),
                     data.begin() + static_cast<std::ptrdiff_t>((i + 1) * chunk_len));
  }
  ec::ReedSolomon rs(3, 2);
  const auto parity = rs.encode(chunks);
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.storage_by_node(layout.parity[i].node)
                  .target()
                  .read(layout.parity[i].addr, chunk_len),
              parity[i])
        << "parity " << i << " corrupted: forwarded stream arrived out of order";
  }
  // No packets were dropped at the parity nodes.
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    EXPECT_EQ(cluster.storage_node(n).dfs_state()->table.in_use(), 0u);
    EXPECT_EQ(cluster.storage_node(n).pspin().live_messages(), 0u);
  }
}

/// Same shape for a replication chain: the forwarded tail packet must not
/// overtake its predecessors between hops.
TEST(ForwardOrdering, TinyFinalPacketReplicationChainStaysOrdered) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.strategy = dfs::ReplStrategy::kRing;
  policy.repl_k = 4;
  const auto& layout = cluster.metadata().create("o", 64 * KiB, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  // 5 full packets + 8-byte tail.
  const std::size_t size = (2048 - 130) + 4 * 2048 + 8;
  const Bytes data = random_bytes(size, 2);
  bool ok = false;
  client.write(layout, cap, data,
               [&](dfs::DfsError err, TimePs) { ok = err == dfs::DfsError::kOk; });
  cluster.sim().run();
  ASSERT_TRUE(ok);
  for (const auto& coord : layout.targets) {
    EXPECT_EQ(cluster.storage_by_node(coord.node).target().read(coord.addr, data.size()), data);
  }
}

/// Concurrent messages on different clusters must still be individually
/// ordered even though their handler cursors interleave arbitrarily.
TEST(ForwardOrdering, ConcurrentEcWritesAllProduceCorrectParity) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client c0(cluster, 0), c1(cluster, 1);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;

  struct Obj {
    const services::FileLayout* layout;
    Bytes data;
  };
  std::vector<Obj> objs;
  unsigned oks = 0;
  for (int i = 0; i < 6; ++i) {
    const std::size_t size = 10000 + static_cast<std::size_t>(i) * 7001;
    Obj o;
    o.layout = &cluster.metadata().create("o" + std::to_string(i), size, policy);
    o.data = random_bytes(size, 100 + i);
    objs.push_back(std::move(o));
  }
  for (std::size_t i = 0; i < objs.size(); ++i) {
    Client& client = i % 2 ? c1 : c0;
    const auto cap = cluster.metadata().grant(client.client_id(), *objs[i].layout,
                                              auth::Right::kWrite);
    client.write(*objs[i].layout, cap, objs[i].data,
                 [&oks](dfs::DfsError err, TimePs) { oks += err == dfs::DfsError::kOk; });
  }
  cluster.sim().run();
  ASSERT_EQ(oks, objs.size());

  ec::ReedSolomon rs(3, 2);
  for (const auto& obj : objs) {
    const auto chunk_len = static_cast<std::size_t>(obj.layout->chunk_len);
    Bytes padded = obj.data;
    padded.resize(chunk_len * 3, 0);
    std::vector<Bytes> chunks(3);
    for (unsigned i = 0; i < 3; ++i) {
      chunks[i].assign(padded.begin() + static_cast<std::ptrdiff_t>(i * chunk_len),
                       padded.begin() + static_cast<std::ptrdiff_t>((i + 1) * chunk_len));
    }
    const auto parity = rs.encode(chunks);
    for (unsigned i = 0; i < 2; ++i) {
      ASSERT_EQ(cluster.storage_by_node(obj.layout->parity[i].node)
                    .target()
                    .read(obj.layout->parity[i].addr, chunk_len),
                parity[i])
          << "object " << obj.layout->object_id << " parity " << i;
    }
  }
}

}  // namespace
}  // namespace nadfs
