// Tests of the §III-C overload-steering path: requests bypass a saturated
// PsPIN and are handled by the host-side DFS service, with identical
// policy semantics and composable forwarding between the two planes.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "ec/reed_solomon.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"
#include "services/host_dfs.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;
using services::HostDfsService;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

TEST(Steering, OverloadedPspinHandsOffToHostService) {
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  cfg.clients = 2;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  HostDfsService host(node, cfg.dfs);
  node.nic().set_pspin_backlog_limit(1);  // one live message max on the NIC

  Client c0(cluster, 0), c1(cluster, 1);
  const auto& la = cluster.metadata().create("a", 1 * MiB, FilePolicy{});
  const auto& lb = cluster.metadata().create("b", 1 * MiB, FilePolicy{});
  const auto capa = cluster.metadata().grant(c0.client_id(), la, auth::Right::kWrite);
  const auto capb = cluster.metadata().grant(c1.client_id(), lb, auth::Right::kWrite);

  const Bytes da = random_bytes(512 * KiB, 1);
  const Bytes db = random_bytes(512 * KiB, 2);
  int oks = 0;
  c0.write(la, capa, da, [&](dfs::DfsError err, TimePs) { oks += err == dfs::DfsError::kOk; });
  c1.write(lb, capb, db, [&](dfs::DfsError err, TimePs) { oks += err == dfs::DfsError::kOk; });
  cluster.sim().run();

  EXPECT_EQ(oks, 2);  // both writes succeed despite the saturated NIC
  EXPECT_EQ(node.nic().steered_to_host(), 1u);
  EXPECT_EQ(host.requests_handled(), 1u);
  EXPECT_EQ(node.target().read(la.targets[0].addr, da.size()), da);
  EXPECT_EQ(node.target().read(lb.targets[0].addr, db.size()), db);
}

TEST(Steering, NoHandlerMeansNoSteering) {
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  cfg.clients = 2;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  node.nic().set_pspin_backlog_limit(1);  // limit set but no host service

  Client c0(cluster, 0), c1(cluster, 1);
  const auto& la = cluster.metadata().create("a", 1 * MiB, FilePolicy{});
  const auto& lb = cluster.metadata().create("b", 1 * MiB, FilePolicy{});
  const auto capa = cluster.metadata().grant(c0.client_id(), la, auth::Right::kWrite);
  const auto capb = cluster.metadata().grant(c1.client_id(), lb, auth::Right::kWrite);
  int oks = 0;
  c0.write(la, capa, random_bytes(256 * KiB, 3),
           [&](dfs::DfsError err, TimePs) { oks += err == dfs::DfsError::kOk; });
  c1.write(lb, capb, random_bytes(256 * KiB, 4),
           [&](dfs::DfsError err, TimePs) { oks += err == dfs::DfsError::kOk; });
  cluster.sim().run();
  EXPECT_EQ(node.nic().steered_to_host(), 0u);
  EXPECT_EQ(oks, 2);  // PsPIN keeps both (limit inactive without a handler)
}

TEST(Steering, HostServiceEnforcesValidation) {
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  node.uninstall_dfs();  // pure CPU-mode DFS node
  HostDfsService host(node, cfg.dfs);

  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  cap.mac ^= 1;

  bool done = false;
  dfs::DfsError werr = dfs::DfsError::kOk;
  client.write(layout, cap, random_bytes(16 * KiB, 5), [&](dfs::DfsError err, TimePs) {
    done = true;
    werr = err;
  });
  cluster.sim().run();
  EXPECT_TRUE(done);
  EXPECT_EQ(werr, dfs::DfsError::kDenied);
  EXPECT_EQ(host.validation_failures(), 1u);
  EXPECT_EQ(node.target().bytes_written(), 0u);
}

TEST(Steering, CpuModeNodeServesWritesAndReads) {
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  auto& node = cluster.storage_node(0);
  node.uninstall_dfs();
  HostDfsService host(node, cfg.dfs);

  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  const Bytes data = random_bytes(30000, 6);
  bool wrote = false;
  client.write(layout, cap, data,
               [&](dfs::DfsError err, TimePs) { wrote = err == dfs::DfsError::kOk; });
  cluster.sim().run();
  ASSERT_TRUE(wrote);

  Bytes got;
  client.read(layout, cap, static_cast<std::uint32_t>(data.size()),
              [&](dfs::DfsError err, Bytes d, TimePs) {
                EXPECT_EQ(err, dfs::DfsError::kOk);
                got = std::move(d);
              });
  cluster.sim().run();
  EXPECT_EQ(got, data);
  EXPECT_EQ(host.requests_handled(), 2u);
}

TEST(Steering, HostForwardedReplicationLandsEverywhere) {
  // Primary runs in CPU mode; replicas keep their PsPIN: the host-forwarded
  // hops are regular DFS writes the replicas process on their NICs.
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  Cluster cluster(cfg);
  auto& primary = cluster.storage_node(0);
  primary.uninstall_dfs();
  HostDfsService host(primary, cfg.dfs);

  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.strategy = dfs::ReplStrategy::kRing;
  policy.repl_k = 3;
  const auto& layout = cluster.metadata().create("a", 128 * KiB, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  const Bytes data = random_bytes(100000, 7);
  bool ok = false;
  client.write(layout, cap, data,
               [&](dfs::DfsError err, TimePs) { ok = err == dfs::DfsError::kOk; });
  cluster.sim().run();
  ASSERT_TRUE(ok);
  for (const auto& coord : layout.targets) {
    EXPECT_EQ(cluster.storage_by_node(coord.node).target().read(coord.addr, data.size()), data)
        << "node " << coord.node;
  }
  EXPECT_EQ(host.requests_handled(), 1u);  // replicas handled on their NICs
}

TEST(Steering, CpuModeErasureCodingProducesCorrectParity) {
  // All nodes in CPU mode: data nodes encode on the host, parity nodes
  // aggregate on the host — still byte-identical to the reference encode.
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  Cluster cluster(cfg);
  std::vector<std::unique_ptr<HostDfsService>> services;
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    cluster.storage_node(n).uninstall_dfs();
    services.push_back(std::make_unique<HostDfsService>(cluster.storage_node(n), cfg.dfs));
  }

  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const auto& layout = cluster.metadata().create("a", 30000, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  Bytes data = random_bytes(30000, 8);
  bool ok = false;
  client.write(layout, cap, data,
               [&](dfs::DfsError err, TimePs) { ok = err == dfs::DfsError::kOk; });
  cluster.sim().run();
  ASSERT_TRUE(ok);

  const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
  Bytes padded = data;
  padded.resize(chunk_len * 3, 0);
  std::vector<Bytes> chunks(3);
  for (unsigned i = 0; i < 3; ++i) {
    chunks[i].assign(padded.begin() + static_cast<std::ptrdiff_t>(i * chunk_len),
                     padded.begin() + static_cast<std::ptrdiff_t>((i + 1) * chunk_len));
  }
  ec::ReedSolomon rs(3, 2);
  const auto parity = rs.encode(chunks);
  for (unsigned i = 0; i < 2; ++i) {
    EXPECT_EQ(cluster.storage_by_node(layout.parity[i].node)
                  .target()
                  .read(layout.parity[i].addr, chunk_len),
              parity[i]);
  }
}

TEST(Steering, RetryRecoversFromTableExhaustion) {
  // §III-B.2: "the request is denied, and the client will retry later."
  ClusterConfig cfg;
  cfg.dfs.req_table_bytes = dfs::kReqDescriptorBytes;  // one slot
  cfg.storage_nodes = 1;
  cfg.clients = 2;
  Cluster cluster(cfg);
  Client c0(cluster, 0), c1(cluster, 1);
  c0.set_retry_policy(5, us(50));
  c1.set_retry_policy(5, us(50));
  const auto& la = cluster.metadata().create("a", 1 * MiB, services::FilePolicy{});
  const auto& lb = cluster.metadata().create("b", 1 * MiB, services::FilePolicy{});
  const auto capa = cluster.metadata().grant(c0.client_id(), la, auth::Right::kWrite);
  const auto capb = cluster.metadata().grant(c1.client_id(), lb, auth::Right::kWrite);

  const Bytes da = random_bytes(512 * KiB, 9);
  const Bytes db = random_bytes(512 * KiB, 10);
  int oks = 0;
  c0.write(la, capa, da, [&](dfs::DfsError err, TimePs) { oks += err == dfs::DfsError::kOk; });
  c1.write(lb, capb, db, [&](dfs::DfsError err, TimePs) { oks += err == dfs::DfsError::kOk; });
  cluster.sim().run();

  EXPECT_EQ(oks, 2);  // the denied write eventually succeeds via retry
  EXPECT_GE(c0.retries_performed() + c1.retries_performed(), 1u);
  auto& node = cluster.storage_node(0);
  EXPECT_EQ(node.target().read(la.targets[0].addr, da.size()), da);
  EXPECT_EQ(node.target().read(lb.targets[0].addr, db.size()), db);
}

TEST(Steering, OffsetWriteAndRead) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("a", 64 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  const Bytes head = random_bytes(1000, 11);
  const Bytes mid = random_bytes(1000, 12);
  bool ok1 = false, ok2 = false;
  client.write_at(layout, cap, 0, head,
                  [&](dfs::DfsError err, TimePs) { ok1 = err == dfs::DfsError::kOk; });
  client.write_at(layout, cap, 10000, mid,
                  [&](dfs::DfsError err, TimePs) { ok2 = err == dfs::DfsError::kOk; });
  cluster.sim().run();
  ASSERT_TRUE(ok1 && ok2);

  Bytes got;
  client.read_at(layout, cap, 10000, 1000, [&](dfs::DfsError err, Bytes d, TimePs) {
    EXPECT_EQ(err, dfs::DfsError::kOk);
    got = std::move(d);
  });
  cluster.sim().run();
  EXPECT_EQ(got, mid);
  EXPECT_EQ(cluster.storage_by_node(layout.targets[0].node)
                .target()
                .read(layout.targets[0].addr, 1000),
            head);
}

TEST(Steering, OffsetWriteBoundsChecked) {
  Cluster cluster;
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("a", 4 * KiB, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  EXPECT_THROW(client.write_at(layout, cap, 4000, Bytes(1000, 0), [](dfs::DfsError, TimePs) {}),
               std::length_error);
}

TEST(Steering, OffsetReplicatedWrite) {
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kReplication;
  policy.repl_k = 3;
  const auto& layout = cluster.metadata().create("a", 64 * KiB, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  const Bytes data = random_bytes(5000, 13);
  bool ok = false;
  client.write_at(layout, cap, 7777, data,
                  [&](dfs::DfsError err, TimePs) { ok = err == dfs::DfsError::kOk; });
  cluster.sim().run();
  ASSERT_TRUE(ok);
  for (const auto& coord : layout.targets) {
    EXPECT_EQ(
        cluster.storage_by_node(coord.node).target().read(coord.addr + 7777, data.size()),
        data);
  }
}

}  // namespace
}  // namespace nadfs
