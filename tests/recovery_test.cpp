// Tests of the EC recovery manager: degraded reads, chunk rebuild onto
// spares, metadata repair, and unrecoverable-loss reporting.
#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "services/recovery.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;
using services::RecoveryManager;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

struct Rig {
  ClusterConfig cfg;
  std::unique_ptr<Cluster> cluster;
  std::unique_ptr<Client> client;
  std::unique_ptr<RecoveryManager> recovery;
  Bytes data;
  const services::FileLayout* layout = nullptr;

  explicit Rig(unsigned nodes = 7, std::uint8_t k = 3, std::uint8_t m = 2,
               std::size_t size = 50000) {
    cfg.storage_nodes = nodes;
    cluster = std::make_unique<Cluster>(cfg);
    client = std::make_unique<Client>(*cluster, 0);
    recovery = std::make_unique<RecoveryManager>(*cluster, *client);

    FilePolicy policy;
    policy.resiliency = dfs::Resiliency::kErasureCoding;
    policy.ec_k = k;
    policy.ec_m = m;
    layout = &cluster->metadata().create("obj", size, policy);
    const auto cap = cluster->metadata().grant(client->client_id(), *layout, auth::Right::kWrite);
    data = random_bytes(size, 42);
    bool ok = false;
    client->write(*layout, cap, data,
                  [&](dfs::DfsError err, TimePs) { ok = err == dfs::DfsError::kOk; });
    cluster->sim().run();
    EXPECT_TRUE(ok);
  }
};

TEST(Recovery, DegradedReadWithNoFailures) {
  Rig rig;
  std::optional<Bytes> got;
  rig.recovery->degraded_read(*rig.layout, {}, [&](std::optional<Bytes> d, TimePs) {
    got = std::move(d);
  });
  rig.cluster->sim().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, rig.data);
  // No op raced its deadline and no ack went astray on the healthy path.
  EXPECT_EQ(rig.client->tracker().late_acks(), 0u);
  EXPECT_EQ(rig.client->tracker().stray_nacks(), 0u);
  EXPECT_EQ(rig.client->tracker().pending_count(), 0u);
}

TEST(Recovery, DegradedReadSurvivesMaxFailures) {
  Rig rig;
  // Lose m = 2 nodes: one data, one parity.
  const std::set<net::NodeId> failed = {rig.layout->targets[0].node,
                                        rig.layout->parity[1].node};
  std::optional<Bytes> got;
  TimePs at = 0;
  rig.recovery->degraded_read(*rig.layout, failed, [&](std::optional<Bytes> d, TimePs t) {
    got = std::move(d);
    at = t;
  });
  rig.cluster->sim().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, rig.data);
  EXPECT_GT(at, 0u);
}

TEST(Recovery, DegradedReadReportsDataLoss) {
  Rig rig;
  // Lose m + 1 = 3 chunks: unrecoverable.
  const std::set<net::NodeId> failed = {rig.layout->targets[0].node,
                                        rig.layout->targets[1].node,
                                        rig.layout->parity[0].node};
  bool called = false;
  std::optional<Bytes> got = Bytes{1};
  rig.recovery->degraded_read(*rig.layout, failed, [&](std::optional<Bytes> d, TimePs) {
    called = true;
    got = std::move(d);
  });
  rig.cluster->sim().run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(got.has_value());
}

TEST(Recovery, RebuildRestoresFullRedundancy) {
  Rig rig;
  const std::set<net::NodeId> failed = {rig.layout->targets[1].node,
                                        rig.layout->parity[0].node};
  std::optional<services::FileLayout> repaired;
  rig.recovery->rebuild("obj", failed, [&](std::optional<services::FileLayout> l, TimePs) {
    repaired = std::move(l);
  });
  rig.cluster->sim().run();

  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(rig.recovery->chunks_rebuilt(), 2u);
  // Repaired layout avoids the failed nodes entirely.
  for (const auto& coord : repaired->targets) EXPECT_FALSE(failed.count(coord.node));
  for (const auto& coord : repaired->parity) EXPECT_FALSE(failed.count(coord.node));
  // Metadata was updated in place.
  const auto* current = rig.cluster->metadata().lookup("obj");
  ASSERT_NE(current, nullptr);
  EXPECT_EQ(current->targets[1].node, repaired->targets[1].node);

  // The rebuilt chunks are byte-correct: a degraded read pretending the
  // *other* original survivors failed must still reconstruct the data.
  const std::set<net::NodeId> second_wave = {repaired->targets[0].node,
                                             repaired->parity[1].node};
  std::optional<Bytes> got;
  rig.recovery->degraded_read(*current, second_wave, [&](std::optional<Bytes> d, TimePs) {
    got = std::move(d);
  });
  rig.cluster->sim().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, rig.data);
  EXPECT_EQ(rig.client->tracker().late_acks(), 0u);
  EXPECT_EQ(rig.client->tracker().stray_nacks(), 0u);
  EXPECT_EQ(rig.client->tracker().pending_count(), 0u);
}

TEST(Recovery, RebuildWithNoFailuresIsNoOp) {
  Rig rig;
  std::optional<services::FileLayout> repaired;
  rig.recovery->rebuild("obj", {}, [&](std::optional<services::FileLayout> l, TimePs) {
    repaired = std::move(l);
  });
  rig.cluster->sim().run();
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(rig.recovery->chunks_rebuilt(), 0u);
  EXPECT_EQ(repaired->targets[0].node, rig.layout->targets[0].node);
}

TEST(Recovery, RebuildFailsWhenUnrecoverable) {
  Rig rig;
  const std::set<net::NodeId> failed = {rig.layout->targets[0].node,
                                        rig.layout->targets[1].node,
                                        rig.layout->targets[2].node};
  bool called = false;
  std::optional<services::FileLayout> repaired;
  rig.recovery->rebuild("obj", failed, [&](std::optional<services::FileLayout> l, TimePs) {
    called = true;
    repaired = std::move(l);
  });
  rig.cluster->sim().run();
  EXPECT_TRUE(called);
  EXPECT_FALSE(repaired.has_value());
}

TEST(Recovery, RejectsNonEcObjects) {
  Cluster cluster;
  Client client(cluster, 0);
  RecoveryManager recovery(cluster, client);
  const auto& layout = cluster.metadata().create("plain", 4096, FilePolicy{});
  EXPECT_THROW(recovery.degraded_read(layout, {}, [](std::optional<Bytes>, TimePs) {}),
               std::invalid_argument);
  EXPECT_THROW(recovery.rebuild("plain", {}, [](std::optional<services::FileLayout>, TimePs) {}),
               std::invalid_argument);
  EXPECT_THROW(recovery.rebuild("nope", {}, [](std::optional<services::FileLayout>, TimePs) {}),
               std::invalid_argument);
}

TEST(Recovery, RebuildRs63AfterThreeFailures) {
  Rig rig(/*nodes=*/12, /*k=*/6, /*m=*/3, /*size=*/120000);
  const std::set<net::NodeId> failed = {rig.layout->targets[0].node,
                                        rig.layout->targets[3].node,
                                        rig.layout->parity[2].node};
  std::optional<services::FileLayout> repaired;
  rig.recovery->rebuild("obj", failed, [&](std::optional<services::FileLayout> l, TimePs) {
    repaired = std::move(l);
  });
  rig.cluster->sim().run();
  ASSERT_TRUE(repaired.has_value());
  EXPECT_EQ(rig.recovery->chunks_rebuilt(), 3u);

  std::optional<Bytes> got;
  rig.recovery->degraded_read(*repaired, failed, [&](std::optional<Bytes> d, TimePs) {
    got = std::move(d);
  });
  rig.cluster->sim().run();
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(*got, rig.data);
}

}  // namespace
}  // namespace nadfs
