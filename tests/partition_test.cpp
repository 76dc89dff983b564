// Partition chaos: cut the only spine trunk of a leaf/spine cluster and
// verify the system stays split-brain-free.
//
// Topology: leaf_spine(2, 1) — two leaves, one spine (switch id 2), so
// trunk_down(leaf, spine) is a true two-sided partition. With 6 storage
// nodes and 2 clients attached round-robin, leaf 0 carries nodes
// {0, 2, 4, 6} and leaf 1 carries {1, 3, 5, 7}. A partition-aware
// FailureDetector runs on *each* side: during the cut each sees exactly
// half its peers go dark simultaneously, which trips the suspect quorum —
// escalation is held (kPartitioned), nobody is declared failed, and no
// recovery is triggered. The cut heals by fault-plan window expiry; both
// sides rehabilitate and a post-heal read returns the original bytes.
//
// Seeded via NADFS_CHAOS_SEED like the chaos suite; every scenario runs
// twice and must produce bit-identical digests.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>

#include "common/rng.hpp"
#include "services/failure_detector.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FailureDetector;
using services::FilePolicy;

std::uint64_t chaos_seed() {
  const char* env = std::getenv("NADFS_CHAOS_SEED");
  if (env == nullptr || *env == '\0') return 1;
  return std::strtoull(env, nullptr, 10);
}

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

struct Digest {
  std::uint64_t h = 1469598103934665603ull;
  void u8(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ull;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) u8(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void bytes(const Bytes& b) {
    u64(b.size());
    for (auto x : b) u8(x);
  }
};

constexpr TimePs kCutAt = us(100);
constexpr TimePs kHealAt = us(400);  // heals by window expiry, no explicit event
constexpr TimePs kRunUntil = us(700);

ClusterConfig partitioned_config() {
  ClusterConfig cfg;
  cfg.storage_nodes = 6;
  // Three client nodes: a leaf-0 observer (node 6), a leaf-1 observer
  // (node 7), and a leaf-0 writer (node 8). Probers get dedicated nodes —
  // a detector owns its prober's NIC control handler.
  cfg.clients = 3;
  cfg.network.topology = net::Topology::leaf_spine(2, 1);
  return cfg;
}

/// The storage peers on the same / other leaf as `client_node`, by the
/// round-robin attachment rule.
bool same_side(const net::Topology& topo, net::NodeId a, net::NodeId b) {
  return topo.leaf_of(a) == topo.leaf_of(b);
}

TEST(Partition, TrunkCutIsSplitBrainFreeAndHeals) {
  auto run = [] {
    Cluster cluster(partitioned_config());
    const net::Topology& topo = cluster.network().topology();
    const net::SwitchId spine = topo.spine_id(0);
    Client prober_a(cluster, 0);  // node 6, leaf 0 observer
    Client prober_b(cluster, 1);  // node 7, leaf 1 observer
    Client writer(cluster, 2);    // node 8, leaf 0
    FailureDetector det_a(cluster, prober_a);
    FailureDetector det_b(cluster, prober_b);

    // Seed an object before the cut (spread over both sides by placement).
    const std::size_t size = 16 * KiB;
    const auto& layout = cluster.metadata().create("obj", size, FilePolicy{});
    const auto wcap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kWrite);
    const Bytes data = random_bytes(size, chaos_seed());
    bool wrote = false;
    writer.write(layout, wcap, data,
                 [&](dfs::DfsError err, TimePs) { wrote = err == dfs::DfsError::kOk; });
    cluster.sim().run();
    EXPECT_TRUE(wrote);

    // Cut the leaf0<->spine trunk for [kCutAt, kHealAt): a true two-sided
    // partition, healed by window expiry alone.
    cluster.network().faults().trunk_down(0, spine, kCutAt, kHealAt);

    unsigned false_dead_same_side = 0;
    unsigned cross_dark_a = 0, cross_dark_b = 0;
    // Deep inside the cut: every cross-partition peer is dark
    // (suspected/partition-held), every same-side peer alive, and —
    // the split-brain property — neither detector has *failed* anyone.
    cluster.sim().schedule(us(320), [&] {
      for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
        const net::NodeId id = cluster.storage_node(i).id();
        const auto ha = det_a.health(id);
        const auto hb = det_b.health(id);
        if (same_side(topo, id, prober_a.node().id())) {
          if (ha != FailureDetector::Health::kAlive) ++false_dead_same_side;
        } else if (ha != FailureDetector::Health::kAlive) {
          ++cross_dark_a;
        }
        if (same_side(topo, id, prober_b.node().id())) {
          if (hb != FailureDetector::Health::kAlive) ++false_dead_same_side;
        } else if (hb != FailureDetector::Health::kAlive) {
          ++cross_dark_b;
        }
      }
      EXPECT_TRUE(det_a.failed().empty());
      EXPECT_TRUE(det_b.failed().empty());
      EXPECT_TRUE(det_a.partition_suspected());
      EXPECT_TRUE(det_b.partition_suspected());
    });

    det_a.start();
    det_b.start();
    cluster.sim().run_until(kRunUntil);
    det_a.stop();
    det_b.stop();
    cluster.sim().run();

    // Mid-cut observations: each side saw exactly its 3 cross-partition
    // peers dark and zero same-side false positives.
    EXPECT_EQ(false_dead_same_side, 0u);
    EXPECT_EQ(cross_dark_a, 3u);
    EXPECT_EQ(cross_dark_b, 3u);
    // Nobody was ever declared failed: exclusion/recovery never ran.
    EXPECT_TRUE(det_a.failed().empty());
    EXPECT_TRUE(det_b.failed().empty());
    EXPECT_GT(det_a.escalations_held(), 0u);
    EXPECT_GT(det_b.escalations_held(), 0u);
    for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
      EXPECT_FALSE(cluster.metadata().excluded(cluster.storage_node(i).id()));
    }
    // After the heal, every node rehabilitated to alive.
    for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
      EXPECT_EQ(det_a.health(cluster.storage_node(i).id()), FailureDetector::Health::kAlive);
      EXPECT_EQ(det_b.health(cluster.storage_node(i).id()), FailureDetector::Health::kAlive);
    }
    // The cut was real: probes (and nothing else) died on the trunk.
    const auto& fc = cluster.network().fault_counters();
    EXPECT_GT(fc.trunk_drops, 0u);
    EXPECT_GT(cluster.network().hop_counters(0).trunk_drops +
                  cluster.network().hop_counters(spine).trunk_drops,
              0u);

    // Post-heal read returns the original bytes across the healed trunk.
    const auto rcap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kRead);
    Bytes got;
    writer.read(layout, rcap, static_cast<std::uint32_t>(size),
                [&](dfs::DfsError err, Bytes d, TimePs) {
                  EXPECT_EQ(err, dfs::DfsError::kOk);
                  got = std::move(d);
                });
    cluster.sim().run();
    EXPECT_EQ(got, data);

    Digest d;
    d.u64(fc.tx_drops);
    d.u64(fc.rx_drops);
    d.u64(fc.trunk_drops);
    d.u64(fc.buffer_drops);
    d.u64(det_a.probes_sent());
    d.u64(det_a.probes_missed());
    d.u64(det_a.indirect_probes());
    d.u64(det_a.escalations_held());
    d.u64(det_b.probes_sent());
    d.u64(det_b.probes_missed());
    d.u64(det_b.indirect_probes());
    d.u64(det_b.escalations_held());
    d.bytes(got);
    if (::testing::Test::HasFailure()) {
      std::printf("[partition] seed=%llu trunk_drops=%llu a(sent=%llu missed=%llu held=%llu) "
                  "b(sent=%llu missed=%llu held=%llu)\n",
                  (unsigned long long)chaos_seed(), (unsigned long long)fc.trunk_drops,
                  (unsigned long long)det_a.probes_sent(),
                  (unsigned long long)det_a.probes_missed(),
                  (unsigned long long)det_a.escalations_held(),
                  (unsigned long long)det_b.probes_sent(),
                  (unsigned long long)det_b.probes_missed(),
                  (unsigned long long)det_b.escalations_held());
    }
    return d.h;
  };
  const auto h1 = run();
  const auto h2 = run();
  EXPECT_EQ(h1, h2) << "partition scenario not deterministic";
}

TEST(Partition, QuorumGuardDisabledEscalatesAcrossTheCut) {
  // Same cut with partition awareness off: the leaf-0 detector declares
  // the whole other side dead — exactly the split-brain the quorum guard
  // exists to prevent. (Documents the counterfactual.)
  Cluster cluster(partitioned_config());
  const net::SwitchId spine = cluster.network().topology().spine_id(0);
  Client prober(cluster, 0);
  services::FailureDetectorConfig fcfg;
  fcfg.partition_aware = false;
  fcfg.confirm_probes = 0;
  FailureDetector det(cluster, prober, fcfg);
  cluster.network().faults().trunk_down(0, spine, kCutAt, kHealAt);
  det.start();
  cluster.sim().run_until(kCutAt + us(200));
  det.stop();
  cluster.sim().run();
  EXPECT_EQ(det.failed().size(), 3u);  // nodes 1, 3, 5: false positives
  for (net::NodeId id : det.failed()) {
    EXPECT_EQ(cluster.network().topology().leaf_of(id), 1u);
  }
}

}  // namespace
}  // namespace nadfs
