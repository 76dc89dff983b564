// Tests for the switch-level topology abstraction (net/topology.hpp) and
// the fabric forwarding path behind Network: routing tables, deterministic
// ECMP, per-hop store-and-forward timing, finite port buffering, and
// fabric-run determinism. The star's bit-identical digest pins live in
// determinism_test.cpp; here we verify the fabric against the same model.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "net/network.hpp"

namespace nadfs {
namespace {

using net::SwitchId;
using net::Topology;

// ------------------------------------------------------------- Topology

TEST(Topology, DefaultIsSingleSwitchStar) {
  const Topology t;
  EXPECT_TRUE(t.single_switch());
  EXPECT_EQ(t.switch_count(), 1u);
  EXPECT_EQ(t.leaf_of(0), 0u);
  EXPECT_EQ(t.leaf_of(41), 0u);
  EXPECT_FALSE(t.is_spine(0));
  const Topology star = Topology::star();
  EXPECT_TRUE(star.single_switch());
}

TEST(Topology, LeafSpineTablesAreMaterialized) {
  const Topology t = Topology::leaf_spine(3, 2);
  EXPECT_FALSE(t.single_switch());
  EXPECT_EQ(t.leaf_count(), 3u);
  EXPECT_EQ(t.spine_count(), 2u);
  EXPECT_EQ(t.switch_count(), 5u);
  EXPECT_FALSE(t.is_spine(2));
  EXPECT_TRUE(t.is_spine(3));
  EXPECT_TRUE(t.is_spine(4));
  EXPECT_EQ(t.spine_id(0), 3u);
  EXPECT_EQ(t.spine_id(1), 4u);
  // Nodes round-robin onto leaves by id.
  EXPECT_EQ(t.leaf_of(0), 0u);
  EXPECT_EQ(t.leaf_of(4), 1u);
  EXPECT_EQ(t.leaf_of(5), 2u);
  // Leaf tables: every spine toward a remote leaf, empty toward self.
  const auto& hops = t.next_hops(0, 1);
  ASSERT_EQ(hops.size(), 2u);
  EXPECT_EQ(hops[0], 3u);
  EXPECT_EQ(hops[1], 4u);
  EXPECT_TRUE(t.next_hops(2, 2).empty());
  // Spine tables: the next hop toward a leaf is that leaf.
  EXPECT_EQ(t.spine_next_hop(3, 2), 2u);
  EXPECT_EQ(t.spine_next_hop(4, 0), 0u);
  // Range checking.
  EXPECT_THROW(t.next_hops(3, 0), std::out_of_range);   // spine is not a leaf
  EXPECT_THROW(t.spine_next_hop(1, 0), std::out_of_range);
  EXPECT_THROW(Topology::leaf_spine(0, 1), std::invalid_argument);
  EXPECT_THROW(Topology::leaf_spine(2, 0), std::invalid_argument);
  EXPECT_THROW(Topology().next_hops(0, 0), std::out_of_range);  // star has no tables
}

TEST(Topology, EcmpHashIsDeterministicAndSpreads) {
  // Pure function of the flow key: same inputs, same hash, across calls.
  EXPECT_EQ(Topology::ecmp_hash(1, 2, 99), Topology::ecmp_hash(1, 2, 99));
  EXPECT_NE(Topology::ecmp_hash(1, 2, 99), Topology::ecmp_hash(2, 1, 99));
  EXPECT_NE(Topology::ecmp_hash(1, 2, 99), Topology::ecmp_hash(1, 2, 100));

  const Topology t = Topology::leaf_spine(2, 4);
  // One src/dst pair, many messages: every spine takes a reasonable share.
  std::map<SwitchId, unsigned> share;
  for (std::uint64_t msg = 0; msg < 1000; ++msg) {
    const SwitchId s = t.spine_for(0, 1, msg);
    EXPECT_TRUE(t.is_spine(s));
    ++share[s];
  }
  ASSERT_EQ(share.size(), 4u);  // all spines used
  for (const auto& [spine, n] : share) {
    EXPECT_GT(n, 150u) << "spine " << spine;  // ~250 expected; generous envelope
  }
  // All packets of one message take one path.
  EXPECT_EQ(t.spine_for(0, 1, 7), t.spine_for(0, 1, 7));
  // Same-leaf flows never cross a spine.
  EXPECT_THROW(t.spine_for(0, 2, 1), std::logic_error);
}

// ------------------------------------------------------------ FabricNet

struct TimedRecorder : net::PacketSink {
  sim::Simulator* sim = nullptr;
  std::vector<std::pair<TimePs, net::Packet>> pkts;
  void on_packet(net::Packet&& p) override { pkts.emplace_back(sim->now(), std::move(p)); }
};

net::Packet mk(net::NodeId src, net::NodeId dst, std::uint64_t msg, Bytes data = {}) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.opcode = net::Opcode::kSend;
  p.msg_id = msg;
  p.data = std::move(data);
  return p;
}

/// n nodes on a given topology, every sink timestamped.
struct FabricRig {
  sim::Simulator sim;
  net::Network net;
  std::vector<std::unique_ptr<TimedRecorder>> sinks;

  FabricRig(Topology topo, std::size_t n, std::size_t port_buffer_bytes = 0) : net(sim, [&] {
    net::NetworkConfig cfg;
    cfg.topology = std::move(topo);
    cfg.port_buffer_bytes = port_buffer_bytes;
    return cfg;
  }()) {
    for (std::size_t i = 0; i < n; ++i) {
      sinks.push_back(std::make_unique<TimedRecorder>());
      sinks.back()->sim = &sim;
      net.add_node(*sinks.back());
    }
  }
};

TEST(FabricNet, SameLeafTrafficStaysLocal) {
  // leaf_spine(2,1): nodes 0,2 land on leaf 0. Local traffic turns around
  // at the leaf with star timing and never touches the spine.
  FabricRig rig(Topology::leaf_spine(2, 1), 4);
  net::Packet p = mk(0, 2, 1, Bytes(512, 7));
  const TimePs ser = rig.net.config().link_bandwidth.transfer_time(p.wire_size());
  rig.net.inject(std::move(p));
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  ASSERT_EQ(rig.sinks[2]->pkts.size(), 1u);
  const auto& cfg = rig.net.config();
  // node->leaf ser + link + switch, then leaf->node ser + link.
  EXPECT_EQ(rig.sinks[2]->pkts[0].first,
            2 * ser + 2 * cfg.link_latency + cfg.switch_latency);
  const SwitchId spine = rig.net.topology().spine_id(0);
  EXPECT_EQ(rig.net.hop_counters(spine).forwarded_pkts, 0u);
}

TEST(FabricNet, CrossLeafTakesStoreAndForwardHops) {
  // 0 (leaf 0) -> 1 (leaf 1): node->leaf, leaf->spine, spine->leaf,
  // leaf->node. Four serializations, four link hops, three switch visits.
  FabricRig rig(Topology::leaf_spine(2, 1), 4);
  net::Packet p = mk(0, 1, 1, Bytes(512, 7));
  const std::size_t wire = p.wire_size();
  const TimePs ser = rig.net.config().link_bandwidth.transfer_time(wire);
  rig.net.inject(std::move(p));
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  ASSERT_EQ(rig.sinks[1]->pkts.size(), 1u);
  const auto& cfg = rig.net.config();
  EXPECT_EQ(rig.sinks[1]->pkts[0].first,
            4 * ser + 4 * cfg.link_latency + 3 * cfg.switch_latency);
  // Every switch on the path accounted the hop.
  const SwitchId spine = rig.net.topology().spine_id(0);
  EXPECT_EQ(rig.net.hop_counters(0).forwarded_pkts, 1u);
  EXPECT_EQ(rig.net.hop_counters(spine).forwarded_pkts, 1u);
  EXPECT_EQ(rig.net.hop_counters(1).forwarded_pkts, 1u);
  EXPECT_EQ(rig.net.hop_counters(0).forwarded_bytes, wire);
  EXPECT_EQ(rig.net.hop_counters(spine).forwarded_bytes, wire);
}

TEST(FabricNet, EcmpSpreadsMessagesAcrossSpines) {
  FabricRig rig(Topology::leaf_spine(2, 2), 4);
  const unsigned kMsgs = 64;
  for (std::uint64_t m = 1; m <= kMsgs; ++m) rig.net.inject(mk(0, 1, m, Bytes(64, 1)));
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.sinks[1]->pkts.size(), kMsgs);
  const auto& s0 = rig.net.hop_counters(rig.net.topology().spine_id(0));
  const auto& s1 = rig.net.hop_counters(rig.net.topology().spine_id(1));
  EXPECT_EQ(s0.forwarded_pkts + s1.forwarded_pkts, kMsgs);
  EXPECT_GT(s0.forwarded_pkts, 0u);
  EXPECT_GT(s1.forwarded_pkts, 0u);
}

TEST(FabricNet, FinitePortBufferTailDrops) {
  // Three sources on leaf 0 burst at one destination behind leaf 1 through
  // a single spine; the trunk-up port buffer holds one packet's worth of
  // queueing, so the third simultaneous arrival is tail-dropped.
  net::Packet probe = mk(0, 1, 1, Bytes(1024, 5));
  const std::size_t wire = probe.wire_size();
  FabricRig rig(Topology::leaf_spine(2, 1), 6, /*port_buffer_bytes=*/wire);
  for (net::NodeId src : {net::NodeId{0}, net::NodeId{2}, net::NodeId{4}}) {
    rig.net.inject(mk(src, 1, 100 + src, Bytes(1024, 5)));
  }
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.sinks[1]->pkts.size(), 2u);
  EXPECT_EQ(rig.net.fault_counters().buffer_drops, 1u);
  EXPECT_EQ(rig.net.hop_counters(0).buffer_drops, 1u);
  EXPECT_EQ(rig.net.fault_counters().trunk_drops, 0u);
  // Unbounded buffering (0) delivers everything.
  FabricRig deep(Topology::leaf_spine(2, 1), 6, 0);
  for (net::NodeId src : {net::NodeId{0}, net::NodeId{2}, net::NodeId{4}}) {
    deep.net.inject(mk(src, 1, 100 + src, Bytes(1024, 5)));
  }
  deep.sim.run();
  EXPECT_EQ(deep.net.in_flight_packets(), 0u);
  EXPECT_EQ(deep.sinks[1]->pkts.size(), 3u);
  EXPECT_EQ(deep.net.fault_counters().buffer_drops, 0u);
}

TEST(FabricNet, TrunkDownWindowDropsThenRecovers) {
  FabricRig rig(Topology::leaf_spine(2, 1), 4);
  const SwitchId spine = rig.net.topology().spine_id(0);
  net::FaultPlan plan;
  plan.trunk_down(0, spine, us(1), us(3));
  rig.net.install_faults(plan);
  rig.sim.schedule(us(2), [&] { rig.net.inject(mk(0, 1, 1, Bytes(64, 1))); });  // cut
  rig.sim.schedule(us(4), [&] { rig.net.inject(mk(0, 1, 2, Bytes(64, 1))); });  // healed
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.sinks[1]->pkts.size(), 1u);
  EXPECT_EQ(rig.sinks[1]->pkts[0].second.msg_id, 2u);
  EXPECT_EQ(rig.net.fault_counters().trunk_drops, 1u);
  EXPECT_EQ(rig.net.hop_counters(0).trunk_drops, 1u);
}

TEST(FabricNet, FabricRunsAreDeterministic) {
  // Same traffic on the same fabric twice: identical arrival sequences and
  // per-hop counters (FNV-1a over everything observable).
  auto run = [] {
    FabricRig rig(Topology::leaf_spine(3, 2), 9, 64 * 1024);
    for (std::uint64_t m = 1; m <= 40; ++m) {
      const net::NodeId src = static_cast<net::NodeId>(m % 9);
      const net::NodeId dst = static_cast<net::NodeId>((m * 5) % 9);
      if (src == dst) continue;
      rig.net.inject(mk(src, dst, m, Bytes(256 + (m % 4) * 128, 9)));
    }
    rig.sim.run();
    EXPECT_EQ(rig.net.in_flight_packets(), 0u);
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    for (const auto& sink : rig.sinks) {
      for (const auto& [at, pkt] : sink->pkts) {
        mix(at);
        mix(pkt.msg_id);
        mix(pkt.data.size());
      }
    }
    for (SwitchId sw = 0; sw < rig.net.topology().switch_count(); ++sw) {
      mix(rig.net.hop_counters(sw).forwarded_pkts);
      mix(rig.net.hop_counters(sw).forwarded_bytes);
      mix(rig.net.hop_counters(sw).buffer_drops);
    }
    return h;
  };
  EXPECT_EQ(run(), run());
}

TEST(FabricNet, SpineAndDownlinkDropsReleaseTheirSlots) {
  // The drop paths FinitePortBufferTailDrops and TrunkDownWindowDropsThen-
  // Recovers leave out: a trunk cut between the spine and the destination
  // leaf (dropped at the spine, after the up hop carried it), and the
  // finite buffer on a fabric node downlink.
  FabricRig rig(Topology::leaf_spine(2, 1), 8, /*port_buffer_bytes=*/1024 + net::kTransportHeaderBytes);
  const SwitchId spine = rig.net.topology().spine_id(0);
  net::FaultPlan plan;
  plan.trunk_down(1, spine, 0, us(10));  // leaf 1 <-> spine cut
  rig.net.install_faults(plan);
  rig.net.inject(mk(0, 1, 1, Bytes(64, 1)));  // leaf 0 -> spine ok, spine -> leaf 1 cut
  // Leaf 1 holds nodes 1, 3, 5 and 7: three simultaneous same-leaf
  // arrivals at node 3's downlink, one packet of queueing allowed.
  for (net::NodeId src : {net::NodeId{1}, net::NodeId{5}, net::NodeId{7}}) {
    rig.net.inject(mk(src, 3, 200 + src, Bytes(1024, 5)));
  }
  rig.sim.run();
  EXPECT_EQ(rig.sinks[1]->pkts.size(), 0u);
  EXPECT_EQ(rig.sinks[3]->pkts.size(), 2u);
  EXPECT_EQ(rig.net.hop_counters(spine).trunk_drops, 1u);
  EXPECT_EQ(rig.net.hop_counters(1).buffer_drops, 1u);
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);
}

TEST(FabricNet, LateAddedNodesRegisterMetricCells) {
  // Regression: bind_metrics used to snapshot nodes_ at call time, so a
  // node added afterwards had no delivered-bytes cell in the registry.
  sim::Simulator sim;
  net::Network net{sim};
  TimedRecorder a, b;
  a.sim = b.sim = &sim;
  net.add_node(a);
  obs::MetricRegistry reg;
  net.bind_metrics(reg, "net");
  EXPECT_EQ(reg.snapshot().count("net.node1.delivered_bytes"), 0u);
  net.add_node(b);  // after binding
  auto snap = reg.snapshot();
  ASSERT_EQ(snap.count("net.node1.delivered_bytes"), 1u);
  EXPECT_EQ(snap["net.node1.delivered_bytes"], 0);
  net.inject(mk(0, 1, 1, Bytes(100, 2)));
  sim.run();
  snap = reg.snapshot();
  EXPECT_EQ(snap["net.node1.delivered_bytes"], 100);
}

}  // namespace
}  // namespace nadfs
