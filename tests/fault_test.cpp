// Unit tests for the fault-injection layer (net/fault.hpp + its hooks in
// Network::inject): scheduled node kills and link-down windows, seeded
// drop/duplicate/corrupt rates, per-fault counters, and determinism of the
// whole mechanism.
#include <gtest/gtest.h>

#include "net/network.hpp"

namespace nadfs {
namespace {

struct Recorder : net::PacketSink {
  std::vector<net::Packet> pkts;
  void on_packet(net::Packet&& p) override { pkts.push_back(std::move(p)); }
};

net::Packet mk(net::NodeId src, net::NodeId dst, Bytes data = {}) {
  net::Packet p;
  p.src = src;
  p.dst = dst;
  p.opcode = net::Opcode::kSend;
  p.msg_id = 1;
  p.data = std::move(data);
  return p;
}

struct Rig {
  sim::Simulator sim;
  net::Network net{sim};
  Recorder a, b;
  net::NodeId na, nb;
  Rig() : na(net.add_node(a)), nb(net.add_node(b)) {}
};

// ------------------------------------------------------------ FaultPlan

TEST(FaultPlan, KillBoundaryIsInclusive) {
  net::FaultPlan plan;
  plan.kill_node(3, us(10));
  EXPECT_TRUE(plan.node_alive(3, us(10) - 1));
  EXPECT_FALSE(plan.node_alive(3, us(10)));
  EXPECT_FALSE(plan.node_alive(3, us(999)));
  EXPECT_TRUE(plan.node_alive(4, us(999)));
  // A second, earlier kill wins; a later one is ignored.
  plan.kill_node(3, us(5));
  EXPECT_FALSE(plan.node_alive(3, us(5)));
  plan.kill_node(3, us(50));
  EXPECT_FALSE(plan.node_alive(3, us(5)));
}

TEST(FaultPlan, LinkDownWindowIsHalfOpen) {
  net::FaultPlan plan;
  plan.link_down(1, us(2), us(4));
  EXPECT_TRUE(plan.link_up(1, us(2) - 1));
  EXPECT_FALSE(plan.link_up(1, us(2)));
  EXPECT_FALSE(plan.link_up(1, us(4) - 1));
  EXPECT_TRUE(plan.link_up(1, us(4)));
  // Open-ended outage.
  plan.link_down(2, us(1));
  EXPECT_FALSE(plan.link_up(2, ms(100)));
  EXPECT_TRUE(plan.reachable(3, us(3)));
  EXPECT_FALSE(plan.reachable(1, us(3)));
}

TEST(FaultPlan, EmptyReflectsConfiguration) {
  net::FaultPlan plan;
  EXPECT_TRUE(plan.empty());
  plan.set_seed(42);  // a seed alone configures nothing
  EXPECT_TRUE(plan.empty());
  plan.set_drop_rate(0.1);
  EXPECT_FALSE(plan.empty());
  net::FaultPlan trunk_plan;
  trunk_plan.trunk_down(0, 2, us(1));
  EXPECT_FALSE(trunk_plan.empty());
}

TEST(FaultPlan, OverlappingUnsortedWindowsCompose) {
  // Windows may be added out of order and may overlap: a time is down if
  // *any* window covers it.
  net::FaultPlan plan;
  plan.link_down(1, us(10), us(20));
  plan.link_down(1, us(5), us(12));   // unsorted + overlapping
  plan.link_down(1, us(30));          // open-ended (kNeverPs)
  EXPECT_TRUE(plan.link_up(1, us(5) - 1));
  EXPECT_FALSE(plan.link_up(1, us(5)));
  EXPECT_FALSE(plan.link_up(1, us(11)));  // covered by both
  EXPECT_FALSE(plan.link_up(1, us(15)));  // covered by the first only
  EXPECT_TRUE(plan.link_up(1, us(20)));   // half-open: up again at 20
  EXPECT_TRUE(plan.link_up(1, us(30) - 1));
  EXPECT_FALSE(plan.link_up(1, us(30)));
  EXPECT_FALSE(plan.link_up(1, net::kNeverPs - 1));  // never comes back
}

TEST(FaultPlan, ReachableComposesKillAndLink) {
  // reachable == alive AND link up; either alone makes the node dark.
  net::FaultPlan plan;
  plan.link_down(6, us(10), us(20));
  plan.kill_node(6, us(50));
  EXPECT_TRUE(plan.reachable(6, us(9)));
  EXPECT_FALSE(plan.reachable(6, us(15)));  // link down, still alive
  EXPECT_TRUE(plan.reachable(6, us(20)));   // window over, not yet killed
  EXPECT_FALSE(plan.reachable(6, us(50)));  // killed (inclusive boundary)
  EXPECT_FALSE(plan.reachable(6, net::kNeverPs - 1));  // kill is sticky
}

TEST(FaultPlan, RestartClampsCoveringWindow) {
  net::FaultPlan plan;
  plan.kill_node(3, us(10));  // dead forever...
  plan.restart_at(3, us(40));  // ...until revived
  EXPECT_TRUE(plan.node_alive(3, us(10) - 1));
  EXPECT_FALSE(plan.node_alive(3, us(10)));
  EXPECT_FALSE(plan.node_alive(3, us(40) - 1));
  EXPECT_TRUE(plan.node_alive(3, us(40)));  // half-open: up at the restart
  EXPECT_TRUE(plan.node_alive(3, net::kNeverPs - 1));
  // Restarting a node that was never killed is a no-op.
  plan.restart_at(7, us(5));
  EXPECT_TRUE(plan.node_alive(7, us(1)));
  EXPECT_FALSE(plan.empty());
}

TEST(FaultPlan, RestartLeavesFutureKillWindowsAlone) {
  // A rolling schedule composes: kill / restart / re-kill / re-restart.
  net::FaultPlan plan;
  plan.kill_node(2, us(10));
  plan.kill_node(2, us(100));  // scheduled re-kill, entirely in the future
  plan.restart_at(2, us(30));  // clamps only the covering window
  EXPECT_FALSE(plan.node_alive(2, us(10)));
  EXPECT_TRUE(plan.node_alive(2, us(30)));
  EXPECT_TRUE(plan.node_alive(2, us(100) - 1));
  EXPECT_FALSE(plan.node_alive(2, us(100)));  // the re-kill still fires
  plan.restart_at(2, us(200));
  EXPECT_TRUE(plan.node_alive(2, us(200)));
}

TEST(FaultPlan, KillWithExplicitUntilIsHalfOpen) {
  net::FaultPlan plan;
  plan.kill_node(5, us(10), us(20));
  EXPECT_TRUE(plan.node_alive(5, us(10) - 1));
  EXPECT_FALSE(plan.node_alive(5, us(10)));
  EXPECT_FALSE(plan.node_alive(5, us(20) - 1));
  EXPECT_TRUE(plan.node_alive(5, us(20)));
}

TEST(FaultPlan, NodeUpAfterScansOverlappingWindows) {
  net::FaultPlan plan;
  EXPECT_EQ(plan.node_up_after(9, us(3)), us(3));  // never killed: now
  plan.kill_node(9, us(10), us(20));
  plan.kill_node(9, us(15), us(30));  // overlapping — chains past us(20)
  EXPECT_EQ(plan.node_up_after(9, us(5)), us(5));   // before the outage
  EXPECT_EQ(plan.node_up_after(9, us(12)), us(30)); // fixed point over both
  EXPECT_EQ(plan.node_up_after(9, us(30)), us(30));
  plan.kill_node(9, us(50));  // open-ended
  EXPECT_EQ(plan.node_up_after(9, us(60)), net::kNeverPs);
}

TEST(FaultPlan, TrunkWindowsAreUnorderedPairsHalfOpen) {
  net::FaultPlan plan;
  plan.trunk_down(2, 0, us(1), us(3));  // (2,0) and (0,2) are the same trunk
  EXPECT_TRUE(plan.trunk_up(0, 2, us(1) - 1));
  EXPECT_FALSE(plan.trunk_up(0, 2, us(1)));
  EXPECT_FALSE(plan.trunk_up(2, 0, us(3) - 1));
  EXPECT_TRUE(plan.trunk_up(2, 0, us(3)));
  EXPECT_TRUE(plan.trunk_up(1, 2, us(2)));  // other trunks unaffected
  // Open-ended cut on a different pair.
  plan.trunk_down(1, 3, us(5));
  EXPECT_FALSE(plan.trunk_up(3, 1, ms(100)));
}

// ------------------------------------------------------- network hooks

TEST(FaultNet, UnarmedNetworkDeliversEverything) {
  Rig rig;
  for (int i = 0; i < 10; ++i) rig.net.inject(mk(rig.na, rig.nb, Bytes(64, 7)));
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 10u);
  EXPECT_FALSE(rig.net.faults_armed());
  EXPECT_EQ(rig.net.fault_counters().total_dropped(), 0u);
}

TEST(FaultNet, DeadSourceDropsAtInjection) {
  Rig rig;
  net::FaultPlan plan;
  plan.kill_node(rig.na, us(1));
  rig.net.install_faults(plan);

  rig.net.inject(mk(rig.na, rig.nb));  // before the kill: delivered
  rig.sim.schedule(us(2), [&] {
    const auto w = rig.net.inject(mk(rig.na, rig.nb));  // after: tx drop
    EXPECT_EQ(w.start, w.end);  // empty serialization window
  });
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 1u);
  EXPECT_EQ(rig.net.fault_counters().tx_drops, 1u);
  EXPECT_EQ(rig.net.fault_counters().rx_drops, 0u);
}

TEST(FaultNet, DeadDestinationDropsAtSwitch) {
  Rig rig;
  net::FaultPlan plan;
  plan.kill_node(rig.nb, us(1));
  rig.net.install_faults(plan);

  rig.net.inject(mk(rig.na, rig.nb));
  rig.sim.schedule(us(2), [&] { rig.net.inject(mk(rig.na, rig.nb)); });
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 1u);
  EXPECT_EQ(rig.net.fault_counters().rx_drops, 1u);
}

TEST(FaultNet, LinkDownWindowDropsThenRecovers) {
  Rig rig;
  net::FaultPlan plan;
  plan.link_down(rig.nb, us(1), us(3));
  rig.net.install_faults(plan);

  rig.sim.schedule(us(2), [&] { rig.net.inject(mk(rig.na, rig.nb)); });  // in window
  rig.sim.schedule(us(4), [&] { rig.net.inject(mk(rig.na, rig.nb)); });  // recovered
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 1u);
  EXPECT_EQ(rig.net.fault_counters().rx_drops, 1u);
}

TEST(FaultNet, SeededDropRateIsDeterministic) {
  auto run = [](std::uint64_t seed) {
    Rig rig;
    net::FaultPlan plan;
    plan.set_drop_rate(0.3);
    plan.set_seed(seed);
    rig.net.install_faults(plan);
    for (int i = 0; i < 1000; ++i) rig.net.inject(mk(rig.na, rig.nb, Bytes(32, 1)));
    rig.sim.run();
    EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
    return std::pair<std::size_t, std::uint64_t>{rig.b.pkts.size(),
                                                 rig.net.fault_counters().random_drops};
  };
  const auto [delivered1, drops1] = run(7);
  const auto [delivered2, drops2] = run(7);
  EXPECT_EQ(delivered1, delivered2);
  EXPECT_EQ(drops1, drops2);
  EXPECT_EQ(delivered1 + drops1, 1000u);
  // ~300 of 1000 at p=0.3; generous envelope, this is not a statistics test.
  EXPECT_GT(drops1, 200u);
  EXPECT_LT(drops1, 400u);
  // A different seed draws a different pattern (astronomically unlikely tie
  // on the exact drop set; allow a tie on the count).
  const auto [delivered3, drops3] = run(8);
  EXPECT_EQ(delivered3 + drops3, 1000u);
}

// Sink that stamps each delivery with its simulated arrival time.
struct TimedRecorder : net::PacketSink {
  sim::Simulator* sim = nullptr;
  std::vector<std::pair<TimePs, net::Packet>> pkts;
  void on_packet(net::Packet&& p) override { pkts.emplace_back(sim->now(), std::move(p)); }
};

TEST(FaultNet, DuplicateDeliversOriginalFirstCopyBehind) {
  // Regression: the duplicated copy used to be handed to the downlink
  // *before* the original, so the copy owned the first serialization
  // window. The original must go first; the copy rides exactly one
  // downlink window behind it.
  sim::Simulator sim;
  net::Network net{sim};
  TimedRecorder a, b;
  a.sim = b.sim = &sim;
  const net::NodeId na = net.add_node(a);
  const net::NodeId nb = net.add_node(b);
  net::FaultPlan plan;
  plan.set_duplicate_rate(1.0);
  net.install_faults(plan);

  net::Packet p = mk(na, nb, Bytes(256, 3));
  p.seq = 7;
  const TimePs ser = net.config().link_bandwidth.transfer_time(p.wire_size());
  net.inject(std::move(p));
  sim.run();
  EXPECT_EQ(net.in_flight_packets(), 0u);

  ASSERT_EQ(b.pkts.size(), 2u);
  EXPECT_EQ(net.fault_counters().duplicates, 1u);
  EXPECT_EQ(b.pkts[0].second.seq, 7u);
  EXPECT_EQ(b.pkts[1].second.seq, 7u);
  EXPECT_EQ(b.pkts[0].second.data, b.pkts[1].second.data);
  EXPECT_LT(b.pkts[0].first, b.pkts[1].first);
  // Back-to-back windows on the shared downlink: the second arrival trails
  // the first by exactly one serialization time.
  EXPECT_EQ(b.pkts[1].first - b.pkts[0].first, ser);
}

TEST(FaultNet, TxReachabilityDecidedAtSerializationStart) {
  // Regression: source reachability used to be decided at injection time,
  // so a packet injected while the node was alive transmitted even if the
  // node died before the uplink queue drained to it. Saturate the uplink
  // at t=0, kill the source mid-queue, and pin the corrected drop count.
  Rig rig;
  net::Packet probe = mk(rig.na, rig.nb, Bytes(1024, 5));
  const TimePs ser = rig.net.config().link_bandwidth.transfer_time(probe.wire_size());
  // Packet i serializes in [i*ser, (i+1)*ser). Kill at exactly 3*ser: the
  // kill boundary is inclusive, so packets 3..7 (queued but not yet on the
  // wire) never transmit even though all 8 were injected while alive.
  net::FaultPlan plan;
  plan.kill_node(rig.na, 3 * ser);
  rig.net.install_faults(plan);
  for (int i = 0; i < 8; ++i) {
    net::Packet p = mk(rig.na, rig.nb, Bytes(1024, 5));
    p.seq = static_cast<std::uint32_t>(i);
    rig.net.inject(std::move(p));
  }
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 3u);
  EXPECT_EQ(rig.net.fault_counters().tx_drops, 5u);
  for (std::size_t i = 0; i < rig.b.pkts.size(); ++i) {
    EXPECT_EQ(rig.b.pkts[i].seq, i);  // survivors are the head of the queue
  }
}

TEST(FaultNet, RestartReadmitsTrafficBothDirections) {
  // Tentpole re-admission: after restart_at, the first packet whose uplink
  // window starts at or after the restart transmits — no re-registration
  // at the network layer. Both roles (revived source, revived destination)
  // recover.
  Rig rig;
  net::FaultPlan plan;
  plan.kill_node(rig.na, us(1));
  plan.restart_at(rig.na, us(5));
  rig.net.install_faults(plan);

  rig.sim.schedule(us(2), [&] { rig.net.inject(mk(rig.na, rig.nb)); });  // dead: tx drop
  rig.sim.schedule(us(3), [&] { rig.net.inject(mk(rig.nb, rig.na)); });  // dead dst: rx drop
  rig.sim.schedule(us(5), [&] { rig.net.inject(mk(rig.na, rig.nb)); });  // revived: delivered
  rig.sim.schedule(us(6), [&] { rig.net.inject(mk(rig.nb, rig.na)); });  // revived: delivered
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 1u);
  EXPECT_EQ(rig.a.pkts.size(), 1u);
  EXPECT_EQ(rig.net.fault_counters().tx_drops, 1u);
  EXPECT_EQ(rig.net.fault_counters().rx_drops, 1u);
}

TEST(FaultNet, MidRunRestartViaFaultsAccessor) {
  // Chaos hooks add restarts mid-run through faults(); a future-dated
  // restart is safe because the plan is queried by time.
  Rig rig;
  net::FaultPlan plan;
  plan.kill_node(rig.na, us(1));
  rig.net.install_faults(plan);
  rig.sim.schedule(us(2), [&] {
    rig.net.faults().restart_at(rig.na, us(4));
    rig.net.inject(mk(rig.na, rig.nb));  // still dead now
  });
  rig.sim.schedule(us(4), [&] { rig.net.inject(mk(rig.na, rig.nb)); });
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 1u);
  EXPECT_EQ(rig.net.fault_counters().tx_drops, 1u);
}

TEST(FaultNet, DuplicateRateDeliversCopies) {
  Rig rig;
  net::FaultPlan plan;
  plan.set_duplicate_rate(1.0);
  rig.net.install_faults(plan);
  for (int i = 0; i < 5; ++i) rig.net.inject(mk(rig.na, rig.nb, Bytes(16, 9)));
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 10u);
  EXPECT_EQ(rig.net.fault_counters().duplicates, 5u);
}

TEST(FaultNet, CorruptionFlipsPayloadBytes) {
  Rig rig;
  net::FaultPlan plan;
  plan.set_corrupt_rate(1.0);
  rig.net.install_faults(plan);
  const Bytes orig(128, 0xAB);
  for (int i = 0; i < 8; ++i) rig.net.inject(mk(rig.na, rig.nb, orig));
  // Empty payloads cannot be corrupted (the draw still happens).
  rig.net.inject(mk(rig.na, rig.nb));
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  ASSERT_EQ(rig.b.pkts.size(), 9u);
  EXPECT_EQ(rig.net.fault_counters().corruptions, 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    const auto& got = rig.b.pkts[i].data;
    ASSERT_EQ(got.size(), orig.size());
    std::size_t diffs = 0;
    for (std::size_t j = 0; j < got.size(); ++j) diffs += got[j] != orig[j];
    EXPECT_EQ(diffs, 1u) << "packet " << i;  // exactly one byte flipped
  }
  EXPECT_TRUE(rig.b.pkts[8].data.empty());
}

TEST(FaultNet, FaultsAccessorArmsAndAllowsMidRunKills) {
  // The chaos-test idiom: hooks add future-dated kills while the sim runs.
  Rig rig;
  rig.net.faults();  // arms an empty plan
  EXPECT_TRUE(rig.net.faults_armed());
  rig.net.inject(mk(rig.na, rig.nb));
  rig.sim.schedule(us(1), [&] {
    rig.net.faults().kill_node(rig.nb, rig.sim.now() + us(1));
    rig.net.inject(mk(rig.na, rig.nb));            // still deliverable
  });
  rig.sim.schedule(us(3), [&] { rig.net.inject(mk(rig.na, rig.nb)); });  // dropped
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 2u);
  EXPECT_EQ(rig.net.fault_counters().rx_drops, 1u);
}

TEST(FaultNet, MutateFaultsLandsOneLinkLatencyLater) {
  // An edit made from event context at t runs as its own event at
  // t + link_latency: reachability queries before that instant still see
  // the old plan, queries after it see the edit. The chaos digests pin
  // this delay.
  Rig rig;
  rig.net.faults();  // arms an empty plan
  const TimePs lat = rig.net.config().link_latency;
  const TimePs t = us(1);
  TimePs applied_at = 0;
  bool in_caller = false, before = false, after = true;
  rig.sim.schedule_at(t, [&] {
    rig.net.mutate_faults([&](net::FaultPlan& plan) {
      applied_at = rig.sim.now();
      plan.kill_node(rig.nb, 0);  // down for all time once applied
    });
    in_caller = rig.net.faults().reachable(rig.nb, rig.sim.now());
  });
  rig.sim.schedule_at(t + lat - 1, [&] { before = rig.net.faults().reachable(rig.nb, t); });
  rig.sim.schedule_at(t + lat + 1, [&] { after = rig.net.faults().reachable(rig.nb, t); });
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(applied_at, t + lat);
  EXPECT_TRUE(in_caller);
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);
}

TEST(FaultNet, InstallResetsCountersAndRng) {
  Rig rig;
  net::FaultPlan plan;
  plan.set_drop_rate(1.0);
  rig.net.install_faults(plan);
  for (int i = 0; i < 3; ++i) rig.net.inject(mk(rig.na, rig.nb));
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.net.fault_counters().random_drops, 3u);
  rig.net.install_faults(net::FaultPlan{});
  EXPECT_EQ(rig.net.fault_counters().random_drops, 0u);
  rig.net.inject(mk(rig.na, rig.nb));
  rig.sim.run();
  EXPECT_EQ(rig.net.in_flight_packets(), 0u);  // every drop released its slot
  EXPECT_EQ(rig.b.pkts.size(), 1u);
}

}  // namespace
}  // namespace nadfs
