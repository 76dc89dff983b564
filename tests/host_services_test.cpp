// Unit tests for the host CPU model, the GapServer reservation allocator,
// the control-plane services, and the client-side ack tracker.
#include <gtest/gtest.h>

#include <optional>

#include "host/cpu.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"
#include "sim/resource.hpp"

namespace nadfs {
namespace {

// ------------------------------------------------------------ GapServer

TEST(GapServer, AppendsWhenInOrder) {
  sim::Simulator sim;
  sim::GapServer srv(sim, Bandwidth::from_gbps(400.0));
  const auto w1 = srv.reserve(1000);
  const auto w2 = srv.reserve(1000);
  EXPECT_EQ(w1.start, 0u);
  EXPECT_EQ(w2.start, w1.end);
}

TEST(GapServer, FillsGapsBeforeFutureReservations) {
  // The property FifoServer lacks: a far-future reservation must not starve
  // an earlier-ready one (the cross-cluster wire artifact).
  sim::Simulator sim;
  sim::GapServer srv(sim, Bandwidth::from_gbps(400.0));
  const auto far = srv.reserve(1000, us(100));
  EXPECT_EQ(far.start, us(100));
  const auto near = srv.reserve(1000, ns(10));
  EXPECT_EQ(near.start, ns(10));  // fits in the idle window before 100 us
  EXPECT_LT(near.end, far.start);
}

TEST(GapServer, SkipsTooSmallGaps) {
  sim::Simulator sim;
  sim::GapServer srv(sim, Bandwidth::from_gbps(400.0));  // 20 ps/B
  srv.reserve_time(ns(10), ns(0));    // busy [0, 10ns)
  srv.reserve_time(ns(10), ns(12));   // busy [12, 22ns)
  // 4 ns job wants t=9: the [10,12) gap is too small; next gap is at 22 ns.
  const auto w = srv.reserve_time(ns(4), ns(9));
  EXPECT_EQ(w.start, ns(22));
}

TEST(GapServer, CoalescesIntervals) {
  sim::Simulator sim;
  sim::GapServer srv(sim, Bandwidth::from_gbps(400.0));
  srv.reserve_time(ns(10), 0);
  srv.reserve_time(ns(10), ns(10));
  srv.reserve_time(ns(10), ns(20));
  EXPECT_EQ(srv.interval_count(), 1u);
  EXPECT_EQ(srv.horizon(), ns(30));
}

TEST(GapServer, ZeroDurationIsFree) {
  sim::Simulator sim;
  sim::GapServer srv(sim, Bandwidth::from_gbps(400.0));
  srv.reserve_time(ns(100), 0);
  const auto w = srv.reserve_time(0, ns(50));
  EXPECT_EQ(w.start, ns(50));
  EXPECT_EQ(w.end, ns(50));
}

TEST(GapServer, NeverReservesInThePast) {
  sim::Simulator sim;
  sim::GapServer srv(sim, Bandwidth::from_gbps(400.0));
  sim.schedule(us(1), [&] {
    const auto w = srv.reserve_time(ns(5), 0);
    EXPECT_GE(w.start, us(1));
  });
  sim.run();
}

// ------------------------------------------------------------- host CPU

TEST(HostCpu, RunFiresAfterCost) {
  sim::Simulator sim;
  host::Cpu cpu(sim);
  TimePs fired = 0;
  cpu.run(ns(500), 0, [&] { fired = sim.now(); });
  sim.run();
  EXPECT_EQ(fired, ns(500));
}

TEST(HostCpu, CoresRunInParallel) {
  sim::Simulator sim;
  host::CpuConfig cfg;
  cfg.cores = 2;
  host::Cpu cpu(sim, cfg);
  const TimePs a = cpu.busy(us(10));
  const TimePs b = cpu.busy(us(10));
  const TimePs c = cpu.busy(us(10));
  EXPECT_EQ(a, us(10));
  EXPECT_EQ(b, us(10));   // second core
  EXPECT_EQ(c, us(20));   // queued behind one of them
}

TEST(HostCpu, CopyChargesMemcpyBandwidth) {
  sim::Simulator sim;
  host::CpuConfig cfg;
  cfg.memcpy_bw = Bandwidth::from_gbytes_per_sec(25.0);  // 40 ps/B
  host::Cpu cpu(sim, cfg);
  EXPECT_EQ(cpu.copy(1 * MiB), TimePs{1024 * 1024 * 40});
  EXPECT_EQ(cpu.memcpy_time(1000), TimePs{40000});
}

TEST(HostCpu, EarliestHonored) {
  sim::Simulator sim;
  host::Cpu cpu(sim);
  EXPECT_EQ(cpu.busy(ns(10), us(3)), us(3) + ns(10));
}

// ---------------------------------------------------- metadata service

using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;

TEST(Metadata, PlainPlacementSingleTarget) {
  Cluster cluster;
  const auto& layout = cluster.metadata().create("a", 4096, FilePolicy{});
  EXPECT_EQ(layout.targets.size(), 1u);
  EXPECT_TRUE(layout.parity.empty());
  EXPECT_EQ(layout.size, 4096u);
}

TEST(Metadata, ReplicationTargetsAreDistinctNodes) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  FilePolicy p;
  p.resiliency = dfs::Resiliency::kReplication;
  p.repl_k = 4;
  const auto& layout = cluster.metadata().create("a", 4096, p);
  std::set<net::NodeId> nodes;
  for (const auto& c : layout.targets) nodes.insert(c.node);
  EXPECT_EQ(nodes.size(), 4u);  // distinct failure domains
}

TEST(Metadata, EcPlacementDisjointDataAndParity) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  Cluster cluster(cfg);
  FilePolicy p;
  p.resiliency = dfs::Resiliency::kErasureCoding;
  p.ec_k = 3;
  p.ec_m = 2;
  const auto& layout = cluster.metadata().create("a", 3000, p);
  EXPECT_EQ(layout.targets.size(), 3u);
  EXPECT_EQ(layout.parity.size(), 2u);
  EXPECT_EQ(layout.chunk_len, 1000u);
  std::set<net::NodeId> nodes;
  for (const auto& c : layout.targets) nodes.insert(c.node);
  for (const auto& c : layout.parity) nodes.insert(c.node);
  EXPECT_EQ(nodes.size(), 5u);
}

TEST(Metadata, RejectsInfeasiblePolicies) {
  Cluster cluster;  // 4 storage nodes
  FilePolicy repl;
  repl.resiliency = dfs::Resiliency::kReplication;
  repl.repl_k = 9;
  EXPECT_THROW(cluster.metadata().create("a", 100, repl), std::invalid_argument);
  FilePolicy ec;
  ec.resiliency = dfs::Resiliency::kErasureCoding;
  ec.ec_k = 4;
  ec.ec_m = 2;
  EXPECT_THROW(cluster.metadata().create("b", 100, ec), std::invalid_argument);
}

TEST(Metadata, DuplicateNameRejected) {
  Cluster cluster;
  cluster.metadata().create("a", 100, FilePolicy{});
  EXPECT_THROW(cluster.metadata().create("a", 100, FilePolicy{}), std::invalid_argument);
}

TEST(Metadata, LookupFindsCreated) {
  Cluster cluster;
  const auto& layout = cluster.metadata().create("x/y", 100, FilePolicy{});
  const auto* found = cluster.metadata().lookup("x/y");
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->object_id, layout.object_id);
  EXPECT_EQ(cluster.metadata().lookup("nope"), nullptr);
}

TEST(Metadata, GrantCoversAllTargets) {
  ClusterConfig cfg;
  cfg.storage_nodes = 3;
  Cluster cluster(cfg);
  FilePolicy p;
  p.resiliency = dfs::Resiliency::kReplication;
  p.repl_k = 3;
  const auto& layout = cluster.metadata().create("a", 8192, p);
  const auto cap = cluster.metadata().grant(5, layout, auth::Right::kWrite);
  const auto& authority = cluster.management().authority();
  for (const auto& c : layout.targets) {
    EXPECT_TRUE(authority.verify(cap, 0, auth::Right::kWrite, c.addr, layout.size))
        << "target node " << c.node;
  }
}

TEST(Metadata, AllocationsDoNotOverlapOnANode) {
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  Cluster cluster(cfg);
  const auto& a = cluster.metadata().create("a", 5000, FilePolicy{});
  const auto& b = cluster.metadata().create("b", 5000, FilePolicy{});
  // Same node; extents disjoint.
  EXPECT_EQ(a.targets[0].node, b.targets[0].node);
  const auto lo = std::min(a.targets[0].addr, b.targets[0].addr);
  const auto hi = std::max(a.targets[0].addr, b.targets[0].addr);
  EXPECT_GE(hi - lo, 5000u);
}

// ------------------------------------------------------------ tracker

TEST(AckTracker, CountsAcksToCompletion) {
  services::AckTracker tracker;
  bool done = false;
  dfs::DfsError seen = dfs::DfsError::kTimeout;
  tracker.expect(1, 3, [&](dfs::DfsError err, TimePs) {
    done = true;
    seen = err;
  });
  // Feed acks directly through the handler path: install on a throwaway rig.
  sim::Simulator sim;
  net::Network net(sim);
  storage::Target mem(sim);
  rdma::Nic nic(sim, net, mem);
  tracker.install(nic);

  net::Packet ack;
  ack.opcode = net::Opcode::kAck;
  ack.user_tag = 1;
  for (int i = 0; i < 2; ++i) {
    auto copy = ack;
    nic.on_packet(std::move(copy));
    EXPECT_FALSE(done);
  }
  auto last = ack;
  nic.on_packet(std::move(last));
  EXPECT_TRUE(done);
  EXPECT_EQ(seen, dfs::DfsError::kOk);
  EXPECT_FALSE(tracker.pending(1));
  EXPECT_EQ(tracker.late_acks(), 0u);
  EXPECT_EQ(tracker.stray_nacks(), 0u);
}

TEST(AckTracker, NackFailsImmediately) {
  services::AckTracker tracker;
  sim::Simulator sim;
  net::Network net(sim);
  storage::Target mem(sim);
  rdma::Nic nic(sim, net, mem);
  tracker.install(nic);

  bool done = false;
  dfs::DfsError seen = dfs::DfsError::kOk;
  tracker.expect(2, 5, [&](dfs::DfsError err, TimePs) {
    done = true;
    seen = err;
  });
  // A NACK without a code (raddr 0) still fails the op, as kDenied.
  net::Packet nack;
  nack.opcode = net::Opcode::kNack;
  nack.user_tag = 2;
  nic.on_packet(std::move(nack));
  EXPECT_TRUE(done);
  EXPECT_EQ(seen, dfs::DfsError::kDenied);
  EXPECT_EQ(tracker.stray_nacks(), 0u);
}

TEST(AckTracker, UnknownTagIgnoredButCounted) {
  services::AckTracker tracker;
  sim::Simulator sim;
  net::Network net(sim);
  storage::Target mem(sim);
  rdma::Nic nic(sim, net, mem);
  tracker.install(nic);
  net::Packet ack;
  ack.opcode = net::Opcode::kAck;
  ack.user_tag = 99;
  EXPECT_NO_THROW(nic.on_packet(std::move(ack)));
  EXPECT_EQ(tracker.late_acks(), 1u);
  net::Packet nack;
  nack.opcode = net::Opcode::kNack;
  nack.user_tag = 98;
  EXPECT_NO_THROW(nic.on_packet(std::move(nack)));
  EXPECT_EQ(tracker.stray_nacks(), 1u);
}

TEST(AckTracker, CancelDropsOp) {
  services::AckTracker tracker;
  tracker.expect(3, 1, [](dfs::DfsError, TimePs) { FAIL() << "cancelled op completed"; });
  tracker.cancel(3);
  EXPECT_FALSE(tracker.pending(3));
}

TEST(AckTracker, ReExpectOfPendingTagIsHardError) {
  services::AckTracker tracker;
  bool first_fired = false;
  tracker.expect(7, 1, [&](dfs::DfsError, TimePs) { first_fired = true; });
  // Silent overwrite would orphan the first callback; it must throw instead.
  EXPECT_THROW(tracker.expect(7, 1, [](dfs::DfsError, TimePs) {}), std::logic_error);
  EXPECT_TRUE(tracker.pending(7));
  EXPECT_FALSE(first_fired);  // the original op is untouched
  // A *completed* tag is free for reuse.
  tracker.cancel(7);
  EXPECT_NO_THROW(tracker.expect(7, 1, [](dfs::DfsError, TimePs) {}));
}

TEST(AckTracker, ReplaceSupersedesPendingOp) {
  services::AckTracker tracker;
  sim::Simulator sim;
  net::Network net(sim);
  storage::Target mem(sim);
  rdma::Nic nic(sim, net, mem);
  tracker.install(nic);

  tracker.expect(8, 1, [](dfs::DfsError, TimePs) { FAIL() << "replaced op completed"; });
  bool done = false;
  tracker.replace(8, 1, [&](dfs::DfsError, TimePs) { done = true; });
  EXPECT_EQ(tracker.replaced_ops(), 1u);
  EXPECT_EQ(tracker.pending_count(), 1u);

  net::Packet ack;
  ack.opcode = net::Opcode::kAck;
  ack.user_tag = 8;
  nic.on_packet(std::move(ack));
  EXPECT_TRUE(done);

  // replace() on a free tag is just expect().
  tracker.replace(9, 1, [](dfs::DfsError, TimePs) {});
  EXPECT_EQ(tracker.replaced_ops(), 1u);
  EXPECT_TRUE(tracker.pending(9));
}

TEST(AckTracker, TakeHandsBackTheCallback) {
  services::AckTracker tracker;
  dfs::DfsError seen = dfs::DfsError::kOk;
  tracker.expect(4, 2, [&](dfs::DfsError err, TimePs) { seen = err; });
  auto cb = tracker.take(4);
  ASSERT_TRUE(cb.has_value());
  EXPECT_FALSE(tracker.pending(4));
  // take() hands back the registered callback; the timeout path fires it
  // with kTimeout.
  (*cb)(dfs::DfsError::kTimeout, 0);
  EXPECT_EQ(seen, dfs::DfsError::kTimeout);
  EXPECT_FALSE(tracker.take(4).has_value());
}

TEST(AckTracker, NackDeliversTypedWireError) {
  services::AckTracker tracker;
  sim::Simulator sim;
  net::Network net(sim);
  storage::Target mem(sim);
  rdma::Nic nic(sim, net, mem);
  tracker.install(nic);

  // The typed error rides the NACK's raddr field.
  dfs::DfsError seen = dfs::DfsError::kOk;
  tracker.expect(11, 1, [&](dfs::DfsError err, TimePs) { seen = err; });
  net::Packet nack;
  nack.opcode = net::Opcode::kNack;
  nack.user_tag = 11;
  nack.raddr = static_cast<std::uint64_t>(dfs::DfsError::kNotFound);
  nic.on_packet(std::move(nack));
  EXPECT_EQ(seen, dfs::DfsError::kNotFound);

  // raddr == 0 is kOk, which no NACK may carry: input validation maps it
  // to kDenied so a NACK can never complete an op successfully.
  seen = dfs::DfsError::kOk;
  tracker.expect(12, 1, [&](dfs::DfsError err, TimePs) { seen = err; });
  net::Packet zero;
  zero.opcode = net::Opcode::kNack;
  zero.user_tag = 12;
  ASSERT_EQ(zero.raddr, 0u);
  nic.on_packet(std::move(zero));
  EXPECT_EQ(seen, dfs::DfsError::kDenied);

  // Out-of-range codes (corrupt or future peer) degrade to kDenied rather
  // than forging an enum value.
  tracker.expect(13, 1, [&](dfs::DfsError err, TimePs) { seen = err; });
  net::Packet weird;
  weird.opcode = net::Opcode::kNack;
  weird.user_tag = 13;
  weird.raddr = 0xFFu;
  nic.on_packet(std::move(weird));
  EXPECT_EQ(seen, dfs::DfsError::kDenied);
}

TEST(AckTracker, BadRkeyHostPathWriteNacksAsDenied) {
  // A raw RDMA write with a bad rkey is rejected by the target NIC's host
  // path. The NACK carries kDenied explicitly in raddr, and the writer's
  // ack tracker surfaces it as kDenied.
  sim::Simulator sim;
  net::Network net(sim);
  storage::Target writer_mem(sim);
  storage::Target target_mem(sim);
  rdma::Nic writer(sim, net, writer_mem);
  rdma::Nic target(sim, net, target_mem);
  const std::uint32_t bad_rkey = target.register_mr(0, 64 * KiB) + 100;

  // First write: capture the NACK as it arrives off the wire.
  std::optional<net::Packet> wire;
  writer.set_control_handler([&](const net::Packet& pkt, TimePs) { wire = pkt; });
  writer.post_write(target.id(), 0x100, bad_rkey, Bytes(4000, 7), [](TimePs) {
    ADD_FAILURE() << "a rejected write must not complete";
  });
  sim.run();
  ASSERT_TRUE(wire.has_value());
  EXPECT_EQ(wire->opcode, net::Opcode::kNack);
  EXPECT_EQ(wire->raddr, static_cast<std::uint64_t>(dfs::DfsError::kDenied));

  // Second write through the tracker. The NACK is tagged with the write's
  // msg_id, which the writer NIC allocates sequentially.
  services::AckTracker tracker;
  tracker.install(writer);
  dfs::DfsError seen = dfs::DfsError::kOk;
  bool done = false;
  tracker.expect(wire->user_tag + 1, 1, [&](dfs::DfsError err, TimePs) {
    seen = err;
    done = true;
  });
  writer.post_write(target.id(), 0x100, bad_rkey, Bytes(4000, 8), [](TimePs) {
    ADD_FAILURE() << "a rejected write must not complete";
  });
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(seen, dfs::DfsError::kDenied);
  EXPECT_EQ(target_mem.read(0x100, 4), Bytes(4, 0));  // nothing landed
}

TEST(Client, GreqIdsGloballyUnique) {
  ClusterConfig cfg;
  cfg.clients = 2;
  Cluster cluster(cfg);
  services::Client c0(cluster, 0), c1(cluster, 1);
  std::set<std::uint64_t> ids;
  for (int i = 0; i < 100; ++i) {
    ids.insert(c0.next_greq());
    ids.insert(c1.next_greq());
  }
  EXPECT_EQ(ids.size(), 200u);
}

TEST(Client, GreqSequenceWrapsWithoutBleedingIntoClientId) {
  // Regression: the sequence counter is 64-bit, so after 2^32 requests the
  // unmasked `(id << 32) | seq` bled into the client-id bits — client 1's
  // greq collided with client 2's greq 0. The sequence must wrap back to 1
  // (skipping 0) with the id bits intact.
  ClusterConfig cfg;
  cfg.clients = 2;
  Cluster cluster(cfg);
  services::Client c0(cluster, 0), c1(cluster, 1);

  c0.debug_set_next_seq(0xFFFFFFFFull);
  const auto last = c0.next_greq();
  EXPECT_EQ(last >> 32, c0.client_id());
  EXPECT_EQ(last & 0xFFFFFFFFull, 0xFFFFFFFFull);

  const auto wrapped = c0.next_greq();  // sequence would be 2^32
  EXPECT_EQ(wrapped >> 32, c0.client_id());  // high bits untouched
  EXPECT_EQ(wrapped & 0xFFFFFFFFull, 1u);    // explicit wrap, 0 skipped
  // The old unmasked increment produced (c0_id + 1) << 32 here — a greq
  // belonging to client-id space c0_id + 1.
  EXPECT_NE(wrapped >> 32, c0.client_id() + 1);
  // And even past the boundary, ids from the two clients stay disjoint.
  std::set<std::uint64_t> ids;
  c1.debug_set_next_seq(1);
  for (int i = 0; i < 16; ++i) {
    ids.insert(c0.next_greq());
    ids.insert(c1.next_greq());
  }
  EXPECT_EQ(ids.size(), 32u);
}

TEST(Client, AcksForMatchesPolicy) {
  services::FileLayout plain;
  EXPECT_EQ(services::Client::acks_for(plain), 1u);
  services::FileLayout repl;
  repl.policy.resiliency = dfs::Resiliency::kReplication;
  repl.policy.repl_k = 4;
  EXPECT_EQ(services::Client::acks_for(repl), 4u);
  services::FileLayout ec;
  ec.policy.resiliency = dfs::Resiliency::kErasureCoding;
  ec.policy.ec_k = 6;
  ec.policy.ec_m = 3;
  EXPECT_EQ(services::Client::acks_for(ec), 9u);
}

TEST(Interleave, RoundRobinAcrossTrains) {
  std::vector<std::vector<net::Packet>> trains(3);
  for (unsigned t = 0; t < 3; ++t) {
    for (unsigned i = 0; i < (t == 2 ? 1u : 2u); ++i) {
      net::Packet p;
      p.msg_id = t;
      p.seq = i;
      trains[t].push_back(std::move(p));
    }
  }
  const auto out = services::interleave(std::move(trains));
  ASSERT_EQ(out.size(), 5u);
  EXPECT_EQ(out[0].msg_id, 0u);
  EXPECT_EQ(out[1].msg_id, 1u);
  EXPECT_EQ(out[2].msg_id, 2u);
  EXPECT_EQ(out[3].msg_id, 0u);
  EXPECT_EQ(out[4].msg_id, 1u);
}

}  // namespace
}  // namespace nadfs
