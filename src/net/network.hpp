// Packet network: nodes hang off a switch fabric via full-duplex links.
// The topology behind the facade is pluggable (net/topology.hpp): the
// default is the paper's single output-queued star switch (SST config:
// 400 Gbit/s links, 20 ns link latency, MTU 2048 B, DESIGN.md §1), and a
// 2-tier leaf/spine fabric makes real partitions, ECMP spreading and
// per-hop congestion expressible (DESIGN.md §1a).
//
// Timing model per packet (store-and-forward, per hop):
//   uplink serialization (per-source port) + link latency
//   + switch latency + next-port serialization ... + downlink
//   serialization (per-destination port) + link latency.
// Serialization windows are reserved on shared GapServers, so port
// contention (many-to-one incast on a storage node, trunk congestion on a
// fabric) emerges naturally. On the star this is exactly the pre-fabric
// event sequence — star digests are bit-identical to the PR 5 recordings.
#pragma once

#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/rng.hpp"
#include "net/fault.hpp"
#include "net/packet.hpp"
#include "net/topology.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"

namespace nadfs::net {

struct NetworkConfig {
  Bandwidth link_bandwidth = Bandwidth::from_gbps(400.0);
  TimePs link_latency = ns(20);
  TimePs switch_latency = ns(50);
  std::size_t mtu = 2048;  ///< max payload bytes per packet
  /// Switch-level topology. The default star takes the exact pre-fabric
  /// code path; leaf/spine routes per-switch with ECMP trunks.
  Topology topology{};
  /// Finite per-port buffering on *fabric* switch ports (trunks and fabric
  /// downlinks): a packet whose queueing delay at a port would exceed
  /// transfer_time(port_buffer_bytes) is tail-dropped (buffer_drops, per
  /// hop). 0 = unbounded. Ignored on the star, which predates the buffer
  /// model and must stay bit-identical.
  std::size_t port_buffer_bytes = 256 * 1024;
};

/// Per-switch forwarding/drop accounting (fabric hops; the star switch is
/// accounted only through the global fault counters, as before).
struct HopCounters {
  obs::Counter forwarded_pkts;
  obs::Counter forwarded_bytes;
  obs::Counter trunk_drops;   ///< inter-switch link down at this switch
  obs::Counter buffer_drops;  ///< finite port buffer overflowed here
};

class Network {
 public:
  Network(sim::Simulator& simulator, NetworkConfig config = {});

  /// Attach a node; the sink receives packets addressed to it. On a
  /// leaf/spine topology the node lands on leaf `id % leaves` (round-robin
  /// by attach order). If a metric registry is bound, the node's
  /// delivered-bytes cell is registered immediately.
  NodeId add_node(PacketSink& sink);

  std::size_t mtu() const { return config_.mtu; }
  const NetworkConfig& config() const { return config_; }
  const Topology& topology() const { return config_.topology; }
  sim::Simulator& simulator() { return sim_; }

  /// Inject a packet at its source node. Serialization starts no earlier
  /// than `earliest` (used by NICs to order packets after local processing).
  /// Returns the uplink serialization window: `start` is when the wire picks
  /// the packet up, `end` when the uplink is free for the next packet.
  /// With faults armed, source reachability is decided at the window start
  /// (when the wire actually picks the packet up), not at injection time —
  /// a node killed while its packet is still queued never transmits. The
  /// same time-based query re-admits traffic from a revived node
  /// deterministically: the first packet whose window starts at or after
  /// its FaultPlan::restart_at time transmits, no re-registration needed
  /// at this layer (rejoining placement is the failure detector's job).
  sim::Window inject(Packet pkt, TimePs earliest = 0);

  /// Total payload bytes delivered to `node` so far (goodput accounting).
  std::uint64_t delivered_payload_bytes(NodeId node) const;

  /// Per-switch hop counters (valid for 0 <= sw < topology().switch_count()).
  const HopCounters& hop_counters(SwitchId sw) const { return hops_.at(sw); }

  /// Packets parked in flight: injected (or duplicated) and neither
  /// delivered nor dropped yet. 0 once the simulator has drained.
  std::size_t in_flight_packets() const { return flight_.size() - free_slots_.size(); }

  /// Arm a fault plan. Resets the fault counters and reseeds the fault RNG
  /// from the plan. With no plan armed, inject() takes the exact pre-fault
  /// code path (no RNG draws), so fault-free digests are untouched.
  void install_faults(FaultPlan plan);

  /// The armed plan, arming an empty one on first access. Mutable on
  /// purpose: chaos hooks add kills/restarts mid-run (the plan is queried
  /// by time, so future-dated additions are safe).
  FaultPlan& faults();

  /// Mutate the armed plan from *event context*: the edit runs as its own
  /// event one link latency from now, so reachability queries before that
  /// instant still see the old plan. Chaos hooks add future-dated kills
  /// this way from packet-delivery callbacks. The delay is part of the
  /// pinned chaos event order.
  void mutate_faults(std::function<void(FaultPlan&)> fn);

  bool faults_armed() const { return faults_armed_; }
  const FaultCounters& fault_counters() const { return fault_counters_; }

  /// Attach a span tracer: every uplink/trunk/downlink hop (and every
  /// fault drop) is recorded as a span correlated by Packet::user_tag (the
  /// client greq) or msg_id; trunk hops land on the destination node's
  /// track under the trunk lane. nullptr detaches. Pure recording —
  /// attaching never changes event order or digests.
  void set_tracer(obs::SpanTracer* tracer) { tracer_ = tracer; }
  obs::SpanTracer* tracer() const { return tracer_; }

  /// Register the fault counters, per-node delivered-bytes cells and (on a
  /// fabric) per-switch hop counters under `prefix` ("net" ->
  /// "net.faults.tx_drops", "net.node3.delivered_bytes",
  /// "net.switch4.trunk_drops"). The registry is remembered: nodes added
  /// *after* binding get their cells registered by add_node.
  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix);

 private:
  struct NodePort {
    PacketSink* sink;
    std::unique_ptr<sim::GapServer> uplink;    // node -> leaf switch
    std::unique_ptr<sim::GapServer> downlink;  // leaf switch -> node
    std::uint64_t delivered_payload = 0;
  };

  /// In-flight packets live in `flight_` from inject until delivery or a
  /// drop, so hop events capture a slot index instead of a whole Packet
  /// and fit EventFn's inline buffer (DESIGN.md §3j). The vector grows, so
  /// only indices are held across events, never references.
  using Slot = std::uint32_t;
  Slot park(Packet&& pkt);
  void release(Slot slot);

  /// Final-switch egress toward the destination node: destination
  /// reachability + seeded-rate faults, then downlink delivery. This is
  /// the star's at-switch block, shared verbatim by the fabric's last hop.
  void egress_to_node(NodePort* dstp, std::size_t wire, Slot slot);
  void deliver(NodePort* dstp, std::size_t wire, Slot slot);

  /// Fabric hops (multi-switch only).
  void forward_at_leaf(NodePort* dstp, std::size_t wire, Slot slot);
  void forward_at_spine(SwitchId spine, NodePort* dstp, std::size_t wire, Slot slot);
  /// Plan `wire` bytes on a trunk port of `sw`, enforcing the trunk fault
  /// window and the finite buffer; returns false (counted) when dropped.
  bool trunk_transmit(SwitchId sw, SwitchId next, sim::GapServer& port, std::size_t wire,
                      const Packet& pkt, const char* hop_name, sim::Window& out);

  sim::GapServer& trunk(SwitchId leaf, SwitchId spine, bool up);

  sim::Simulator& sim_;
  NetworkConfig config_;
  // deque: NodePort references stay valid when nodes are added later (the
  // deferred downlink reservation captures a pointer into this container).
  std::deque<NodePort> nodes_;
  // Trunk wires, one GapServer per direction per (leaf, spine) pair,
  // indexed leaf * spines + (spine - leaves). Empty on the star.
  std::vector<std::unique_ptr<sim::GapServer>> trunk_up_;
  std::vector<std::unique_ptr<sim::GapServer>> trunk_down_;
  std::vector<HopCounters> hops_;   // one per switch
  TimePs max_port_queue_ = 0;       // transfer_time(port_buffer_bytes); 0 = unbounded
  std::vector<Packet> flight_;      // in-flight packets, by slot
  std::vector<Slot> free_slots_;    // released slots, reused LIFO

  bool faults_armed_ = false;
  FaultPlan plan_;
  FaultCounters fault_counters_;
  Rng fault_rng_{1};
  obs::SpanTracer* tracer_ = nullptr;
  obs::MetricRegistry* metrics_ = nullptr;
  std::string metrics_prefix_;
};

}  // namespace nadfs::net
