#include "rdma/nic.hpp"

#include "dfs/wire.hpp"

#include <algorithm>
#include <stdexcept>

namespace nadfs::rdma {

Nic::Nic(sim::Simulator& simulator, net::Network& network, storage::Target& memory,
         NicConfig config)
    : sim_(simulator),
      net_(network),
      memory_(memory),
      config_(config),
      id_(network.add_node(*this)),
      pcie_(simulator, config.pcie_bandwidth) {}

void Nic::attach_pspin(pspin::PsPinDevice& device) {
  pspin_ = &device;
  device.attach_nic(*this);
}

std::uint32_t Nic::register_mr(std::uint64_t base, std::uint64_t len) {
  const std::uint32_t rkey = next_rkey_++;
  mrs_[rkey] = MR{base, len};
  return rkey;
}

bool Nic::rkey_valid(std::uint32_t rkey, std::uint64_t addr, std::uint64_t len) const {
  // rkey 0 is the internal "no protection" key used by NIC-originated
  // forwards (replication hops, read responses); remote-originated accesses
  // use registered keys.
  if (rkey == 0) return true;
  auto it = mrs_.find(rkey);
  if (it == mrs_.end()) return false;
  return addr >= it->second.base && addr + len <= it->second.base + it->second.len;
}

std::vector<net::Packet> Nic::packetize_write(net::NodeId dst, std::uint64_t raddr,
                                              std::uint32_t rkey, ByteSpan data,
                                              std::uint64_t msg_id,
                                              std::uint64_t user_tag) const {
  const std::size_t mtu = net_.mtu();
  const auto count = static_cast<std::uint32_t>(std::max<std::size_t>(1, (data.size() + mtu - 1) / mtu));
  std::vector<net::Packet> pkts;
  pkts.reserve(count);
  std::size_t off = 0;
  for (std::uint32_t s = 0; s < count; ++s) {
    net::Packet p;
    p.src = id_;
    p.dst = dst;
    p.opcode = net::Opcode::kRdmaWrite;
    p.msg_id = msg_id;
    p.seq = s;
    p.pkt_count = count;
    p.raddr = raddr + off;
    p.rkey = rkey;
    p.user_tag = user_tag;
    const std::size_t n = std::min(mtu, data.size() - off);
    p.data.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                  data.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    pkts.push_back(std::move(p));
  }
  return pkts;
}

void Nic::post_write(net::NodeId dst, std::uint64_t raddr, std::uint32_t rkey, Bytes data,
                     WriteCb cb, std::uint64_t user_tag) {
  const std::uint64_t msg_id = alloc_msg_id();
  pending_writes_[msg_id] = std::move(cb);
  auto pkts = packetize_write(dst, raddr, rkey, data, msg_id, user_tag);
  const std::uint64_t total = data.size();
  const TimePs t0 = sim_.now() + config_.doorbell_latency;
  TimePs dma_end = t0;
  for (auto& p : pkts) {
    // NIC fetches each packet's payload from host memory before injecting.
    const auto w = pcie_.reserve(p.data.size(), t0);
    dma_end = w.end + config_.pcie_latency;
    net_.inject(std::move(p), dma_end);
  }
  if (obs::kObsEnabled && tracer_)
    tracer_->record({id_, obs::kLaneNicDma, "dma", "post_write",
                     user_tag != 0 ? user_tag : msg_id, msg_id, 0, total, sim_.now(), dma_end});
}

void Nic::post_read(net::NodeId dst, std::uint64_t raddr, std::uint32_t rkey, std::uint32_t len,
                    ReadCb cb) {
  const std::uint64_t msg_id = alloc_msg_id();
  PendingRead pr;
  pr.data.assign(len, 0);
  pr.expected = static_cast<std::uint32_t>(std::max<std::size_t>(1, (len + net_.mtu() - 1) / net_.mtu()));
  pr.cb = std::move(cb);
  pending_reads_[msg_id] = std::move(pr);

  net::Packet p;
  p.src = id_;
  p.dst = dst;
  p.opcode = net::Opcode::kRdmaRead;
  p.msg_id = msg_id;
  p.raddr = raddr;
  p.rkey = rkey;
  p.read_len = len;
  p.user_tag = msg_id;
  net_.inject(std::move(p), sim_.now() + config_.doorbell_latency);
}

void Nic::post_send(net::NodeId dst, std::uint64_t tag, Bytes data) {
  const std::uint64_t msg_id = alloc_msg_id();
  auto pkts = packetize_write(dst, 0, 0, data, msg_id, tag);
  const TimePs t0 = sim_.now() + config_.doorbell_latency;
  for (auto& p : pkts) {
    p.opcode = net::Opcode::kSend;
    const auto w = pcie_.reserve(p.data.size(), t0);
    net_.inject(std::move(p), w.end + config_.pcie_latency);
  }
}

void Nic::post_message(std::vector<net::Packet> pkts) {
  const std::uint64_t corr = pkts.empty() ? 0 : pkts.front().user_tag;
  const std::uint64_t msg = pkts.empty() ? 0 : pkts.front().msg_id;
  const TimePs t0 = sim_.now() + config_.doorbell_latency;
  TimePs dma_end = t0;
  std::uint64_t total = 0;
  for (auto& p : pkts) {
    p.src = id_;
    total += p.data.size();
    const auto w = pcie_.reserve(p.data.size(), t0);
    dma_end = w.end + config_.pcie_latency;
    net_.inject(std::move(p), dma_end);
  }
  if (obs::kObsEnabled && tracer_)
    tracer_->record({id_, obs::kLaneNicDma, "dma", "post_message", corr != 0 ? corr : msg, msg, 0,
                     total, sim_.now(), dma_end});
}

void Nic::post_triggered_write(TriggeredWrite trigger) { triggers_.push_back(trigger); }

void Nic::post_control(net::NodeId dst, net::Opcode opcode, std::uint64_t tag,
                       TimePs earliest, std::uint64_t code) {
  net::Packet p;
  p.src = id_;
  p.dst = dst;
  p.opcode = opcode;
  p.msg_id = alloc_msg_id();
  p.user_tag = tag;
  p.raddr = code;
  net_.inject(std::move(p), std::max(earliest, sim_.now() + config_.doorbell_latency));
}

void Nic::expect_read_response(std::uint64_t tag, std::uint32_t len, ReadCb cb) {
  PendingRead pr;
  pr.data.assign(len, 0);
  pr.expected =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, (len + net_.mtu() - 1) / net_.mtu()));
  pr.cb = std::move(cb);
  pending_reads_[tag] = std::move(pr);
}

bool Nic::cancel_read(std::uint64_t tag) { return pending_reads_.erase(tag) != 0; }

// ---- spin::NicServices ------------------------------------------------

sim::Window Nic::egress_send(net::Packet pkt, TimePs ready) {
  pkt.src = id_;
  const std::uint64_t corr = pkt.user_tag != 0 ? pkt.user_tag : pkt.msg_id;
  const std::uint64_t msg = pkt.msg_id;
  const std::uint32_t seq = pkt.seq;
  const std::uint64_t bytes = pkt.data.size();
  const char* name = net::opcode_name(pkt.opcode);
  const auto w = net_.inject(std::move(pkt), ready);
  if (obs::kObsEnabled && tracer_)
    tracer_->record({id_, obs::kLaneEgress, "egress", name, corr, msg, seq, bytes, ready, w.end});
  return w;
}

TimePs Nic::dma_to_storage(std::uint64_t addr, Bytes data, TimePs ready) {
  const std::uint64_t bytes = data.size();
  const auto w = pcie_.reserve(data.size(), ready);
  const TimePs durable = memory_.write(addr, data, w.end + config_.pcie_latency);
  if (obs::kObsEnabled && tracer_)
    tracer_->record({id_, obs::kLaneNicDma, "dma", "dma_to_storage", 0, 0, 0, bytes, w.start,
                     durable});
  return durable;
}

void Nic::bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
  reg.counter_cell(prefix + ".late_read_packets", &late_read_packets_);
  reg.counter_cell(prefix + ".steered_to_host", &steered_to_host_);
  reg.gauge(prefix + ".pending_reads",
            [this] { return static_cast<long long>(pending_reads_.size()); });
  reg.gauge(prefix + ".pending_writes",
            [this] { return static_cast<long long>(pending_writes_.size()); });
  reg.gauge(prefix + ".armed_triggers",
            [this] { return static_cast<long long>(triggers_.size()); });
}

std::pair<Bytes, TimePs> Nic::dma_from_storage(std::uint64_t addr, std::size_t len,
                                               TimePs ready) {
  // The storage engine prices the media side of the read (queueing on the
  // device budget + read amplification); the PCIe hop starts once the
  // medium has the bytes. The line-rate engine returns `ready` unchanged,
  // keeping this path bit-identical to the pre-engine model.
  auto r = memory_.read_at(addr, len, ready);
  const auto w = pcie_.reserve(len, r.ready + config_.pcie_latency);
  return {std::move(r.data), w.end + config_.pcie_latency};
}

Bytes Nic::peek_storage(std::uint64_t addr, std::size_t len) { return memory_.read(addr, len); }

TimePs Nic::trim_storage(std::uint64_t addr, std::uint64_t len, TimePs ready) {
  // Trim is a metadata-sized command: PCIe latency, no payload DMA burst.
  const auto w = pcie_.reserve(0, ready);
  const TimePs durable = memory_.trim(addr, len, w.end + config_.pcie_latency);
  if (obs::kObsEnabled && tracer_)
    tracer_->record({id_, obs::kLaneNicDma, "dma", "trim_storage", 0, 0, 0, len, w.start, durable});
  return durable;
}

bool Nic::storage_trimmed(std::uint64_t addr, std::uint64_t len) {
  return memory_.trimmed(addr, len);
}

void Nic::notify_host(std::uint64_t code, std::uint64_t arg, TimePs when) {
  const TimePs at = when + config_.pcie_latency;
  sim_.schedule_at(std::max(at, sim_.now()), [this, code, arg, at]() {
    if (host_event_handler_) host_event_handler_(code, arg, at);
  });
}

// ---- receive path -------------------------------------------------------

void Nic::on_packet(net::Packet&& pkt) {
  switch (pkt.opcode) {
    case net::Opcode::kRdmaWrite:
      if (pspin_ && pspin_->installed()) {
        // Overload steering (§III-C): admit new messages to PsPIN only
        // while its backlog is under the limit; packets of messages already
        // being steered to the host must keep following them.
        const std::uint64_t key = assembly_key(pkt.src, pkt.msg_id);
        const bool following_host = rx_dfs_.count(key) != 0;
        bool overloaded = dfs_request_handler_ && pspin_backlog_limit_ != 0 && pkt.first() &&
                          pspin_->live_messages() >= pspin_backlog_limit_;
        if (overloaded) {
          // EC parity contributions are never steered while PsPIN is up:
          // all k streams of one request must aggregate in the same plane.
          try {
            const auto req = dfs::parse_request(pkt.data);
            if (req.dfs.op == dfs::OpType::kWrite &&
                req.wrh.resiliency == dfs::Resiliency::kErasureCoding &&
                req.wrh.role == dfs::EcRole::kParity) {
              overloaded = false;
            }
          } catch (const std::out_of_range&) {
            // unparsable: let PsPIN's own handler deny it
            overloaded = false;
          }
        }
        if (!following_host && !overloaded) {
          pspin_->on_packet(std::move(pkt));
        } else {
          host_path_dfs_request(std::move(pkt));
        }
      } else if (dfs_request_handler_) {
        // CPU-mode DFS node (Fig. 1b with the DFS wire format): every
        // incoming request lands on the host command queue.
        host_path_dfs_request(std::move(pkt));
      } else {
        host_path_write(std::move(pkt));
      }
      return;
    case net::Opcode::kRdmaRead:
      host_path_read_request(pkt);
      return;
    case net::Opcode::kRdmaReadResp: {
      auto it = pending_reads_.find(pkt.user_tag);
      if (it == pending_reads_.end()) {
        // Stragglers for a read that was cancelled (deadline expiry) or
        // already assembled: dropped by design, but visible.
        ++late_read_packets_;
        return;
      }
      PendingRead& pr = it->second;
      const std::size_t off = static_cast<std::size_t>(pkt.seq) * net_.mtu();
      std::copy(pkt.data.begin(), pkt.data.end(),
                pr.data.begin() + static_cast<std::ptrdiff_t>(off));
      pr.arrived++;
      if (pr.arrived == pr.expected) {
        // Land the response in host memory before completing.
        const auto w = pcie_.reserve(pr.data.size(), sim_.now());
        const TimePs done = w.end + config_.pcie_latency;
        auto cb = std::move(pr.cb);
        auto data = std::move(pr.data);
        pending_reads_.erase(it);
        sim_.schedule_at(done, [cb = std::move(cb), data = std::move(data), done]() mutable {
          cb(std::move(data), done);
        });
      }
      return;
    }
    case net::Opcode::kSend:
      host_path_send(std::move(pkt));
      return;
    case net::Opcode::kTransportAck: {
      auto it = pending_writes_.find(pkt.user_tag);
      if (it == pending_writes_.end()) return;
      auto cb = std::move(it->second);
      pending_writes_.erase(it);
      if (cb) cb(sim_.now());
      return;
    }
    case net::Opcode::kAck:
    case net::Opcode::kNack:
      if (obs::kObsEnabled && tracer_)
        tracer_->record({id_, obs::kLaneAck, "ack",
                         pkt.opcode == net::Opcode::kAck ? "ack" : "nack", pkt.user_tag,
                         pkt.msg_id, pkt.seq, 0, sim_.now(), sim_.now()});
      if (control_handler_) control_handler_(pkt, sim_.now());
      return;
  }
}

void Nic::host_path_write(net::Packet&& pkt) {
  if (!rkey_valid(pkt.rkey, pkt.raddr, pkt.data.size())) {
    if (pkt.first()) {
      net::Packet nack;
      nack.src = id_;
      nack.dst = pkt.src;
      nack.opcode = net::Opcode::kNack;
      nack.msg_id = alloc_msg_id();
      nack.user_tag = pkt.msg_id;
      nack.raddr = static_cast<std::uint64_t>(dfs::DfsError::kDenied);  // bad rkey
      net_.inject(std::move(nack), sim_.now());
    }
    return;
  }

  const std::uint64_t key = assembly_key(pkt.src, pkt.msg_id);
  Assembly& as = rx_writes_[key];
  as.expected = pkt.pkt_count;
  if (pkt.first()) {
    as.first_raddr = pkt.raddr;
    as.user_tag = pkt.user_tag;
  }
  const TimePs t = sim_.now() + config_.rx_processing;
  const auto w = pcie_.reserve(pkt.data.size(), t);
  const TimePs durable = memory_.write(pkt.raddr, pkt.data, w.end + config_.pcie_latency);
  as.durable_max = std::max(as.durable_max, durable);
  as.total_len += pkt.data.size();
  as.arrived++;

  if (as.arrived == as.expected) {
    // Transport-level ack back to the initiator once everything is durable.
    net::Packet ack;
    ack.src = id_;
    ack.dst = pkt.src;
    ack.opcode = net::Opcode::kTransportAck;
    ack.msg_id = alloc_msg_id();
    ack.user_tag = pkt.msg_id;
    net_.inject(std::move(ack), as.durable_max);

    if (write_notify_) {
      const Assembly snapshot = as;
      const net::NodeId src = pkt.src;
      const std::uint64_t msg_id = pkt.msg_id;
      sim_.schedule_at(snapshot.durable_max, [this, src, msg_id, snapshot]() {
        write_notify_(src, msg_id, snapshot.user_tag, snapshot.first_raddr, snapshot.total_len,
                      snapshot.durable_max);
      });
    }

    // Triggered operations (HyperLoop): fire the first armed trigger whose
    // tag matches this message.
    for (auto it = triggers_.begin(); it != triggers_.end(); ++it) {
      if (it->trigger_tag == as.user_tag) {
        const TriggeredWrite trig = *it;
        const Assembly snapshot = as;
        triggers_.erase(it);
        fire_trigger(trig, snapshot, snapshot.durable_max);
        break;
      }
    }
    rx_writes_.erase(key);
  }
}

void Nic::fire_trigger(const TriggeredWrite& trig, const Assembly& as, TimePs when) {
  const TimePs t = when + config_.trigger_processing;
  if (trig.next_dst == net::kInvalidNode) {
    // Tail of the chain: complete the operation toward the client.
    net::Packet ack;
    ack.src = id_;
    ack.dst = trig.ack_to;
    ack.opcode = net::Opcode::kAck;
    ack.msg_id = alloc_msg_id();
    ack.user_tag = trig.ack_tag;
    net_.inject(std::move(ack), t);
    return;
  }
  // Forward: bounce the received data back out of host memory (the
  // through-PCIe cost sPIN-side forwarding avoids).
  const Bytes data = memory_.read(as.first_raddr, static_cast<std::size_t>(as.total_len));
  auto pkts = packetize_write(trig.next_dst, trig.next_raddr, trig.next_rkey, data,
                              alloc_msg_id(), trig.trigger_tag);
  for (auto& p : pkts) {
    const auto w = pcie_.reserve(p.data.size(), t);
    net_.inject(std::move(p), w.end + config_.pcie_latency);
  }
}

void Nic::host_path_dfs_request(net::Packet&& pkt) {
  // Assemble the DFS-formatted request into host memory and hand it to the
  // DFS software's command queue, preserving packet order by data offset.
  const std::uint64_t key = assembly_key(pkt.src, pkt.msg_id);
  Assembly& as = rx_dfs_[key];
  if (as.arrived == 0) ++steered_to_host_;
  as.expected = pkt.pkt_count;
  if (as.parts.empty()) as.parts.resize(pkt.pkt_count);

  const TimePs t = sim_.now() + config_.rx_processing;
  const auto w = pcie_.reserve(pkt.data.size(), t);
  as.durable_max = std::max(as.durable_max, w.end + config_.pcie_latency);
  as.total_len += pkt.data.size();
  as.parts[pkt.seq] = std::move(pkt.data);
  as.arrived++;

  if (as.arrived == as.expected) {
    Bytes msg;
    msg.reserve(static_cast<std::size_t>(as.total_len));
    for (auto& part : as.parts) msg.insert(msg.end(), part.begin(), part.end());
    const net::NodeId src = pkt.src;
    const std::uint64_t msg_id = pkt.msg_id;
    const TimePs at = as.durable_max;
    rx_dfs_.erase(key);
    sim_.schedule_at(at, [this, src, msg_id, msg = std::move(msg), at]() mutable {
      if (dfs_request_handler_) dfs_request_handler_(src, msg_id, std::move(msg), at);
    });
  }
}

void Nic::host_path_read_request(const net::Packet& pkt) {
  if (!rkey_valid(pkt.rkey, pkt.raddr, pkt.read_len)) {
    net::Packet nack;
    nack.src = id_;
    nack.dst = pkt.src;
    nack.opcode = net::Opcode::kNack;
    nack.msg_id = alloc_msg_id();
    nack.user_tag = pkt.user_tag;
    nack.raddr = static_cast<std::uint64_t>(dfs::DfsError::kDenied);  // bad rkey
    net_.inject(std::move(nack), sim_.now());
    return;
  }
  const TimePs t0 = sim_.now() + config_.rx_processing;
  auto r = memory_.read_at(pkt.raddr, pkt.read_len, t0);
  const TimePs t = r.ready;
  const Bytes data = std::move(r.data);
  const std::size_t mtu = net_.mtu();
  const auto count =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, (data.size() + mtu - 1) / mtu));
  std::size_t off = 0;
  for (std::uint32_t s = 0; s < count; ++s) {
    net::Packet p;
    p.src = id_;
    p.dst = pkt.src;
    p.opcode = net::Opcode::kRdmaReadResp;
    p.msg_id = alloc_msg_id();
    p.seq = s;
    p.pkt_count = count;
    p.user_tag = pkt.user_tag;
    const std::size_t n = std::min(mtu, data.size() - off);
    p.data.assign(data.begin() + static_cast<std::ptrdiff_t>(off),
                  data.begin() + static_cast<std::ptrdiff_t>(off + n));
    off += n;
    const auto w = pcie_.reserve(p.data.size(), t + config_.pcie_latency);
    net_.inject(std::move(p), w.end + config_.pcie_latency);
  }
}

void Nic::host_path_send(net::Packet&& pkt) {
  const std::uint64_t key = assembly_key(pkt.src, pkt.msg_id);
  Assembly& as = rx_sends_[key];
  as.expected = pkt.pkt_count;
  as.user_tag = pkt.user_tag;
  if (as.parts.empty()) as.parts.resize(pkt.pkt_count);

  const TimePs t = sim_.now() + config_.rx_processing;
  const auto w = pcie_.reserve(pkt.data.size(), t);
  as.durable_max = std::max(as.durable_max, w.end + config_.pcie_latency);
  as.total_len += pkt.data.size();
  as.parts[pkt.seq] = std::move(pkt.data);
  as.arrived++;

  if (as.arrived == as.expected) {
    Bytes msg;
    msg.reserve(static_cast<std::size_t>(as.total_len));
    for (auto& part : as.parts) {
      msg.insert(msg.end(), part.begin(), part.end());
    }
    const net::NodeId src = pkt.src;
    const std::uint64_t tag = as.user_tag;
    const TimePs at = as.durable_max;
    rx_sends_.erase(key);
    sim_.schedule_at(at, [this, src, tag, msg = std::move(msg), at]() mutable {
      if (recv_handler_) recv_handler_(src, tag, std::move(msg), at);
    });
  }
}

}  // namespace nadfs::rdma
