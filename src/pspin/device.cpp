#include "pspin/device.hpp"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace nadfs::pspin {

void HandlerStats::record(spin::HandlerType type, TimePs duration, std::uint64_t instr) {
  duration_[static_cast<std::size_t>(type)].add(to_ns(duration));
  instr_[static_cast<std::size_t>(type)].add(static_cast<double>(instr));
}

double HandlerStats::ipc(spin::HandlerType type) const {
  const auto& d = duration_[static_cast<std::size_t>(type)];
  const auto& i = instr_[static_cast<std::size_t>(type)];
  if (d.empty() || d.mean() == 0.0) return 0.0;
  return i.mean() / d.mean();  // instr per ns == instr per cycle at 1 GHz
}

void HandlerStats::reset() {
  for (auto& s : duration_) s = Summary{};
  for (auto& s : instr_) s = Summary{};
}

PsPinDevice::PsPinDevice(sim::Simulator& simulator, PsPinConfig config)
    : sim_(simulator),
      config_(config),
      pkt_buffer_dma_(simulator,
                      Bandwidth::from_gbytes_per_sec(config.pkt_buffer_bytes_per_cycle *
                                                     (1e3 / static_cast<double>(config.cycle)))),
      scheduler_(simulator, Bandwidth::from_gbps(1.0)),
      egress_(config.egress_queue_depth) {
  const double bytes_per_sec_factor = 1e12 / static_cast<double>(config.cycle) / 1e9;
  for (unsigned c = 0; c < config_.num_clusters; ++c) {
    l1_dma_.push_back(std::make_unique<sim::FifoServer>(
        sim_, Bandwidth::from_gbytes_per_sec(config.l1_copy_bytes_per_cycle * bytes_per_sec_factor)));
    hpu_free_.emplace_back(config_.hpus_per_cluster, TimePs{0});
  }
}

bool PsPinDevice::install(spin::ExecutionContext ctx) {
  if (ctx.state_bytes > nic_memory_bytes()) return false;
  ctx_ = std::move(ctx);
  return true;
}

void PsPinDevice::uninstall() { ctx_.reset(); }

TimePs PsPinDevice::replay(spin::HandlerCtx& ctx, MsgState& msg, TimePs start,
                           ByteSpan packet) {
  TimePs cursor = start;
  std::uint64_t charged = 0;
  for (auto& cmd : ctx.commands()) {
    cursor += (cmd.cycle_offset - charged) * config_.cycle;
    charged = cmd.cycle_offset;
    switch (cmd.kind) {
      case spin::HandlerCtx::Cmd::Kind::kSend: {
        // Acquire an egress command-queue slot: the HPU stalls here when the
        // outbound engine is backed up (the sPIN-PBT mechanism, Table I).
        cursor = egress_.accept(cursor, sim_.now());
        // The outbound engine keeps a message's sends in issue order (see
        // MsgState::last_send_start): the HPU does not stall for this, the
        // command just drains in order.
        const TimePs earliest = std::max(cursor, msg.last_send_start + 1);
        const auto w = nic_->egress_send(std::move(cmd.pkt), earliest);
        msg.last_send_start = w.start;
        egress_.note(cursor, w.end);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kSendFromStorage: {
        // Scatter-gather send: the NIC gathers the payload over PCIe at
        // transmit time; the HPU does not block on the DMA, only on the
        // command-queue slot. The gather pipelines with the wire. The
        // payload was filled functionally at record time; replay only
        // times the gather.
        cursor = egress_.accept(cursor, sim_.now());
        const TimePs ready = nic_->dma_read_ready(cmd.addr, cmd.len, cursor);
        const TimePs earliest = std::max({ready, msg.last_send_start + 1});
        const auto w = nic_->egress_send(std::move(cmd.pkt), earliest);
        msg.last_send_start = w.start;
        egress_.note(cursor, w.end);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kDma: {
        // Fire-and-forget toward the storage target; durability is tracked
        // per message for the CH's storage fence.
        // A payload view must lie inside the dispatched packet, the only
        // buffer that outlives this replay (DESIGN.md §3j).
        const std::less_equal<const std::uint8_t*> le;
        if (cmd.data.empty() && !cmd.view.empty() &&
            !(le(packet.data(), cmd.view.data()) &&
              le(cmd.view.data() + cmd.view.size(), packet.data() + packet.size()))) {
          throw std::logic_error("PsPinDevice: DMA view outside the dispatched packet");
        }
        const ByteSpan data = cmd.data.empty() ? cmd.view : ByteSpan(cmd.data);
        const TimePs durable = nic_->dma_to_storage(cmd.addr, data, cursor);
        msg.dma_durable_max = std::max(msg.dma_durable_max, durable);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kTrim: {
        // Tombstone command toward the storage target; like a write, its
        // durability is folded into the message's storage fence so a
        // trim-then-ack CH keeps the persistence guarantee.
        const TimePs durable = nic_->trim_storage(cmd.addr, cmd.len, cursor);
        msg.dma_durable_max = std::max(msg.dma_durable_max, durable);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kDmaRead: {
        // The bytes were delivered at record time; the HPU blocks until
        // the timed read completes.
        cursor = std::max(cursor, nic_->dma_read_ready(cmd.addr, cmd.len, cursor));
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kFence: {
        cursor = std::max(cursor, msg.dma_durable_max);
        break;
      }
      case spin::HandlerCtx::Cmd::Kind::kNotify: {
        nic_->notify_host(cmd.code, cmd.arg, cursor);
        break;
      }
    }
  }
  cursor += (ctx.cycles() - charged) * config_.cycle;
  return cursor;
}

TimePs PsPinDevice::run_handler(spin::HandlerType type, const spin::Handler& handler,
                                const net::Packet& pkt, MsgState& msg, TimePs ready) {
  auto& cluster_hpus = hpu_free_[msg.cluster];
  auto it = std::min_element(cluster_hpus.begin(), cluster_hpus.end());
  const TimePs start = std::max(ready, *it) + config_.hpu_dispatch;

  spin::HandlerCtx ctx(nic_->node_id(), start, msg.flow_slot);
  ctx.record_into(std::move(cmd_buf_));
  ctx.set_storage_reader(
      [this](std::uint64_t addr, std::size_t len) { return nic_->peek_storage(addr, len); });
  ctx.set_storage_prober(
      [this](std::uint64_t addr, std::uint64_t len) { return nic_->storage_trimmed(addr, len); });
  handler(ctx, pkt);

  // `pkt` outlives the replay, so commands may view its payload.
  const TimePs end = replay(ctx, msg, start, pkt.data);
  cmd_buf_ = ctx.take_commands();
  cmd_buf_.clear();
  *it = end;
  stats_.record(type, end - start, ctx.instr());
  last_handler_end_ = std::max(last_handler_end_, end);
  const auto hpu = static_cast<unsigned>(std::distance(cluster_hpus.begin(), it));
  if (span_trace_) {
    span_trace_->record({nic_->node_id(), msg.cluster * 1000 + hpu, "handler",
                         spin::handler_type_name(type),
                         pkt.user_tag != 0 ? pkt.user_tag : pkt.msg_id, pkt.msg_id, pkt.seq,
                         ctx.instr(), start, end});
  }
  return end;
}

void PsPinDevice::on_packet(net::Packet&& pkt) {
  if (!ctx_ || !nic_) return;  // nothing installed: packet would be host-steered

  const spin::MessageKey key{pkt.src, pkt.msg_id};
  auto [mit, inserted] = messages_.try_emplace(key);
  MsgState& msg = mit->second;
  if (inserted) {
    msg.cluster = next_cluster_++ % config_.num_clusters;
    msg.flow_slot = next_flow_slot_++;
  }
  msg.expected = pkt.pkt_count;
  msg.arrived++;
  msg.last_activity = sim_.now();

  // Ingress pipeline: packet-buffer DMA, HW scheduler, L1 copy (Fig. 7).
  const auto buf = pkt_buffer_dma_.reserve(pkt.data.size() + net::kTransportHeaderBytes);
  const auto sched =
      scheduler_.reserve_time(config_.sched_cycles * config_.cycle, buf.end);
  const auto l1 = l1_dma_[msg.cluster]->reserve(pkt.data.size(), sched.end);
  TimePs ready = l1.end;

  const bool is_first = pkt.first();
  const bool is_last = pkt.last();

  if (is_first) {
    msg.hh_end = run_handler(spin::HandlerType::kHeader, ctx_->header_handler, pkt, msg, ready);
    if (inserted && config_.cleanup_timeout != 0 && !(is_last)) {
      arm_cleanup(key);
    }
  }

  // sPIN guarantees PHs run after the message's HH completed.
  const TimePs ph_ready = std::max(ready, msg.hh_end);
  const TimePs ph_end =
      run_handler(spin::HandlerType::kPayload, ctx_->payload_handler, pkt, msg, ph_ready);
  msg.ph_end_max = std::max(msg.ph_end_max, ph_end);
  msg.ph_done++;
  payload_bytes_done_ += pkt.data.size();

  if (is_last) {
    msg.completion_pkt = std::move(pkt);
    msg.completion_ready = ready;
  }
  maybe_run_completion(key, msg);
}

void PsPinDevice::maybe_run_completion(const spin::MessageKey& key, MsgState& msg) {
  if (msg.ch_issued || !msg.completion_pkt || msg.arrived < msg.expected ||
      msg.ph_done < msg.expected) {
    return;
  }
  msg.ch_issued = true;
  // Dispatch the CH via a simulator event at its ready time rather than
  // eagerly: its egress commands (acks, read responses) must reserve the
  // shared uplink in time order with handlers dispatched after this packet's
  // arrival, or the FIFO wire horizon ratchets ahead of simulated time and
  // poisons every later send.
  const TimePs ready = std::max(msg.ph_end_max, msg.completion_ready);
  sim_.schedule_at(ready, [this, key]() {
    auto it = messages_.find(key);
    if (it == messages_.end() || !ctx_) return;
    MsgState& m = it->second;
    run_handler(spin::HandlerType::kCompletion, ctx_->completion_handler, *m.completion_pkt, m,
                sim_.now());
    messages_.erase(it);
  });
}

void PsPinDevice::arm_cleanup(const spin::MessageKey& key) {
  auto it = messages_.find(key);
  if (it == messages_.end()) return;
  const TimePs deadline = it->second.last_activity + config_.cleanup_timeout;
  sim_.schedule_at(deadline, [this, key]() {
    auto mit = messages_.find(key);
    if (mit == messages_.end()) return;  // message completed meanwhile
    MsgState& msg = mit->second;
    if (msg.ch_issued) return;  // completion pending dispatch: not abandoned
    if (sim_.now() < msg.last_activity + config_.cleanup_timeout) {
      arm_cleanup(key);  // activity since arming; push the deadline out
      return;
    }
    run_cleanup(key);
  });
}

void PsPinDevice::run_cleanup(const spin::MessageKey& key) {
  auto it = messages_.find(key);
  if (it == messages_.end() || !ctx_ || !ctx_->cleanup_handler) {
    messages_.erase(key);
    return;
  }
  MsgState& msg = it->second;
  auto& cluster_hpus = hpu_free_[msg.cluster];
  auto hpu = std::min_element(cluster_hpus.begin(), cluster_hpus.end());
  const TimePs start = std::max(sim_.now(), *hpu) + config_.hpu_dispatch;

  spin::HandlerCtx ctx(nic_->node_id(), start, msg.flow_slot);
  ctx.record_into(std::move(cmd_buf_));
  ctx_->cleanup_handler(ctx, key);
  const TimePs end = replay(ctx, msg, start, {});  // no packet: no views
  cmd_buf_ = ctx.take_commands();
  cmd_buf_.clear();
  if (span_trace_) {
    span_trace_->record({nic_->node_id(),
                         msg.cluster * 1000 +
                             static_cast<unsigned>(std::distance(cluster_hpus.begin(), hpu)),
                         "handler", "cleanup", key.msg_id, key.msg_id, 0, ctx.instr(), start,
                         end});
  }
  *hpu = end;
  last_handler_end_ = std::max(last_handler_end_, end);
  ++cleanup_runs_;
  messages_.erase(it);
}

unsigned PsPinDevice::busy_hpus(TimePs t) const {
  unsigned busy = 0;
  for (const auto& cluster : hpu_free_) {
    for (TimePs free_at : cluster) {
      if (free_at > t) ++busy;
    }
  }
  return busy;
}

void PsPinDevice::bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) {
  reg.counter_cell(prefix + ".payload_bytes_done", &payload_bytes_done_);
  reg.counter_cell(prefix + ".cleanup_runs", &cleanup_runs_);
  reg.gauge(prefix + ".live_messages",
            [this] { return static_cast<long long>(messages_.size()); });
  reg.gauge(prefix + ".busy_hpus", [this] { return static_cast<long long>(busy_hpus(sim_.now())); });
  reg.gauge(prefix + ".egress_in_flight",
            [this] { return static_cast<long long>(egress_.in_flight(sim_.now())); });
  reg.gauge(prefix + ".egress_credits", [this] {
    const unsigned used = egress_.in_flight(sim_.now());
    return static_cast<long long>(config_.egress_queue_depth -
                                  std::min(config_.egress_queue_depth, used));
  });
}

}  // namespace nadfs::pspin
