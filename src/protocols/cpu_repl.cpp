#include "protocols/cpu_repl.hpp"

#include "dfs/handlers.hpp"

namespace nadfs::protocols {

CpuRepl::CpuRepl(Cluster& cluster, dfs::ReplStrategy strategy, std::size_t chunk_bytes)
    : cluster_(cluster), strategy_(strategy), chunk_bytes_(chunk_bytes) {
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    install_server(cluster.storage_node(i));
  }
}

void CpuRepl::install_server(services::StorageNode& node) {
  auto registry = std::make_shared<Registry>();
  registries_[node.id()] = registry;

  node.nic().set_write_notify([this, &node, registry](net::NodeId /*src*/, std::uint64_t,
                                                      std::uint64_t user_tag, std::uint64_t raddr,
                                                      std::uint64_t len, TimePs durable) {
    const std::uint64_t token = user_tag >> 16;
    auto oit = registry->ops.find(token);
    if (oit == registry->ops.end()) return;  // not ours (foreign protocol traffic)
    const OpConfig& op = oit->second;
    NodeProgress& prog = registry->progress[token];

    // Which rank are we in this op's tree?
    unsigned rank = 0;
    for (; rank < op.coords.size(); ++rank) {
      if (op.coords[rank].node == node.id()) break;
    }

    auto& cpu = node.cpu();
    const auto& ccfg = cpu.config();
    TimePs t = durable + ccfg.notify_latency;
    if (!prog.validated) {
      // Policy enforcement on the CPU, once per request.
      t = cpu.busy(ccfg.validate_cost, t);
      prog.validated = true;
    }

    // Forward the chunk to each child: CPU issues the writes, the NIC
    // bounces the data back out of host memory (post_write charges the
    // PCIe read).
    const auto children = dfs::broadcast_children(
        static_cast<std::uint8_t>(rank), static_cast<std::uint8_t>(op.coords.size()),
        op.strategy);
    if (!children.empty()) {
      const TimePs issued = cpu.busy(ccfg.rpc_dispatch, t);
      const Bytes data = node.target().read(raddr, static_cast<std::size_t>(len));
      const std::uint64_t chunk_off = raddr - op.coords[rank].addr;
      for (const auto child : children) {
        const auto& c = op.coords[child];
        node.cpu().run(0, issued, [&node, c, chunk_off, data, user_tag]() {
          node.nic().post_write(c.node, c.addr + chunk_off, 0, data, [](TimePs) {},
                                user_tag);
        });
      }
      t = issued;
    }

    prog.last_durable = std::max(prog.last_durable, std::max(t, durable));
    if (++prog.chunks_done == op.chunk_count) {
      // All chunks landed here: ack the client (every replica acks; the
      // client collects k of them).
      const net::NodeId client = op.client;
      const std::uint64_t greq = op.greq;
      const TimePs done = prog.last_durable;
      node.cpu().run(0, done, [&node, client, greq]() {
        node.nic().post_control(client, net::Opcode::kAck, greq);
      });
      registry->ops.erase(token);
      registry->progress.erase(token);
    }
  });
}

void CpuRepl::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                    Bytes data, OpCb cb) {
  (void)cap;  // validation cost is charged server-side; content checked there
  const std::uint64_t greq = client.next_greq();
  const std::uint64_t token = next_token_++;
  const std::size_t chunk =
      chunk_bytes_ == 0 ? data.size() : std::min(chunk_bytes_, data.size());
  const auto chunk_count =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, (data.size() + chunk - 1) / chunk));

  OpConfig op;
  op.token = token;
  op.greq = greq;
  op.strategy = strategy_;
  op.coords = layout.targets;
  op.chunk_count = chunk_count;
  op.client = client.node().id();
  for (const auto& coord : layout.targets) {
    registries_.at(coord.node)->ops[token] = op;
  }

  client.tracker().expect(greq, static_cast<unsigned>(layout.targets.size()), std::move(cb));

  // Push the chunks to the primary (rank 0) as independent RDMA writes.
  const auto& primary = layout.targets.front();
  std::size_t off = 0;
  std::uint32_t idx = 0;
  while (off < data.size()) {
    const std::size_t n = std::min(chunk, data.size() - off);
    Bytes piece(data.begin() + static_cast<std::ptrdiff_t>(off),
                data.begin() + static_cast<std::ptrdiff_t>(off + n));
    client.node().nic().post_write(primary.node, primary.addr + off, 0, std::move(piece),
                                   [](TimePs) {}, (token << 16) | idx);
    off += n;
    ++idx;
  }
}

}  // namespace nadfs::protocols
