#include "protocols/rpc.hpp"

namespace nadfs::protocols {

namespace {

/// Wire format of the RPC+RDMA descriptor appended after DFS hdr + WRH.
struct RdmaDescriptor {
  std::uint64_t client_addr;
  std::uint32_t client_rkey;
  std::uint32_t len;
};

constexpr std::uint8_t kStatusOk = 0;
constexpr std::uint8_t kStatusDenied = 1;

/// Client-side decode of the one-byte server reply; anything but a known
/// status (an empty reply included) is malformed.
dfs::DfsError reply_error(const Bytes& msg) {
  if (msg.size() == 1 && msg[0] == kStatusOk) return dfs::DfsError::kOk;
  if (msg.size() == 1 && msg[0] == kStatusDenied) return dfs::DfsError::kDenied;
  return dfs::DfsError::kMalformed;
}

Bytes encode_request(const dfs::DfsHeader& hdr, const dfs::WriteRequestHeader& wrh,
                     ByteSpan payload) {
  Bytes out;
  ByteWriter w(out);
  hdr.serialize(w);
  wrh.serialize(w);
  w.put_bytes(payload);
  return out;
}

/// Validation identical to the sPIN header handler's DFS_request_init.
bool validate(const auth::CapabilityAuthority& authority, const dfs::ParsedRequest& req,
              TimePs now) {
  return authority.verify(req.dfs.cap, now, auth::Right::kWrite, req.wrh.dest_addr,
                          req.wrh.total_len);
}

}  // namespace

// ------------------------------------------------------------------ RPC

RpcWrite::RpcWrite(Cluster& cluster) : cluster_(cluster) {
  const auto key = cluster.management().shared_key();
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    auto& node = cluster.storage_node(i);
    auto authority = std::make_shared<auth::CapabilityAuthority>(key);
    auto failures = failures_;
    node.nic().set_recv_handler([&node, authority, failures](net::NodeId src, std::uint64_t tag,
                                                             Bytes msg, TimePs at) {
      auto& cpu = node.cpu();
      const auto& ccfg = cpu.config();
      // Dispatch + validate on a core, starting after the NIC notified us.
      const TimePs dispatched =
          cpu.busy(ccfg.rpc_dispatch + ccfg.validate_cost, at + ccfg.notify_latency);
      const auto req = dfs::parse_request(msg);
      if (!validate(*authority, req, dispatched)) {
        ++*failures;
        node.cpu().run(0, dispatched, [&node, src, tag]() {
          node.nic().post_send(src, tag, Bytes{kStatusDenied});
        });
        return;
      }
      // Bounce-buffer copy (the RPC penalty of Fig. 6), then commit.
      const std::size_t payload = msg.size() - req.header_bytes;
      const TimePs copied = cpu.copy(payload, dispatched);
      const TimePs durable = node.target().write(
          req.wrh.dest_addr, ByteSpan(msg.data() + req.header_bytes, payload), copied);
      node.cpu().run(0, durable, [&node, src, tag]() {
        node.nic().post_send(src, tag, Bytes{kStatusOk});
      });
    });
  }
}

void RpcWrite::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                     Bytes data, OpCb cb) {
  dfs::DfsHeader hdr;
  hdr.op = dfs::OpType::kWrite;
  hdr.greq_id = client.next_greq();
  hdr.client_node = client.node().id();
  hdr.cap = cap;
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets.front().addr;
  wrh.total_len = data.size();

  // Route the response through the client NIC's recv handler.
  auto cb_holder = std::make_shared<OpCb>(std::move(cb));
  client.node().nic().set_recv_handler(
      [cb_holder](net::NodeId, std::uint64_t, Bytes msg, TimePs at) {
        (*cb_holder)(reply_error(msg), at);
      });
  client.node().nic().post_send(layout.targets.front().node, hdr.greq_id,
                                encode_request(hdr, wrh, data));
}

// ------------------------------------------------------------- RPC+RDMA

RpcRdmaWrite::RpcRdmaWrite(Cluster& cluster) : cluster_(cluster) {
  const auto key = cluster.management().shared_key();
  for (std::size_t i = 0; i < cluster.storage_node_count(); ++i) {
    auto& node = cluster.storage_node(i);
    auto authority = std::make_shared<auth::CapabilityAuthority>(key);
    auto failures = failures_;
    node.nic().set_recv_handler([&node, authority, failures](net::NodeId src, std::uint64_t tag,
                                                             Bytes msg, TimePs at) {
      auto& cpu = node.cpu();
      const auto& ccfg = cpu.config();
      const TimePs dispatched =
          cpu.busy(ccfg.rpc_dispatch + ccfg.validate_cost, at + ccfg.notify_latency);
      const auto req = dfs::parse_request(msg);
      ByteReader r(ByteSpan(msg.data() + req.header_bytes, msg.size() - req.header_bytes));
      const auto client_addr = r.get<std::uint64_t>();
      const auto client_rkey = r.get<std::uint32_t>();
      const auto len = r.get<std::uint32_t>();

      if (!validate(*authority, req, dispatched)) {
        ++*failures;
        node.cpu().run(0, dispatched, [&node, src, tag]() {
          node.nic().post_send(src, tag, Bytes{kStatusDenied});
        });
        return;
      }
      // Zero-copy: RDMA-read the payload from the client straight into the
      // storage target (the extra round trip of Fig. 5 left).
      const std::uint64_t dest = req.wrh.dest_addr;
      node.cpu().run(0, dispatched, [&node, src, tag, client_addr, client_rkey, len, dest]() {
        node.nic().post_read(src, client_addr, client_rkey, len,
                             [&node, src, tag, dest](Bytes data, TimePs got) {
                               const TimePs durable = node.target().write(dest, data, got);
                               node.cpu().run(0, durable, [&node, src, tag]() {
                                 node.nic().post_send(src, tag, Bytes{kStatusOk});
                               });
                             });
      });
    });
  }
}

void RpcRdmaWrite::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                         Bytes data, OpCb cb) {
  // Stage the data in client RAM and expose it over RDMA.
  const std::uint64_t staging = 0x10000000ull;  // fixed staging window
  client.node().ram().write(staging, data);
  const std::uint32_t rkey = client.node().nic().register_mr(staging, data.size());

  dfs::DfsHeader hdr;
  hdr.op = dfs::OpType::kWrite;
  hdr.greq_id = client.next_greq();
  hdr.client_node = client.node().id();
  hdr.cap = cap;
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = layout.targets.front().addr;
  wrh.total_len = data.size();

  Bytes req;
  ByteWriter w(req);
  hdr.serialize(w);
  wrh.serialize(w);
  w.put(staging);
  w.put(rkey);
  w.put(static_cast<std::uint32_t>(data.size()));

  auto cb_holder = std::make_shared<OpCb>(std::move(cb));
  client.node().nic().set_recv_handler(
      [cb_holder](net::NodeId, std::uint64_t, Bytes msg, TimePs at) {
        (*cb_holder)(reply_error(msg), at);
      });
  client.node().nic().post_send(layout.targets.front().node, hdr.greq_id, std::move(req));
}

}  // namespace nadfs::protocols
