#include "protocols/hyperloop.hpp"

#include <memory>

namespace nadfs::protocols {

HyperLoop::HyperLoop(Cluster& cluster, std::size_t chunk_bytes)
    : cluster_(cluster), chunk_bytes_(chunk_bytes) {}

void HyperLoop::write(Client& client, const FileLayout& layout, const auth::Capability& cap,
                      Bytes data, OpCb cb) {
  (void)cap;  // HyperLoop trusts clients (paper §V-B)
  const std::uint64_t greq = client.next_greq();
  const std::uint64_t token = next_token_++;
  const auto k = layout.targets.size();
  const std::size_t chunk =
      chunk_bytes_ == 0 ? data.size() : std::min(chunk_bytes_, data.size());
  const auto chunk_count =
      static_cast<std::uint32_t>(std::max<std::size_t>(1, (data.size() + chunk - 1) / chunk));

  const std::uint64_t meta_tag = (token << 16) | 0xFFFFu;
  const std::uint64_t meta_ack = greq ^ (1ull << 63);

  // Arm the triggered WQEs on every node: the metadata forward chain plus
  // one forward chain per data chunk. (Arming is the remote WQE write whose
  // *cost* is the metadata broadcast below.)
  for (std::size_t r = 0; r < k; ++r) {
    auto& nic = cluster_.storage_by_node(layout.targets[r].node).nic();
    const bool tail = r + 1 == k;

    rdma::Nic::TriggeredWrite meta;
    meta.trigger_tag = meta_tag;
    if (!tail) {
      meta.next_dst = layout.targets[r + 1].node;
      meta.next_raddr = layout.targets[r + 1].addr;
    } else {
      meta.ack_to = client.node().id();
      meta.ack_tag = meta_ack;
    }
    nic.post_triggered_write(meta);

    for (std::uint32_t i = 0; i < chunk_count; ++i) {
      rdma::Nic::TriggeredWrite trig;
      trig.trigger_tag = (token << 16) | i;
      if (!tail) {
        trig.next_dst = layout.targets[r + 1].node;
        trig.next_raddr = layout.targets[r + 1].addr + static_cast<std::uint64_t>(i) * chunk;
      } else {
        trig.ack_to = client.node().id();
        trig.ack_tag = greq;
      }
      nic.post_triggered_write(trig);
    }
  }

  // Completion: all chunks confirmed by the tail.
  client.tracker().expect(greq, chunk_count, std::move(cb));

  // Phase 1 — metadata ring broadcast configuring the WQEs.
  const std::size_t meta_len = std::max<std::size_t>(kWqeBytes, kWqeBytes * chunk_count);
  auto& cnic = client.node().nic();
  const auto& head = layout.targets.front();
  auto tracker = &client.tracker();
  tracker->expect(meta_ack, 1,
                  [this, &client, layout, data = std::move(data), greq, token, chunk,
                   chunk_count](dfs::DfsError err, TimePs) mutable {
                    if (err != dfs::DfsError::kOk) return;
                    // Phase 2 — data broadcast, chunk-pipelined.
                    const auto& primary = layout.targets.front();
                    std::size_t off = 0;
                    std::uint32_t idx = 0;
                    while (off < data.size()) {
                      const std::size_t n = std::min(chunk, data.size() - off);
                      Bytes piece(data.begin() + static_cast<std::ptrdiff_t>(off),
                                  data.begin() + static_cast<std::ptrdiff_t>(off + n));
                      client.node().nic().post_write(primary.node, primary.addr + off, 0,
                                                     std::move(piece), [](TimePs) {},
                                                     (token << 16) | idx);
                      off += n;
                      ++idx;
                    }
                    (void)chunk_count;
                    (void)greq;
                  });
  cnic.post_write(head.node, head.addr, 0, Bytes(meta_len, 0), [](TimePs) {}, meta_tag);
}

}  // namespace nadfs::protocols
