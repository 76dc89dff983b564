// Quickstart: bring up a simulated 4-node storage cluster with PsPIN
// SmartNICs and run the paper's Fig. 1a workflow end to end: (1)(2) query
// the metadata node over the wire for the file layout + capability, then
// (3) perform an authenticated one-sided write (validated on the NIC, no
// storage-CPU involvement), and read the data back through the offloaded
// read path.
//
//   $ ./build/examples/quickstart
#include <cstdio>

#include "services/client.hpp"
#include "services/cluster.hpp"
#include "services/metadata_node.hpp"

using namespace nadfs;
using namespace nadfs::services;

int main() {
  // A cluster: 4 storage nodes + 1 client + a metadata node on a
  // 400 Gbit/s switch, DFS policies offloaded to every storage NIC (the
  // Fig. 1d architecture).
  Cluster cluster;
  MetadataNode metadata(cluster);
  Client client(cluster, 0);
  MetadataClient meta(client, metadata);
  std::printf("cluster up: %zu storage nodes, metadata node %u, client id %llu\n",
              cluster.storage_node_count(), metadata.id(),
              static_cast<unsigned long long>(client.client_id()));

  // Control plane: create the object, then open it over the wire — the
  // metadata node answers with the layout and a signed capability.
  cluster.metadata().create("/data/hello.bin", 64 * KiB, FilePolicy{});
  FileLayout layout;
  auth::Capability cap;
  meta.open("/data/hello.bin", auth::Right::kReadWrite,
            [&](std::optional<MetadataClient::OpenResult> r, TimePs at) {
              layout = r->layout;
              cap = r->cap;
              std::printf(
                  "open('/data/hello.bin') served in %s: object %llu on node %u @0x%llx, "
                  "capability mac=%016llx\n",
                  format_time(at).c_str(),
                  static_cast<unsigned long long>(layout.object_id), layout.targets[0].node,
                  static_cast<unsigned long long>(layout.targets[0].addr),
                  static_cast<unsigned long long>(cap.mac));
            });
  cluster.sim().run();

  // Data plane: one-sided DFS write. The sPIN header handler validates the
  // capability on the NIC; payload handlers DMA straight to the target; the
  // completion handler flushes and acks.
  Bytes payload(40 * KiB);
  for (std::size_t i = 0; i < payload.size(); ++i) payload[i] = static_cast<std::uint8_t>(i);

  TimePs write_done = 0;
  client.write(layout, cap, payload, [&](dfs::DfsError err, TimePs at) {
    std::printf("write %s in %s\n",
                err == dfs::DfsError::kOk ? "acknowledged" : dfs::dfs_error_name(err),
                format_time(at).c_str());
    write_done = at;
  });
  cluster.sim().run();

  // Offloaded read: the completion handler streams the extent back with
  // scatter-gather sends (no storage-CPU involvement either).
  const TimePs read_issued = cluster.sim().now();
  client.read(layout, cap, static_cast<std::uint32_t>(payload.size()),
              [&](dfs::DfsError err, Bytes data, TimePs at) {
                const bool match = err == dfs::DfsError::kOk && data == payload;
                std::printf("read %zu bytes in %s: %s\n", data.size(),
                            format_time(at - read_issued).c_str(),
                            match ? "contents verified" : "MISMATCH");
              });
  cluster.sim().run();
  (void)write_done;

  // What the NIC did, from its own statistics.
  const auto& stats = cluster.storage_by_node(layout.targets[0].node).pspin().stats();
  std::printf("\nNIC handler activity on the storage node:\n");
  std::printf("  header handlers:     %zu runs, mean %.0f ns (capability check)\n",
              stats.duration_ns(spin::HandlerType::kHeader).count(),
              stats.duration_ns(spin::HandlerType::kHeader).mean());
  std::printf("  payload handlers:    %zu runs, mean %.0f ns (DMA to target)\n",
              stats.duration_ns(spin::HandlerType::kPayload).count(),
              stats.duration_ns(spin::HandlerType::kPayload).mean());
  std::printf("  completion handlers: %zu runs, mean %.0f ns (flush + ack)\n",
              stats.duration_ns(spin::HandlerType::kCompletion).count(),
              stats.duration_ns(spin::HandlerType::kCompletion).mean());
  std::printf("storage-node CPU involvement in the data path: none\n");
  return 0;
}
