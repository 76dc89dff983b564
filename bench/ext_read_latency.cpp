// Extension (beyond the paper's evaluation): offloaded DFS *read* latency.
//
// The paper defines the read request format (Fig. 3: DFS hdr + RRH) but
// evaluates only writes. This bench measures the read path the library
// implements: the sPIN completion handler validates the capability, DMAs
// the extent from the storage target, and streams the response — against
// (a) the same requests handled by the host-side DFS service (CPU mode)
// and (b) raw RDMA reads (no policy, speed of light).
#include "bench/harness.hpp"
#include "services/host_dfs.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

enum class Mode { kSpin, kHostDfs, kRaw };

double read_latency_ns(Mode mode, std::size_t size) {
  ClusterConfig cfg;
  cfg.storage_nodes = 1;
  cfg.install_dfs = mode != Mode::kRaw;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  std::unique_ptr<services::HostDfsService> host;
  if (mode == Mode::kHostDfs) {
    cluster.storage_node(0).uninstall_dfs();
    host = std::make_unique<services::HostDfsService>(cluster.storage_node(0), cfg.dfs);
  }

  const auto& layout = cluster.metadata().create("o", size, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);

  // Preload the object functionally (timing of the write is irrelevant).
  cluster.storage_node(0).target().write(layout.targets[0].addr, random_bytes(size, size));

  TimePs issued = 0;
  double latency = 0;
  if (mode == Mode::kRaw) {
    const auto rkey = cluster.storage_node(0).nic().register_mr(0, 1ull << 30);
    issued = cluster.sim().now();
    client.node().nic().post_read(cluster.storage_node(0).id(), layout.targets[0].addr, rkey,
                                  static_cast<std::uint32_t>(size),
                                  [&](Bytes, TimePs at) { latency = to_ns(at - issued); });
  } else {
    issued = cluster.sim().now();
    client.read(layout, cap, static_cast<std::uint32_t>(size),
                [&](dfs::DfsError, Bytes, TimePs at) { latency = to_ns(at - issued); });
  }
  cluster.sim().run();
  return latency;
}

struct Row {
  std::size_t size = 0;
  double spin = 0, host = 0, raw = 0;
};

}  // namespace

int main() {
  print_header("DFS read latency: sPIN-offloaded vs host CPU vs raw RDMA",
               "an extension — the paper defines reads (Fig. 3) but evaluates writes");

  const std::vector<std::size_t> sizes = {std::size_t{512}, 4 * KiB,   16 * KiB,
                                          64 * KiB,          256 * KiB, 1 * MiB};

  SweepReport report("ext_read_latency");
  SweepRunner runner;
  std::vector<std::function<Row()>> points;
  points.reserve(sizes.size());
  for (const std::size_t size : sizes) {
    points.push_back([size] {
      Row r;
      r.size = size;
      r.spin = read_latency_ns(Mode::kSpin, size);
      r.host = read_latency_ns(Mode::kHostDfs, size);
      r.raw = read_latency_ns(Mode::kRaw, size);
      return r;
    });
  }
  const auto rows = runner.run(points);

  std::printf("%10s %14s %14s %12s %12s\n", "size", "sPIN read", "host-CPU read", "raw read",
              "sPIN/raw");
  char csv[96];
  for (const Row& r : rows) {
    std::printf("%10s %12.0fns %12.0fns %10.0fns %11.2fx\n", size_label(r.size).c_str(), r.spin,
                r.host, r.raw, r.spin / r.raw);
    std::snprintf(csv, sizeof csv, "ext_read,%zu,%.1f,%.1f,%.1f", r.size, r.spin, r.host, r.raw);
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
  }
  std::printf("\nReading: the offloaded read pays one capability check and tracks raw\n"
              "RDMA; the CPU-mode read adds notification latency plus a bounce copy\n"
              "that grows with size.\n");
  report.finish(runner.threads(), rows.size());
  return 0;
}
