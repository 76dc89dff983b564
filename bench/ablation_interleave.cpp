// Ablation: interleaved vs sequential client transmission for sPIN-TriEC
// (paper §VI-B.1, DESIGN.md §5).
//
// Interleaving the k chunk streams packet-by-packet lets the data nodes
// encode in parallel and keeps the parity node's aggregation sequences
// short-lived. Sequential transmission serializes the encode work and holds
// accumulators across the whole write.
//
// One SweepRunner point per block size (each point runs both transmission
// orders); rows are mirrored into BENCH_ablation_interleave.json.
#include "bench/harness.hpp"

using namespace nadfs;
using namespace nadfs::bench;

namespace {

struct Point {
  double latency_ns = 0;
  std::size_t acc_high_water = 0;
};

Point run(std::size_t block, bool interleave) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  client.set_ec_interleaving(interleave);
  FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const auto& layout = cluster.metadata().create("f", block, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);

  Point p;
  client.write(layout, cap, random_bytes(block, 9),
               [&](dfs::DfsError, TimePs at) { p.latency_ns = to_ns(at); });
  cluster.sim().run();
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    p.acc_high_water =
        std::max(p.acc_high_water, cluster.storage_node(n).dfs_state()->pool.high_water());
  }
  return p;
}

struct Row {
  std::size_t block = 0;
  Point inter, seq;
};

}  // namespace

int main() {
  print_header("Ablation: interleaved vs sequential EC chunk transmission",
               "paper Section VI-B.1");

  const std::vector<std::size_t> blocks = {16 * KiB, 64 * KiB, 256 * KiB, 1 * MiB};

  SweepReport report("ablation_interleave");
  SweepRunner runner;
  std::vector<std::function<Row()>> points;
  points.reserve(blocks.size());
  for (const std::size_t block : blocks) {
    points.push_back([block] { return Row{block, run(block, true), run(block, false)}; });
  }
  const auto rows = runner.run(points);

  std::printf("%10s %18s %18s %10s %22s\n", "block", "interleaved (ns)", "sequential (ns)",
              "ratio", "acc high-water (i/s)");
  char csv[128];
  for (const Row& r : rows) {
    std::printf("%10s %18.0f %18.0f %9.2fx %11zu / %zu\n", format_size(r.block).c_str(),
                r.inter.latency_ns, r.seq.latency_ns, r.seq.latency_ns / r.inter.latency_ns,
                r.inter.acc_high_water, r.seq.acc_high_water);
    std::snprintf(csv, sizeof csv, "ablation_interleave,%zu,%.0f,%.0f,%zu,%zu", r.block,
                  r.inter.latency_ns, r.seq.latency_ns, r.inter.acc_high_water,
                  r.seq.acc_high_water);
    std::printf("CSV:%s\n", csv);
    report.add_csv(csv);
  }
  std::printf("\nReading: interleaving wins on latency (parallel intermediate encode)\n"
              "and keeps fewer accumulators alive at the parity nodes.\n");
  report.finish(runner.threads(), rows.size());
  return 0;
}
