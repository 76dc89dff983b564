// Visualizing a run: full-stack observability on a chaos scenario.
//
// Drives the PR 5 acceptance scenario — an erasure-coded RS(3,2) write
// whose first data node is killed mid-transfer — with every observability
// tool attached: a cross-layer span tracer, the cluster metric registry,
// a sim-time sampler, and the storage-side state GC that drains the
// aggregation state the dead node's missing stream wedged on the parity
// nodes.
//
// Artifacts written to the working directory:
//   chaos_trace.json            Perfetto/Chrome trace (open in ui.perfetto.dev)
//   chaos_trace_metrics.json    flat metric snapshot (obs::parse_flat_object)
//   chaos_trace_timeseries.csv  sampler rows (t_ns, probes...)
//
// Self-validating (nonzero exit on failure):
//   - the trace parses as strict JSON with the Chrome trace-event shape;
//   - one greq correlates spans across the client op, network hops, and
//     HPU handler lanes on at least two storage nodes;
//   - the metrics export round-trips and shows the GC reaped the wedged
//     parity aggregation state.
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>

#include "obs/json.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "services/client.hpp"
#include "services/failure_detector.hpp"

using namespace nadfs;

namespace {

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

int fail(const char* what) {
  std::fprintf(stderr, "chaos_trace: FAILED: %s\n", what);
  return 1;
}

}  // namespace

int main() {
  services::ClusterConfig cfg;
  cfg.storage_nodes = 7;
  cfg.clients = 1;
  services::Cluster cluster(cfg);
  services::Client writer(cluster, 0);

  // Attach the whole observability stack before any traffic.
  obs::SpanTracer tracer;
  cluster.set_tracer(&tracer);
  obs::Sampler sampler(cluster.sim());
  sampler.add_probe("pending_ops",
                    [&] { return static_cast<double>(writer.tracker().pending_count()); });
  for (const std::size_t n : {std::size_t{0}, std::size_t{3}}) {
    auto& node = cluster.storage_node(n);
    sampler.add_probe("node" + std::to_string(node.id()) + ".busy_hpus", [&node, &cluster] {
      return static_cast<double>(node.pspin().busy_hpus(cluster.sim().now()));
    });
    sampler.add_probe("node" + std::to_string(node.id()) + ".agg_entries", [&node] {
      return node.dfs_state() ? static_cast<double>(node.dfs_state()->agg.size()) : 0.0;
    });
  }
  sampler.start(us(2));
  cluster.start_state_gc(/*interval=*/us(50), /*ttl=*/us(100));

  services::FilePolicy policy;
  policy.resiliency = dfs::Resiliency::kErasureCoding;
  policy.ec_k = 3;
  policy.ec_m = 2;
  const std::size_t size = 48000;
  const auto& layout = cluster.metadata().create("obj", size, policy);
  const auto cap = cluster.metadata().grant(writer.client_id(), layout, auth::Right::kReadWrite);
  const Bytes data = random_bytes(size, 42);

  // v1 lands cleanly — a healthy end-to-end trace to compare against.
  bool v1_ok = false;
  writer.write(layout, cap, data,
               [&](dfs::DfsError err, TimePs) { v1_ok = err == dfs::DfsError::kOk; });
  cluster.sim().run_until(cluster.sim().now() + ms(1));
  if (!v1_ok) return fail("clean EC write did not complete");
  const TimePs t0 = cluster.sim().now();

  // Kill the first data node mid-v2: its chunk stream stops, the parity
  // nodes wait forever on the third contribution, and only the state GC
  // can release their accumulators.
  net::FaultPlan plan;
  const net::NodeId victim = layout.targets[0].node;
  plan.kill_node(victim, t0 + us(1));
  cluster.network().install_faults(plan);

  writer.set_timeout(us(30));
  writer.set_retry_policy(1, us(10));
  bool v2_done = false, v2_ok = true;
  writer.write(layout, cap, data, [&](dfs::DfsError err, TimePs) {
    v2_done = true;
    v2_ok = err == dfs::DfsError::kOk;
  });
  cluster.sim().run_until(t0 + ms(2));
  cluster.stop_state_gc();
  sampler.stop();
  cluster.sim().run();

  if (!v2_done || v2_ok) return fail("kill-mid-write was expected to fail the write");

  // ---- export the three artifacts -------------------------------------
  {
    std::ofstream f("chaos_trace.json");
    tracer.export_chrome_json(f);
  }
  const std::string metrics_json = cluster.metrics().to_json();
  {
    std::ofstream f("chaos_trace_metrics.json");
    f << metrics_json;
  }
  {
    std::ofstream f("chaos_trace_timeseries.csv");
    sampler.export_csv(f);
  }

  // ---- validate: trace JSON parses with the Chrome trace-event shape ---
  std::string err;
  std::stringstream trace_ss;
  tracer.export_chrome_json(trace_ss);
  const auto doc = obs::json_parse(trace_ss.str(), &err);
  if (!doc) {
    std::fprintf(stderr, "chaos_trace: trace JSON invalid: %s\n", err.c_str());
    return 1;
  }
  const auto* events = doc->find("traceEvents");
  if (!doc->find("displayTimeUnit") || !events || !events->is_array() || events->arr.empty()) {
    return fail("trace JSON lacks the Chrome trace-event shape");
  }
  for (const auto& ev : events->arr) {
    if (!ev.is_object() || !ev.find("ph") || !ev.find("pid") || !ev.find("tid")) {
      return fail("trace event missing ph/pid/tid");
    }
  }

  // ---- validate: one greq correlates client, network and >= 2 HPU lanes
  // on distinct storage nodes. v2's first attempt is the interesting one.
  bool correlated = false;
  std::set<std::uint64_t> op_corrs;
  for (const auto& s : tracer.spans()) {
    if (s.lane == obs::kLaneClientOp) op_corrs.insert(s.corr);
  }
  for (const std::uint64_t corr : op_corrs) {
    bool client_op = false, net_hop = false;
    std::set<std::uint32_t> handler_nodes;
    for (const auto& s : tracer.spans_for(corr)) {
      if (s.lane == obs::kLaneClientOp) client_op = true;
      if (s.lane == obs::kLaneUplink || s.lane == obs::kLaneDownlink) net_hop = true;
      if (s.lane < 9000) handler_nodes.insert(s.node);  // HPU lanes: cluster*1000+hpu
    }
    correlated |= client_op && net_hop && handler_nodes.size() >= 2;
  }
  if (!correlated) {
    return fail("no greq correlates client op + network hops + 2 storage nodes' HPU lanes");
  }

  // ---- validate: metrics round-trip + the GC drained the wedged state --
  const auto flat = obs::parse_flat_object(metrics_json, &err);
  if (!flat) {
    std::fprintf(stderr, "chaos_trace: metrics JSON invalid: %s\n", err.c_str());
    return 1;
  }
  long long reaped = 0, agg_left = 0;
  for (const auto& [name, value] : *flat) {
    if (name.size() > 16 && name.substr(name.size() - 16) == ".reaped_requests") reaped += value;
    if (name.size() > 12 && name.substr(name.size() - 12) == ".agg_entries") agg_left += value;
  }
  if (reaped == 0) return fail("state GC reaped nothing despite the wedged parity streams");
  if (agg_left != 0) return fail("aggregation entries survived the GC");
  if (sampler.rows().empty()) return fail("sampler produced no timeseries rows");

  std::printf("chaos_trace: OK\n");
  std::printf("  spans:   %zu across %zu correlated ops (chaos_trace.json)\n",
              tracer.spans().size(), op_corrs.size());
  std::printf("  metrics: %zu instruments, %lld wedged entries reaped "
              "(chaos_trace_metrics.json)\n",
              flat->size(), reaped);
  std::printf("  samples: %zu rows x %zu probes (chaos_trace_timeseries.csv)\n",
              sampler.rows().size(), sampler.names().size());
  std::printf("  open chaos_trace.json at https://ui.perfetto.dev to browse the run\n");
  return 0;
}
