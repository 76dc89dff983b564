// Shared bench harness: builds a fresh simulated cluster per measurement
// point (clean NIC/table/scheduler state, deterministic), drives one or
// more writes through a protocol, and reports latencies/goodput.
//
// Each fig*_ binary regenerates one table/figure of the paper; rows are
// printed as aligned text plus a machine-greppable "CSV:" line.
#pragma once

#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/report.hpp"
#include "common/rng.hpp"
#include "protocols/protocol.hpp"

namespace nadfs::bench {

using protocols::Client;
using protocols::Cluster;
using protocols::WriteProtocol;
using services::ClusterConfig;
using services::FilePolicy;

using ProtoFactory = std::function<std::unique_ptr<WriteProtocol>(Cluster&)>;

inline Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

struct Measurement {
  bool ok = false;
  double latency_ns = 0.0;
};

/// One write on a fresh cluster; latency is issue(t=0) -> protocol
/// completion.
inline Measurement measure_write(const ClusterConfig& ccfg, const FilePolicy& policy,
                                 std::size_t write_size, const ProtoFactory& factory,
                                 std::uint64_t seed = 42) {
  Cluster cluster(ccfg);
  Client client(cluster, 0);
  const auto& layout = cluster.metadata().create("bench", write_size, policy);
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kWrite);
  auto proto = factory(cluster);

  Measurement m;
  proto->write(client, layout, cap, random_bytes(write_size, seed),
               [&](dfs::DfsError err, TimePs at) {
                 m.ok = err == dfs::DfsError::kOk;
                 m.latency_ns = to_ns(at);
               });
  cluster.sim().run();
  MetricsAccumulator::instance().add(cluster.metrics().snapshot());
  return m;
}

/// The paper reports pipelined baselines "with optimal chunk size": sweep
/// the chunk sizes and keep the best latency.
inline Measurement best_over_chunks(const ClusterConfig& ccfg, const FilePolicy& policy,
                                    std::size_t write_size,
                                    const std::function<ProtoFactory(std::size_t)>& make_factory,
                                    const std::vector<std::size_t>& chunk_sizes) {
  Measurement best;
  best.latency_ns = 1e18;
  for (const std::size_t chunk : chunk_sizes) {
    if (chunk != 0 && chunk > write_size) continue;
    const auto m = measure_write(ccfg, policy, write_size, make_factory(chunk));
    if (m.ok && m.latency_ns < best.latency_ns) best = m;
  }
  if (best.latency_ns == 1e18) {  // nothing fit: fall back to unchunked
    best = measure_write(ccfg, policy, write_size, make_factory(0));
  }
  return best;
}

inline std::vector<std::size_t> default_chunk_sweep() {
  return {0, 256 * KiB, 64 * KiB, 16 * KiB, 4 * KiB, 2 * KiB};
}

/// Saturating-load goodput at a single storage node: `n_clients` endpoints
/// each blast `writes_per_client` writes of `write_size` at node 0; returns
/// payload bytes/s the node's PsPIN actually processed.
struct GoodputResult {
  double gbit_per_s = 0.0;
  double ph_mean_ns = 0.0;
};

inline GoodputResult measure_goodput(ClusterConfig ccfg, const FilePolicy& policy,
                                     std::size_t write_size, unsigned n_clients,
                                     unsigned writes_per_client) {
  ccfg.clients = n_clients;
  Cluster cluster(ccfg);
  std::vector<std::unique_ptr<Client>> clients;
  unsigned completions = 0;
  for (unsigned c = 0; c < n_clients; ++c) {
    clients.push_back(std::make_unique<Client>(cluster, c));
  }
  // All objects share the same target set so node 0 is the hot primary.
  for (unsigned c = 0; c < n_clients; ++c) {
    for (unsigned w = 0; w < writes_per_client; ++w) {
      const auto& layout = cluster.metadata().create(
          "g" + std::to_string(c) + "_" + std::to_string(w), write_size, policy);
      const auto cap =
          cluster.metadata().grant(clients[c]->client_id(), layout, auth::Right::kWrite);
      clients[c]->write(layout, cap, random_bytes(write_size, c * 1000 + w),
                        [&completions](dfs::DfsError, TimePs) { ++completions; });
    }
  }
  cluster.sim().run();
  MetricsAccumulator::instance().add(cluster.metrics().snapshot());

  auto& pspin = cluster.storage_node(0).pspin();
  GoodputResult r;
  if (pspin.last_handler_end() > 0) {
    r.gbit_per_s = static_cast<double>(pspin.payload_bytes_processed()) * 8.0 /
                   (static_cast<double>(pspin.last_handler_end()) / 1e12) / 1e9;
  }
  r.ph_mean_ns = pspin.stats().duration_ns(spin::HandlerType::kPayload).mean();
  return r;
}

// SweepRunner / SweepReport (sweep execution + BENCH_<name>.json output)
// live in bench/report.hpp so benches that do not build clusters can use
// them without the protocols headers.

// ------------------------------------------------------------- printing

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n(reproduces %s)\n", title, paper_ref);
  std::printf("================================================================\n");
}

inline std::string size_label(std::size_t bytes) { return format_size(bytes); }

}  // namespace nadfs::bench
