// Tests of the observability subsystem (src/obs): metric instruments and
// registry round-trips, the strict JSON reader, the sim-time sampler, the
// cross-layer span tracer, and — the property everything else leans on —
// digest-neutrality: attaching the tracer and reading the registry must
// not change what a run computes.
#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <sstream>

#include "common/rng.hpp"
#include "common/stats.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/sampler.hpp"
#include "obs/span.hpp"
#include "services/client.hpp"
#include "services/cluster.hpp"

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;

Bytes random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.next_byte();
  return out;
}

// ----------------------------------------------------------- instruments

TEST(ObsCounter, BehavesLikeTheRawInteger) {
  obs::Counter c;
  EXPECT_EQ(c, 0u);
  ++c;
  c += 4;
  c.inc();
  EXPECT_EQ(c, 6u);
  EXPECT_EQ(c.value(), 6u);
  const std::uint64_t as_int = c;  // implicit read, like the uint64 it replaced
  EXPECT_EQ(as_int, 6u);
  EXPECT_EQ(*c.cell(), 6u);
}

TEST(ObsSketch, IndexOfEdges) {
  using S = obs::QuantileSketch;
  // Sub-ns durations (and 1 ns) share bucket 0; huge ones clamp to the last.
  EXPECT_EQ(S::index_of(0), 0u);
  EXPECT_EQ(S::index_of(999), 0u);
  EXPECT_EQ(S::index_of(ns(1)), 0u);
  EXPECT_EQ(S::index_of(~0ull), S::kBuckets - 1);
  // Major 10 spans [1024, 2048) ns in 32 slices of 32 ns each.
  EXPECT_EQ(S::index_of(ns(1024)), 10 * S::kSub);
  EXPECT_EQ(S::index_of(ns(1024 + 31)), 10 * S::kSub);
  EXPECT_EQ(S::index_of(ns(1024 + 32)), 10 * S::kSub + 1);
  EXPECT_EQ(S::index_of(ns(2047)), 10 * S::kSub + S::kSub - 1);
  EXPECT_EQ(S::index_of(ns(2048)), 11 * S::kSub);
  // Every sub-bucket's bounds bracket the durations it counts.
  for (const std::uint64_t d : {ns(2), ns(3), ns(1024), ns(2047), us(5), ms(3)}) {
    const std::size_t i = S::index_of(d);
    EXPECT_LE(S::bucket_lo_ns(i), static_cast<double>(d / 1000)) << d;
    EXPECT_LT(static_cast<double>(d / 1000), S::bucket_hi_ns(i)) << d;
  }
}

TEST(ObsSketch, CountSumMinMax) {
  obs::QuantileSketch s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.min_ps(), 0u);
  EXPECT_EQ(s.quantile_ps(0.5), 0u);
  s.record(ns(3));
  s.record(ns(1));
  s.record(us(1));
  EXPECT_EQ(s.count(), 3u);
  EXPECT_EQ(s.sum_ps(), ns(4) + us(1));
  EXPECT_EQ(s.min_ps(), ns(1));
  EXPECT_EQ(s.max_ps(), us(1));
  EXPECT_EQ(s.bucket(obs::QuantileSketch::index_of(ns(3))), 1u);
  EXPECT_EQ(s.bucket(obs::QuantileSketch::index_of(us(1))), 1u);
}

TEST(ObsSketch, RepeatedValueQuantileIsExact) {
  obs::QuantileSketch s;
  const std::uint64_t v = 7321;  // ps, deliberately not on a bucket bound
  for (int i = 0; i < 100; ++i) s.record(v);
  for (const double q : {0.0, 0.01, 0.5, 0.99, 1.0}) EXPECT_EQ(s.quantile_ps(q), v) << q;
}

TEST(ObsSketch, QuantilesTrackExactPercentilesWithinOneSubBucket) {
  // Seeded log-normal latencies: median ~5 us, a long right tail.
  Rng rng(2026);
  obs::QuantileSketch s;
  Summary exact;
  for (int i = 0; i < 20000; ++i) {
    const double u1 = 1.0 - rng.next_double();  // (0, 1]
    const double u2 = rng.next_double();
    const double z = std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * std::numbers::pi * u2);
    const auto ps = static_cast<std::uint64_t>(std::exp(std::log(5e6) + 0.6 * z));
    s.record(ps);
    exact.add(static_cast<double>(ps));
  }
  for (const double q : {0.50, 0.90, 0.99}) {
    const double want = exact.percentile(q * 100.0);
    const auto got = static_cast<double>(s.quantile_ps(q));
    EXPECT_NEAR(got, want, want / obs::QuantileSketch::kSub) << "q=" << q;
  }
}

TEST(ObsSketch, MergeEqualsRecordingTheUnion) {
  Rng rng(7);
  obs::QuantileSketch a, b, both;
  for (int i = 0; i < 500; ++i) {
    const std::uint64_t v = rng.next_range(ns(100), us(50));
    (i % 3 == 0 ? a : b).record(v);
    both.record(v);
  }
  obs::QuantileSketch merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.count(), both.count());
  EXPECT_EQ(merged.sum_ps(), both.sum_ps());
  EXPECT_EQ(merged.min_ps(), both.min_ps());
  EXPECT_EQ(merged.max_ps(), both.max_ps());
  for (std::size_t i = 0; i < obs::QuantileSketch::kBuckets; ++i) {
    ASSERT_EQ(merged.bucket(i), both.bucket(i)) << "bucket " << i;
  }
  // Merging an empty sketch changes nothing, in either direction.
  obs::QuantileSketch empty;
  merged.merge(empty);
  EXPECT_EQ(merged.count(), both.count());
  empty.merge(both);
  EXPECT_EQ(empty.min_ps(), both.min_ps());
  EXPECT_EQ(empty.quantile_ps(0.99), both.quantile_ps(0.99));
}

// -------------------------------------------------------------- registry

TEST(ObsRegistry, SnapshotAndJsonRoundTrip) {
  obs::MetricRegistry reg;
  obs::Counter acks;
  std::uint64_t raw_cell = 0;
  obs::QuantileSketch lat;
  int depth = 0;
  reg.counter("node1.dfs.acks", acks);
  reg.counter_cell("node1.nic.raw", &raw_cell);
  reg.gauge("node1.queue_depth", [&depth] { return static_cast<long long>(depth); });
  reg.sketch("client0.latency", lat);

  acks += 3;
  raw_cell = 7;
  depth = 42;
  lat.record(us(2));

  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.at("node1.dfs.acks"), 3);
  EXPECT_EQ(snap.at("node1.nic.raw"), 7);
  EXPECT_EQ(snap.at("node1.queue_depth"), 42);
  EXPECT_EQ(snap.at("client0.latency.count"), 1);
  EXPECT_EQ(snap.at("client0.latency.sum_ps"), static_cast<long long>(us(2)));
  EXPECT_EQ(snap.at("client0.latency.max_ps"), static_cast<long long>(us(2)));
  const auto sub = "client0.latency.s" + std::to_string(obs::QuantileSketch::index_of(us(2)));
  EXPECT_EQ(snap.at(sub), 1);

  // The JSON export parses back to exactly the snapshot.
  std::string err;
  const auto parsed = obs::parse_flat_object(reg.to_json(), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  EXPECT_EQ(*parsed, snap);
}

TEST(ObsRegistry, RemovePrefixDropsOnlyThatSubtree) {
  obs::MetricRegistry reg;
  obs::Counter a, b;
  reg.counter("client1.retries", a);
  reg.counter("client10.retries", b);  // shares the string prefix "client1"
  reg.counter("net.drops", b);
  reg.remove_prefix("client1.");
  const auto snap = reg.snapshot();
  EXPECT_EQ(snap.count("client1.retries"), 0u);
  EXPECT_EQ(snap.count("client10.retries"), 1u);
  EXPECT_EQ(snap.count("net.drops"), 1u);
}

TEST(ObsRegistry, ClientBindsAndUnbindsItself) {
  Cluster cluster;
  const auto before = cluster.metrics().size();
  {
    Client client(cluster, 0);
    const auto snap = cluster.metrics().snapshot();
    const std::string prefix = "client" + std::to_string(client.client_id());
    EXPECT_EQ(snap.count(prefix + ".retries_performed"), 1u);
    EXPECT_EQ(snap.count(prefix + ".pending_ops"), 1u);
    EXPECT_EQ(snap.count(prefix + ".write_latency.count"), 1u);
  }
  // Destroyed client removed its subtree; nothing dangles.
  EXPECT_EQ(cluster.metrics().size(), before);
}

// ----------------------------------------------------------- JSON reader

TEST(ObsJson, AcceptsValidDocuments) {
  EXPECT_TRUE(obs::json_valid("{}"));
  EXPECT_TRUE(obs::json_valid("[1, 2.5, -3e2, \"a\\u00e9b\", true, null, {\"k\":[]}]"));
  const auto doc = obs::json_parse("{\"a\": {\"b\": [1, 2]}, \"c\": \"x\"}");
  ASSERT_TRUE(doc.has_value());
  ASSERT_NE(doc->find("a"), nullptr);
  EXPECT_EQ(doc->find("a")->find("b")->arr.size(), 2u);
  EXPECT_EQ(doc->find("c")->str, "x");
  EXPECT_EQ(doc->find("missing"), nullptr);
}

TEST(ObsJson, RejectsInvalidDocuments) {
  EXPECT_FALSE(obs::json_valid(""));
  EXPECT_FALSE(obs::json_valid("{"));
  EXPECT_FALSE(obs::json_valid("{} trailing"));
  EXPECT_FALSE(obs::json_valid("{'single': 1}"));
  EXPECT_FALSE(obs::json_valid("[1,]"));
  EXPECT_FALSE(obs::json_valid("01"));
  EXPECT_FALSE(obs::json_valid("\"bad \\x escape\""));
  std::string err;
  EXPECT_FALSE(obs::json_valid("[1, }", &err));
  EXPECT_FALSE(err.empty());
}

TEST(ObsJson, FlatObjectRejectsNonIntegers) {
  EXPECT_TRUE(obs::parse_flat_object("{\"a\": 1, \"b\": -2}").has_value());
  EXPECT_FALSE(obs::parse_flat_object("{\"a\": 1.5}").has_value());
  EXPECT_FALSE(obs::parse_flat_object("{\"a\": \"x\"}").has_value());
  EXPECT_FALSE(obs::parse_flat_object("[1]").has_value());
}

// --------------------------------------------------------------- sampler

TEST(ObsSampler, SamplesOnCadenceAndExports) {
  sim::Simulator sim;
  obs::Sampler sampler(sim);
  int depth = 0;
  sampler.add_probe("depth", [&depth] { return static_cast<double>(depth); });
  sampler.start(us(10));
  sim.schedule(us(25), [&depth] { depth = 5; });
  sim.run_until(us(45));
  sampler.stop();
  sim.run();

  ASSERT_EQ(sampler.rows().size(), 4u);  // t = 10, 20, 30, 40 us
  EXPECT_EQ(sampler.rows()[0].t_ps, us(10));
  EXPECT_EQ(sampler.rows()[1].v[0], 0.0);
  EXPECT_EQ(sampler.rows()[2].v[0], 5.0);

  std::ostringstream csv;
  sampler.export_csv(csv);
  EXPECT_EQ(csv.str().substr(0, 11), "t_ns,depth\n");

  std::ostringstream json;
  sampler.export_json(json);
  std::string err;
  const auto doc = obs::json_parse(json.str(), &err);
  ASSERT_TRUE(doc.has_value()) << err;
  EXPECT_EQ(doc->find("series")->arr.size(), 2u);
  EXPECT_EQ(doc->find("rows")->arr.size(), 4u);
}

// ---------------------------------------------------- digest-neutrality

/// Everything observable about a seeded replicated+EC workload, including
/// the executed-event count (the strictest neutrality witness).
std::uint64_t run_workload_digest(bool traced) {
  ClusterConfig cfg;
  cfg.storage_nodes = 5;
  cfg.clients = 2;
  Cluster cluster(cfg);
  obs::SpanTracer tracer;
  if (traced) cluster.set_tracer(&tracer);

  Client c0(cluster, 0);
  Client c1(cluster, 1);
  FilePolicy repl;
  repl.resiliency = dfs::Resiliency::kReplication;
  repl.repl_k = 3;
  FilePolicy ec;
  ec.resiliency = dfs::Resiliency::kErasureCoding;
  ec.ec_k = 3;
  ec.ec_m = 2;

  const auto& l0 = cluster.metadata().create("r", 20000, repl);
  const auto& l1 = cluster.metadata().create("e", 30000, ec);
  const auto cap0 = cluster.metadata().grant(c0.client_id(), l0, auth::Right::kWrite);
  const auto cap1 = cluster.metadata().grant(c1.client_id(), l1, auth::Right::kWrite);

  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= static_cast<std::uint8_t>(v >> (8 * i));
      h *= 1099511628211ull;
    }
  };
  c0.write(l0, cap0, random_bytes(20000, 7), [&](dfs::DfsError err, TimePs at) {
    mix(err == dfs::DfsError::kOk);
    mix(at);
  });
  c1.write(l1, cap1, random_bytes(30000, 9), [&](dfs::DfsError err, TimePs at) {
    mix(err == dfs::DfsError::kOk);
    mix(at);
  });
  cluster.sim().run();

  if (traced) {
    // Reading the registry mid-flight is the documented usage; fold a
    // snapshot read in so the test covers it, but never into the digest.
    EXPECT_GT(cluster.metrics().snapshot().size(), 0u);
    EXPECT_GT(tracer.size(), 0u);
  }
  for (std::size_t n = 0; n < cluster.storage_node_count(); ++n) {
    mix(cluster.storage_node(n).target().bytes_written());
    mix(cluster.storage_node(n).dfs_state()->acks_sent);
    mix(cluster.storage_node(n).dfs_state()->cleanups);
  }
  mix(cluster.sim().now());
  mix(cluster.sim().executed_events());
  return h;
}

TEST(ObsNeutrality, TracerAndRegistryDoNotPerturbTheRun) {
  // Span tracing and metric registration/reads add zero simulator events
  // and zero RNG draws, so the full digest — executed_events included —
  // is identical with the whole stack attached. (The sampler is the
  // documented exception: its Periodic ticks add events; see DESIGN.md
  // §3c.)
  EXPECT_EQ(run_workload_digest(false), run_workload_digest(true));
}

}  // namespace
}  // namespace nadfs
