// Hot-path allocation guard (DESIGN.md §3j).
//
// This binary replaces the global operator new/delete with counting
// versions, warms up a star cluster with plain-layout writes and reads, and
// then bounds the heap allocations per round (one write and one read, a
// fixed set of packets) over a measured loop of the same ops. The bound is pinned at the count the current code
// reaches, so a change that puts an allocation back on the per-packet path
// (a hop closure that spills out of EventFn's inline buffer, a payload
// copied for a storage DMA, a per-run command vector) fails here.
//
// The count covers the whole op, client included: packetizing a write and
// reassembling a read allocate payload buffers that the op needs. Counts
// are a pure function of the code and the op sequence; the simulator runs
// on one thread.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "services/client.hpp"
#include "services/cluster.hpp"

namespace {

std::uint64_t g_allocations = 0;

void* counted_alloc(std::size_t n) {
  ++g_allocations;
  return std::malloc(n == 0 ? 1 : n);
}

void* counted_aligned_alloc(std::size_t n, std::align_val_t al) {
  ++g_allocations;
  const auto a = static_cast<std::size_t>(al);
  return std::aligned_alloc(a, (n + a - 1) / a * a);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every replaceable form, so no allocation escapes the count and every
// delete matches the malloc behind its new (sanitizer builds check that).
void* operator new(std::size_t n) { return checked(counted_alloc(n)); }
void* operator new[](std::size_t n) { return checked(counted_alloc(n)); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t al) {
  return checked(counted_aligned_alloc(n, al));
}
void* operator new[](std::size_t n, std::align_val_t al) {
  return checked(counted_aligned_alloc(n, al));
}
void* operator new(std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void* operator new[](std::size_t n, std::align_val_t al, const std::nothrow_t&) noexcept {
  return counted_aligned_alloc(n, al);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace nadfs {
namespace {

using services::Client;
using services::Cluster;
using services::ClusterConfig;
using services::FilePolicy;

struct Measured {
  std::uint64_t allocations = 0;
  int failed_ops = 0;
};

/// QD1 loop on one client: each round writes 16 KiB at a rotating offset
/// of a plain object, then reads it back (two ops, 8 data packets each way
/// plus control packets; 19 delivered packets in all). Returns the
/// allocations over the `measured` rounds that follow `warmup` uncounted
/// ones.
Measured run_plain_loop(int warmup, int measured) {
  ClusterConfig cfg;
  cfg.storage_nodes = 4;
  Cluster cluster(cfg);
  Client client(cluster, 0);
  constexpr std::uint64_t kObject = 1 * MiB;
  constexpr std::uint32_t kOp = 16 * KiB;
  const auto& layout = cluster.metadata().create("hot", kObject, FilePolicy{});
  const auto cap = cluster.metadata().grant(client.client_id(), layout, auth::Right::kReadWrite);
  Bytes data(kOp);
  for (std::size_t i = 0; i < data.size(); ++i) data[i] = static_cast<std::uint8_t>(i * 7);

  Measured m;
  std::uint64_t alloc0 = 0;
  for (int round = 0; round < warmup + measured; ++round) {
    if (round == warmup) alloc0 = g_allocations;
    const std::uint64_t off = static_cast<std::uint64_t>(round % 32) * kOp;
    client.write_at(layout, cap, off, data, [&](dfs::DfsError err, TimePs) {
      if (err != dfs::DfsError::kOk) ++m.failed_ops;
    });
    cluster.sim().run();
    client.read_at(layout, cap, off, kOp, [&](dfs::DfsError err, Bytes got, TimePs) {
      if (err != dfs::DfsError::kOk || got != data) ++m.failed_ops;
    });
    cluster.sim().run();
  }
  m.allocations = g_allocations - alloc0;
  EXPECT_EQ(cluster.network().in_flight_packets(), 0u);
  return m;
}

TEST(HotPathAlloc, PlainWriteReadLoopOnStarStaysUnderBound) {
  constexpr int kRounds = 256;
  const Measured m = run_plain_loop(/*warmup=*/64, kRounds);
  ASSERT_EQ(m.failed_ops, 0);
  // Pinned at the current count: 14096 allocations over 256 rounds (55.06
  // per round, 2.90 per delivered packet). What is left is the op's own
  // payload and bookkeeping: one buffer per packetized write packet and per
  // read-response packet, plus per-op client state, headers and callbacks.
  // Before the in-flight slab, the payload DMA views, the reused command
  // buffer and the timing-only replay reads, the same loop made 32016
  // allocations (125.06 per round, 6.58 per packet).
  constexpr std::uint64_t kMaxAllocations = 14096;
  EXPECT_LE(m.allocations, kMaxAllocations) << "over " << kRounds << " write+read rounds";
}

TEST(HotPathAlloc, CounterSeesAllocations) {
  // The guard is only as good as its counter: a plain new must register.
  // The volatile sink keeps the compiler from eliding the new/delete pair.
  static std::uint64_t* volatile sink = nullptr;
  const std::uint64_t before = g_allocations;
  sink = new std::uint64_t(7);
  const std::uint64_t after = g_allocations;
  delete sink;
  EXPECT_EQ(after, before + 1);
}

}  // namespace
}  // namespace nadfs
