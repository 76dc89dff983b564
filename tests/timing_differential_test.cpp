// Differential harness for the NIC-path timing bookkeeping: proves the
// indexed structures answer exactly as the retained linear/map references
// (timing_reference.hpp) do.
//
// EgressQueueDifferential drives pspin::EgressQueue (issue-sorted slots
// with a span window, batched pruning) and ReferenceEgressQueue (erase all
// drained, scan all) in lockstep; GapServerDifferential drives the flat
// sim::GapServer and the std::map ReferenceGapServer on one simulator
// clock. Streams are seeded and cover out-of-order issue times, query times
// far ahead of now, depth 1 and 16, zero-duration windows, touching
// intervals (end == start) and prune boundaries (end == now). Every shape
// runs >= 10k ops under each of three seeds.
//
// Every assertion prints the shape and seed so a failure replays with
//   --gtest_filter=<Test> plus the seed hard-coded in kSeeds.
#include <gtest/gtest.h>

#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "pspin/egress_queue.hpp"
#include "sim/resource.hpp"
#include "sim/simulator.hpp"
#include "timing_reference.hpp"

namespace nadfs {
namespace {

constexpr std::uint64_t kSeeds[] = {0xE6E55, 0x5107, 0xD15C0};
constexpr int kOps = 12000;

bool chance(Rng& rng, unsigned pct) { return rng.next_below(100) < pct; }

/// A uniformly chosen element of `v` that is >= `floor`, or `fallback`.
TimePs pick_at_or_after(Rng& rng, const std::vector<TimePs>& v, TimePs floor, TimePs fallback) {
  std::vector<TimePs> ok;
  for (TimePs x : v) {
    if (x >= floor) ok.push_back(x);
  }
  return ok.empty() ? fallback : ok[rng.next_below(ok.size())];
}

/// The smallest element of `v` that is >= `floor` (the next prune
/// boundary), or `fallback`.
TimePs next_at_or_after(const std::vector<TimePs>& v, TimePs floor, TimePs fallback) {
  TimePs best = fallback;
  bool found = false;
  for (TimePs x : v) {
    if (x >= floor && (!found || x < best)) {
      best = x;
      found = true;
    }
  }
  return best;
}

// ------------------------------------------------ EgressQueueDifferential

struct EgressShape {
  const char* name;
  unsigned depth;
  TimePs max_step;   ///< now advances by up to this per advance
  TimePs max_ahead;  ///< want - now, up to this
  TimePs max_dur;    ///< drain - issue, up to this
  unsigned zero_pct; ///< zero-duration slots
  unsigned touch_pct;  ///< want / issue snapped onto a stored drain time
  unsigned snap_pct;   ///< now advanced exactly onto a stored drain time
};

/// Runs one seeded stream; returns false at the first divergence.
bool run_egress(const EgressShape& shape, std::uint64_t seed) {
  const std::string where = std::string(shape.name) + " seed=" + std::to_string(seed);
  Rng rng(seed);
  pspin::EgressQueue q(shape.depth);
  reference::ReferenceEgressQueue ref(shape.depth);
  TimePs now = 0;
  for (int op = 0; op < kOps; ++op) {
    if (chance(rng, 30)) {
      now = chance(rng, shape.snap_pct) ? next_at_or_after(ref.ends(), now, now)
                                        : now + rng.next_below(shape.max_step + 1);
    }
    TimePs want = now + rng.next_below(shape.max_ahead + 1);
    if (chance(rng, 10)) want = now;
    if (chance(rng, shape.touch_pct)) want = pick_at_or_after(rng, ref.ends(), now, want);

    const TimePs got = q.accept(want, now);
    const TimePs exp = ref.accept(want, now);
    if (got != exp) {
      ADD_FAILURE() << "accept(" << want << ", now=" << now << ") = " << got << ", reference "
                    << exp << " at op " << op << ", " << where;
      return false;
    }

    // Usually the accepted cursor issues (the device's use); sometimes the
    // raw query time, so issue times interleave out of order.
    const TimePs issue = chance(rng, 80) ? got : want;
    const TimePs dur = chance(rng, shape.zero_pct) ? 0 : 1 + rng.next_below(shape.max_dur);
    q.note(issue, issue + dur);
    ref.note(issue, issue + dur);

    for (const TimePs t : {now, want, issue + dur, now + rng.next_below(shape.max_ahead + 1)}) {
      if (q.in_flight(t) != ref.in_flight(t)) {
        ADD_FAILURE() << "in_flight(" << t << ") = " << q.in_flight(t) << ", reference "
                      << ref.in_flight(t) << " at op " << op << ", " << where;
        return false;
      }
    }
  }
  return true;
}

void run_egress_shape(const EgressShape& shape) {
  for (const std::uint64_t seed : kSeeds) {
    if (!run_egress(shape, seed)) return;
  }
}

// Steady contention: slots outlive many issues, so the queue is full most
// of the time and the nth-drain answer decides almost every accept.
TEST(EgressQueueDifferential, Depth1Contended) {
  run_egress_shape({"depth1-contended", 1, 40, 200, 30, 5, 10, 20});
}

TEST(EgressQueueDifferential, Depth16Contended) {
  run_egress_shape({"depth16-contended", 16, 100, 300, 500, 5, 10, 20});
}

// Query times far ahead of now with long drains: the store holds a deep
// backlog of future slots across many prunes.
TEST(EgressQueueDifferential, Depth16FarAhead) {
  run_egress_shape({"depth16-far-ahead", 16, 20000, 100000, 100000, 5, 10, 10});
}

// Mostly zero-duration and touching slots: end == issue never covers, an
// end equal to the query time never covers, and now lands on drain times.
TEST(EgressQueueDifferential, Depth1ZeroAndTouching) {
  run_egress_shape({"depth1-zero-touching", 1, 60, 60, 30, 40, 50, 50});
}

// Short-lived slots and large steps: most of the store is drained at each
// accept, so batched pruning and the span reset are exercised constantly.
TEST(EgressQueueDifferential, Depth16PruneHeavy) {
  run_egress_shape({"depth16-prune-heavy", 16, 400, 150, 1500, 10, 20, 40});
}

TEST(EgressQueueDifferential, RejectsQueryBeforeNow) {
  pspin::EgressQueue q(4);
  EXPECT_EQ(q.accept(10, 10), 10u);
  EXPECT_THROW(q.accept(9, 10), std::logic_error);
  EXPECT_THROW(pspin::EgressQueue{0}, std::invalid_argument);
}

// -------------------------------------------------- GapServerDifferential

struct GapShape {
  const char* name;
  TimePs max_step;    ///< now advances by up to this per advance
  TimePs max_ahead;   ///< earliest - now, up to this
  TimePs max_dur;
  unsigned zero_pct;  ///< zero-duration requests
  unsigned touch_pct; ///< earliest snapped onto an interval end, or an exact-fit gap
  unsigned snap_pct;  ///< now advanced exactly onto an interval end
  unsigned raw_pct;   ///< commit an arbitrary (possibly overlapping) window
};

std::vector<TimePs> interval_ends(const reference::ReferenceGapServer& ref) {
  std::vector<TimePs> out;
  for (const auto& [start, end] : ref.intervals()) out.push_back(end);
  return out;
}

bool run_gap(const GapShape& shape, std::uint64_t seed) {
  const std::string where = std::string(shape.name) + " seed=" + std::to_string(seed);
  Rng rng(seed);
  sim::Simulator sim;
  const Bandwidth rate = Bandwidth::from_gbps(400.0);
  sim::GapServer srv(sim, rate);
  reference::ReferenceGapServer ref(sim, rate);
  auto same = [&](const sim::Window& a, const sim::Window& b, const char* what, int op) {
    if (a.start == b.start && a.end == b.end) return true;
    ADD_FAILURE() << what << " = [" << a.start << "," << a.end << "), reference [" << b.start
                  << "," << b.end << ") at op " << op << ", now=" << sim.now() << ", " << where;
    return false;
  };

  for (int op = 0; op < kOps; ++op) {
    if (chance(rng, 25)) {
      const TimePs to = chance(rng, shape.snap_pct)
                            ? next_at_or_after(interval_ends(ref), sim.now(), sim.now())
                            : sim.now() + rng.next_below(shape.max_step + 1);
      sim.run_until(to);
    }
    const TimePs now = sim.now();
    TimePs earliest = chance(rng, 20) ? 0 : now + rng.next_below(shape.max_ahead + 1);
    TimePs dur = chance(rng, shape.zero_pct) ? 0 : 1 + rng.next_below(shape.max_dur);
    if (chance(rng, shape.touch_pct) && ref.interval_count() > 0) {
      // Snap onto an interval end; half the time ask for exactly the gap
      // up to the next interval, so the window touches both neighbours.
      const auto& iv = ref.intervals();
      auto it = std::next(iv.begin(), static_cast<std::ptrdiff_t>(rng.next_below(iv.size())));
      earliest = std::max(now, it->second);
      const auto nxt = std::next(it);
      if (chance(rng, 50) && nxt != iv.end() && nxt->first > earliest) {
        dur = nxt->first - earliest;
      }
    }

    const unsigned kind = static_cast<unsigned>(rng.next_below(100));
    if (kind < shape.raw_pct) {
      const TimePs s = now + rng.next_below(shape.max_ahead + 1);
      srv.commit({s, s + dur});
      ref.commit({s, s + dur});
    } else if (kind < 40) {
      if (!same(srv.plan_time(dur, earliest), ref.plan_time(dur, earliest), "plan_time", op)) {
        return false;
      }
    } else if (kind < 50) {
      const std::size_t bytes = rng.next_below(shape.max_dur / 20 + 1);  // 20 ps/B
      if (!same(srv.reserve(bytes, earliest), ref.reserve(bytes, earliest), "reserve", op)) {
        return false;
      }
    } else if (kind < 75) {
      const sim::Window w = srv.plan_time(dur, earliest);
      if (!same(w, ref.plan_time(dur, earliest), "plan_time", op)) return false;
      srv.commit(w);
      ref.commit(w);
    } else {
      if (!same(srv.reserve_time(dur, earliest), ref.reserve_time(dur, earliest), "reserve_time",
                op)) {
        return false;
      }
    }

    if (srv.interval_count() != ref.interval_count() || srv.horizon() != ref.horizon()) {
      ADD_FAILURE() << "interval_count/horizon = " << srv.interval_count() << "/" << srv.horizon()
                    << ", reference " << ref.interval_count() << "/" << ref.horizon() << " at op "
                    << op << ", now=" << now << ", " << where;
      return false;
    }
  }
  return true;
}

void run_gap_shape(const GapShape& shape) {
  for (const std::uint64_t seed : kSeeds) {
    if (!run_gap(shape, seed)) return;
  }
}

// Link-like: short jobs, near-future ready times, steady advance.
TEST(GapServerDifferential, NearFutureFill) {
  run_gap_shape({"near-future", 200, 2000, 300, 5, 15, 15, 0});
}

// Ready times far ahead of now: a long fragmented calendar that is filled
// out of order, with prunes stepping over long dead prefixes.
TEST(GapServerDifferential, FarAheadFragmented) {
  run_gap_shape({"far-ahead", 6000, 200000, 300, 5, 15, 10, 0});
}

// Zero-duration requests, exact-fit gaps and touching windows: coalescing
// of end == start neighbours decides interval_count.
TEST(GapServerDifferential, ZeroAndTouching) {
  run_gap_shape({"zero-touching", 50, 500, 100, 30, 60, 40, 0});
}

// Arbitrary commits that overlap several intervals: the coalesce must
// absorb the whole overlapped run, not just the neighbours.
TEST(GapServerDifferential, OverlappingCommits) {
  run_gap_shape({"overlapping", 300, 5000, 800, 5, 20, 20, 20});
}

// Large steps with now landing exactly on interval ends: most intervals die
// between ops, so the dead prefix and compaction are exercised constantly.
TEST(GapServerDifferential, PruneHeavy) {
  run_gap_shape({"prune-heavy", 3000, 1500, 400, 5, 20, 60, 5});
}

}  // namespace
}  // namespace nadfs
