// Differential scheduler harness: proves the event queue
// (src/sim/event_queue.hpp) pops in exactly the order of the reference
// binary heap (sim_reference_heap.hpp).
//
// SchedulerOracle drives sim::EventQueue and the reference heap in
// lockstep through seeded randomized adversarial workloads — same-timestamp
// tie storms, schedule-from-pop re-entrancy, horizon-crossing delays,
// drain/refill cycles across timescales — asserting identical
// (when, seq, payload) at every pop and identical sizes at every step. A
// second, simulator-level harness runs the real sim::Simulator against a
// reference-heap simulator clone and compares the now() trajectory, firing
// order, and executed_events(). EventQueue.* unit checks cover peek and
// payload-slot reuse.
//
// Every assertion prints the workload seed so a failure replays with
//   --gtest_filter=<Test> plus the seed hard-coded in kSeeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "sim/event_queue.hpp"
#include "sim/simulator.hpp"
#include "sim_reference_heap.hpp"

namespace nadfs::sim {
namespace {

constexpr std::uint64_t kSeeds[] = {0xA11CE, 0xB0B, 0xC0FFEE};

// ------------------------------------------------------- SchedulerOracle

/// Drives the event queue and the reference heap in lockstep. Payloads
/// are ids distinct from seq (id = 2*counter + 1) so a payload routed to
/// the wrong entry is caught even where seq happens to match.
class SchedulerOracle {
 public:
  explicit SchedulerOracle(std::uint64_t seed) : seed_(seed) {}

  ~SchedulerOracle() {
    EXPECT_EQ(q_.size(), ref_.size()) << "final size mismatch, seed=" << seed_;
  }

  /// Enqueue one event `delay` after the current (last-popped) time.
  void push(TimePs delay) {
    const TimePs when = now_ + delay;
    const std::uint64_t id = 2 * next_id_++ + 1;
    const std::uint64_t s1 = q_.push(when, id);
    const std::uint64_t s2 = ref_.push(when, id);
    EXPECT_EQ(s1, s2) << "seq assignment diverged, seed=" << seed_;
    ++ops_;
  }

  /// Pop from both queues and assert identical (when, seq, payload).
  /// Returns false once a divergence has been observed (callers bail out).
  bool pop() {
    if (dead_) return false;
    if (q_.empty() || ref_.empty()) {
      if (q_.empty() != ref_.empty()) fail("one queue empty, the other not");
      return false;
    }
    const auto* qp = q_.peek();
    const auto* rp = ref_.peek();
    if (qp->when != rp->when || qp->seq != rp->seq || q_.payload(*qp) != rp->payload) {
      fail("peek mismatch");
      return false;
    }
    auto qe = q_.pop();
    auto re = ref_.pop();
    if (qe.when != re.when || qe.seq != re.seq || qe.payload != re.payload) {
      ADD_FAILURE() << "pop mismatch at op " << ops_ << ", seed=" << seed_ << ": queue ("
                    << qe.when << "," << qe.seq << "," << qe.payload << ") vs reference ("
                    << re.when << "," << re.seq << "," << re.payload << ")";
      dead_ = true;
      return false;
    }
    if (q_.size() != ref_.size()) {
      fail("size mismatch after pop");
      return false;
    }
    now_ = qe.when;
    ++ops_;
    return true;
  }

  void drain() {
    while (!done() && pop()) {
    }
  }

  bool done() const { return dead_ || (q_.empty() && ref_.empty()); }
  bool diverged() const { return dead_; }
  TimePs now() const { return now_; }
  std::size_t pending() const { return q_.size(); }
  std::uint64_t ops() const { return ops_; }

 private:
  void fail(const char* what) {
    ADD_FAILURE() << what << " at op " << ops_ << ", seed=" << seed_;
    dead_ = true;
  }

  std::uint64_t seed_;
  TimePs now_ = 0;
  std::uint64_t next_id_ = 0;
  std::uint64_t ops_ = 0;
  bool dead_ = false;
  EventQueue<std::uint64_t> q_;
  ReferenceEventHeap<std::uint64_t> ref_;
};

/// Runs `workload(oracle, rng)` for every seed, then drains and checks
/// the ≥10k-op floor the acceptance criteria set.
template <typename Workload>
void run_differential(Workload workload) {
  for (const std::uint64_t seed : kSeeds) {
    SchedulerOracle oracle(seed);
    Rng rng(seed);
    workload(oracle, rng);
    oracle.drain();
    EXPECT_FALSE(oracle.diverged()) << "seed=" << seed;
    EXPECT_GE(oracle.ops(), 10000u) << "workload too small to be meaningful, seed=" << seed;
  }
}

// ------------------------------------------------- adversarial workloads

TEST(SimQueueDifferential, UniformWideRange) {
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 8000; ++i) q.push(rng.next_below(TimePs{1} << 30));
  });
}

TEST(SimQueueDifferential, SameTimestampTieStorm) {
  // Every event of a round lands on one timestamp: the whole population
  // ties on time and must still drain in exact seq order.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int round = 0; round < 3; ++round) {
      const TimePs at = rng.next_range(1, ns(50));
      for (int i = 0; i < 4000; ++i) q.push(at);
      q.drain();
    }
  });
}

TEST(SimQueueDifferential, FewDistinctTimesHeavyTies) {
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 12000 && !q.diverged(); ++i) {
      if (rng.next_below(10) < 6 || q.pending() == 0) {
        q.push(rng.next_below(8) * ns(1));
      } else {
        q.pop();
      }
    }
  });
}

TEST(SimQueueDifferential, BurstyClusters) {
  // The paper's goodput shape: sparse cluster bases, 48-event bursts
  // packed within ~128 ps of each base.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int c = 0; c < 200; ++c) {
      const TimePs base = rng.next_below(ms(1));
      for (int i = 0; i < 48; ++i) q.push(base + rng.next_below(128));
      for (int i = 0; i < 24; ++i) q.pop();
    }
  });
}

TEST(SimQueueDifferential, ReentrantScheduleFromPop) {
  // Models schedule-from-inside-callback: every pop may push follow-ups
  // at the just-popped time (delay 0 → ties with the rest of the current
  // timestamp) or shortly after.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 2000; ++i) q.push(rng.next_below(us(1)));
    int push_budget = 10000;
    while (!q.done()) {
      if (!q.pop()) break;
      const std::uint64_t r = rng.next();
      if (push_budget > 0 && (r & 1) != 0) {
        const int kids = 1 + static_cast<int>((r >> 1) & 1);
        for (int k = 0; k < kids && push_budget > 0; --push_budget, ++k) {
          q.push((r >> (2 + k)) % 4 == 0 ? 0 : rng.next_below(ns(100)));
        }
      }
    }
  });
}

TEST(SimQueueDifferential, HorizonCrossingDelays) {
  // 30% of delays land up to 2^50 ps out, interleaved with ns-scale
  // delays and pops: far-future entries sit deep while near ones churn.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 12000 && !q.diverged(); ++i) {
      const std::uint64_t r = rng.next_below(10);
      if (r < 3) {
        q.push(rng.next_below(TimePs{1} << 50));
      } else if (r < 7 || q.pending() == 0) {
        q.push(rng.next_below(4096));
      } else {
        q.pop();
      }
    }
  });
}

TEST(SimQueueDifferential, DrainRefillAcrossTimescales) {
  // Full drain/refill cycles with the delay scale growing 64x per cycle:
  // the queue empties and refills at a new timescale each time.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int cycle = 0; cycle < 6; ++cycle) {
      const TimePs scale = TimePs{1} << (4 + 6 * cycle);
      for (int i = 0; i < 2000; ++i) q.push(rng.next_below(scale));
      q.drain();
    }
  });
}

TEST(SimQueueDifferential, MonotoneSteadyStateChain) {
  // FIFO-shaped steady state (packet serialization cadence): one push at
  // now + 41 ns per pop, small constant backlog.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 64; ++i) q.push(rng.next_below(ns(41)));
    for (int i = 0; i < 10000 && !q.done(); ++i) {
      q.push(ns(41) + rng.next_below(16));
      q.pop();
    }
  });
}

TEST(SimQueueDifferential, ZeroDelayStormDuringDrain) {
  // Pushes at exactly the just-popped timestamp while that timestamp is
  // still being consumed: new ties must pop after the older ones.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 4000; ++i) q.push(rng.next_below(us(1)));
    int push_budget = 8000;
    int popped = 0;
    while (!q.done()) {
      if (!q.pop()) break;
      if (push_budget > 0 && ++popped % 4 == 0) {
        q.push(0);
        q.push(0);
        push_budget -= 2;
      }
    }
  });
}

TEST(SimQueueDifferential, GeometricScaleMix) {
  // Delays spanning 45 binary orders of magnitude with random push/pop
  // mix: keys of every magnitude sift past each other in both directions.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 12000 && !q.diverged(); ++i) {
      if (rng.next_below(2) == 0 || q.pending() == 0) {
        const unsigned mag = static_cast<unsigned>(rng.next_below(45));
        q.push((TimePs{1} << mag) + rng.next_below((TimePs{1} << mag) + 1));
      } else {
        q.pop();
      }
    }
  });
}

TEST(SimQueueDifferential, RandomAdversarialMix) {
  // Everything at once: tie bursts, zero delays, horizon jumps, deep
  // drains — the closest to a fuzzer this harness gets.
  run_differential([](SchedulerOracle& q, Rng& rng) {
    for (int i = 0; i < 6000 && !q.diverged(); ++i) {
      switch (rng.next_below(8)) {
        case 0: {  // tie burst
          const TimePs at = rng.next_below(us(10));
          for (int k = 0; k < 16; ++k) q.push(at);
          break;
        }
        case 1:  // zero delay
          q.push(0);
          break;
        case 2:  // far future
          q.push(rng.next_below(TimePs{1} << 52));
          break;
        case 3: {  // deep drain
          for (int k = 0; k < 64 && q.pending() > 0; ++k) q.pop();
          break;
        }
        default:
          if (rng.next_below(3) == 0 && q.pending() > 0) {
            q.pop();
          } else {
            q.push(rng.next_below(us(1)));
          }
      }
    }
  });
}

// ---------------------------------------- simulator-level differential

/// Faithful clone of the original Simulator, over the reference heap:
/// same schedule/step/run semantics, same past-scheduling error.
class RefSimulator {
 public:
  TimePs now() const { return now_; }
  void schedule(TimePs delay, EventFn fn) { schedule_at(now_ + delay, std::move(fn)); }
  void schedule_at(TimePs when, EventFn fn) {
    if (when < now_) {
      throw std::logic_error("RefSimulator::schedule_at: event scheduled in the past");
    }
    q_.push(when, std::move(fn));
  }
  bool step() {
    if (q_.empty()) return false;
    auto ev = q_.pop();
    now_ = ev.when;
    ++executed_;
    ev.payload();
    return true;
  }
  std::size_t pending_events() const { return q_.size(); }
  std::uint64_t executed_events() const { return executed_; }

 private:
  TimePs now_ = 0;
  std::uint64_t executed_ = 0;
  ReferenceEventHeap<EventFn> q_;
};

struct SimTrace {
  std::vector<std::pair<TimePs, int>> fired;  // (now at firing, event id)
  std::vector<TimePs> now_after_step;
  std::uint64_t executed = 0;
};

/// Re-entrant workload: callbacks draw from the (deterministic) rng to
/// spawn 0–2 children each, a quarter of them at delay 0 (same-time
/// ties scheduled from inside the running event).
template <typename SimT>
class ReentrantDriver {
 public:
  explicit ReentrantDriver(std::uint64_t seed) : rng_(seed) {}

  SimTrace run() {
    for (int i = 0; i < 100; ++i) {
      --budget_;
      schedule_one(rng_.next_below(us(1)));
    }
    while (sim_.step()) {
      trace_.now_after_step.push_back(sim_.now());
    }
    trace_.executed = sim_.executed_events();
    return std::move(trace_);
  }

 private:
  void schedule_one(TimePs delay) {
    const int id = next_id_++;
    sim_.schedule(delay, [this, id] {
      trace_.fired.emplace_back(sim_.now(), id);
      const std::uint64_t r = rng_.next();
      const int kids = static_cast<int>(r % 4);  // avg 1.5: supercritical, budget-capped
      for (int k = 0; k < kids && budget_ > 0; ++k) {
        --budget_;
        const std::uint64_t d = rng_.next();
        schedule_one(d % 4 == 0 ? 0 : d % us(2));
      }
    });
  }

  SimT sim_;
  Rng rng_;
  int budget_ = 4000;
  int next_id_ = 0;
  SimTrace trace_;
};

TEST(SimQueueDifferential, SimulatorMatchesReferenceHeapSimulator) {
  for (const std::uint64_t seed : kSeeds) {
    SimTrace sim = ReentrantDriver<Simulator>(seed).run();
    SimTrace ref = ReentrantDriver<RefSimulator>(seed).run();
    EXPECT_EQ(sim.executed, ref.executed) << "seed=" << seed;
    EXPECT_GE(sim.executed, 3000u) << "seed=" << seed;
    ASSERT_EQ(sim.fired.size(), ref.fired.size()) << "seed=" << seed;
    EXPECT_EQ(sim.fired, ref.fired) << "firing order diverged, seed=" << seed;
    EXPECT_EQ(sim.now_after_step, ref.now_after_step)
        << "now() trajectory diverged, seed=" << seed;
  }
}

// ---------------------------------------------- event-queue unit checks

TEST(EventQueue, PeekIsStableAndMatchesPop) {
  EventQueue<int> q;
  q.push(ns(7), 1);
  q.push(ns(3), 2);
  q.push(ns(3), 3);
  const auto* p = q.peek();
  ASSERT_NE(p, nullptr);
  EXPECT_EQ(p->when, ns(3));
  EXPECT_EQ(q.payload(*p), 2);  // earliest time, lowest seq
  EXPECT_EQ(q.peek(), p);       // peeking again changes nothing
  const auto e = q.pop();
  EXPECT_EQ(e.when, ns(3));
  EXPECT_EQ(e.payload, 2);
  EXPECT_EQ(q.pop().payload, 3);
  EXPECT_EQ(q.pop().payload, 1);
  EXPECT_EQ(q.peek(), nullptr);
}

/// Move-only payload that counts live instances: a moved-from Tracked owns
/// nothing, so `live` counts exactly the payloads the queue (or the test)
/// still holds, and `destroyed[id]` catches a double destruction.
struct Tracked {
  struct Counters {
    int live = 0;
    std::vector<int> destroyed;
  };
  Tracked(Counters& c, int id) : c_(&c), id_(id) { ++c_->live; }
  Tracked(Tracked&& o) noexcept : c_(std::exchange(o.c_, nullptr)), id_(o.id_) {}
  Tracked& operator=(Tracked&& o) noexcept {
    release();
    c_ = std::exchange(o.c_, nullptr);
    id_ = o.id_;
    return *this;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { release(); }
  int id() const { return id_; }

 private:
  void release() {
    if (c_ == nullptr) return;
    --c_->live;
    ++c_->destroyed[static_cast<std::size_t>(id_)];
    c_ = nullptr;
  }
  Counters* c_;
  int id_;
};

TEST(EventQueue, SlotReuseKeepsOrderAndDestroysPayloads) {
  constexpr int kPushes = 20000;
  constexpr int kLeftPending = 100;
  Tracked::Counters counters;
  counters.destroyed.assign(kPushes + kLeftPending, 0);
  {
    EventQueue<Tracked> q;
    // Oracle: (when, seq, id) of every pending entry, kept sorted on demand.
    std::vector<std::tuple<TimePs, std::uint64_t, int>> pending;
    Rng rng(0x5107);
    int pushed = 0;
    TimePs now = 0;
    std::size_t pops = 0;
    while (pushed < kPushes || !pending.empty()) {
      // Bursts of pushes and pops so the free list fills and drains repeatedly.
      const bool push = pushed < kPushes && (pending.empty() || rng.next_below(8) < 4);
      if (push) {
        const TimePs when = now + rng.next_below(4) * ns(1);  // heavy ties
        const std::uint64_t seq = q.push(when, Tracked(counters, pushed));
        pending.emplace_back(when, seq, pushed);
        ++pushed;
      } else {
        const auto first = std::min_element(pending.begin(), pending.end());
        const auto [when, seq, id] = *first;
        pending.erase(first);
        auto e = q.pop();
        ASSERT_EQ(e.when, when) << "pop " << pops;
        ASSERT_EQ(e.seq, seq) << "pop " << pops;
        ASSERT_EQ(e.payload.id(), id) << "payload of seq " << seq << " swapped";
        now = e.when;
        ++pops;
      }
      ASSERT_EQ(q.size(), pending.size());
      ASSERT_EQ(counters.live, static_cast<int>(pending.size())) << "after " << pushed << " pushes";
    }
    EXPECT_EQ(pops, static_cast<std::size_t>(kPushes));
    // Leave some payloads pending: the queue's destructor must free them.
    for (int id = kPushes; id < kPushes + kLeftPending; ++id) {
      q.push(now + static_cast<TimePs>(id), Tracked(counters, id));
    }
    EXPECT_EQ(counters.live, kLeftPending);
  }
  EXPECT_EQ(counters.live, 0);
  for (int id = 0; id < kPushes + kLeftPending; ++id) {
    ASSERT_EQ(counters.destroyed[static_cast<std::size_t>(id)], 1) << "id " << id;
  }
}

}  // namespace
}  // namespace nadfs::sim
