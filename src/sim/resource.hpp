// Shared-resource timing primitives.
//
// FifoServer models any serially-shared, rate-limited resource: a network
// link, a PCIe/DMA engine, a NIC egress port, a host memcpy unit. Work is
// served in arrival order at a fixed bandwidth; callers get back the
// (start, end) window their job occupies, which is how queueing delay and
// backpressure emerge in the model without explicit token buckets.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>

#include "common/units.hpp"
#include "sim/simulator.hpp"

namespace nadfs::sim {

/// Occupancy window of a job on a shared resource.
struct Window {
  TimePs start;  ///< when the job begins occupying the resource
  TimePs end;    ///< when the job finishes (resource free again)
};

class FifoServer {
 public:
  FifoServer(Simulator& simulator, Bandwidth rate) : sim_(simulator), rate_(rate) {}

  using Window = sim::Window;

  /// Reserve the resource for `bytes` of work starting no earlier than
  /// `earliest` (defaults to now). Advances the busy horizon.
  Window reserve(std::size_t bytes, TimePs earliest = 0) {
    const TimePs start = std::max({sim_.now(), earliest, busy_until_});
    const TimePs end = start + rate_.transfer_time(bytes);
    busy_until_ = end;
    total_bytes_ += bytes;
    return {start, end};
  }

  /// Reserve a fixed-duration slot (for latency-type costs on a shared unit).
  Window reserve_time(TimePs duration, TimePs earliest = 0) {
    const TimePs start = std::max({sim_.now(), earliest, busy_until_});
    const TimePs end = start + duration;
    busy_until_ = end;
    return {start, end};
  }

  /// Earliest time a new job could start.
  TimePs free_at() const { return std::max(sim_.now(), busy_until_); }
  bool idle() const { return busy_until_ <= sim_.now(); }

  Bandwidth rate() const { return rate_; }
  std::uint64_t total_bytes() const { return total_bytes_; }

 private:
  Simulator& sim_;
  Bandwidth rate_;
  TimePs busy_until_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// Rate-limited shared resource with *gap-filling* (calendar) reservations.
///
/// Unlike FifoServer, whose busy horizon only moves forward in reservation
/// order, GapServer places each job in the earliest idle interval at or
/// after its ready time. This matters because handler timelines are
/// computed eagerly at packet-arrival events: two compute clusters with
/// very different backlogs reserve the same wire out of time order, and a
/// FIFO horizon would let one cluster's far-future send starve another
/// cluster's imminent one — a pure modelling artifact. With gap filling
/// the wire is used whenever it is physically idle.
///
/// Used for every resource reservable out of time order: network links,
/// PCIe/DMA engines, CPU cores, storage ingest, accelerator engines.
class GapServer {
 public:
  GapServer(Simulator& simulator, Bandwidth rate) : sim_(simulator), rate_(rate) {}

  Window reserve(std::size_t bytes, TimePs earliest = 0) {
    return reserve_time(rate_.transfer_time(bytes), earliest);
  }

  Window reserve_time(TimePs duration, TimePs earliest = 0) {
    const Window w = plan_time(duration, earliest);
    commit(w);
    return w;
  }

  /// The window reserve() *would* return, without taking it. Lets a caller
  /// look at the serialization start before committing — e.g. to decide
  /// whether the source is still reachable when the wire would pick the
  /// packet up, or whether a bounded port buffer overflows. plan + commit
  /// is exactly reserve (nothing can interleave within one event).
  Window plan(std::size_t bytes, TimePs earliest = 0) {
    return plan_time(rate_.transfer_time(bytes), earliest);
  }

  Window plan_time(TimePs duration, TimePs earliest = 0) {
    prune();
    TimePs t = std::max(sim_.now(), earliest);
    if (duration == 0) return {t, t};

    // Step back to the interval that may cover `t`.
    auto next = busy_.lower_bound(t);
    if (next != busy_.begin()) {
      auto prev = std::prev(next);
      if (prev->second > t) t = prev->second;
    }
    // Walk forward until a gap of `duration` fits before the next interval.
    while (next != busy_.end() && next->first < t + duration) {
      t = std::max(t, next->second);
      ++next;
    }
    return {t, t + duration};
  }

  /// Take a window previously returned by plan()/plan_time().
  void commit(const Window& w) {
    if (w.end == w.start) return;
    insert(w);
    total_time_ += w.end - w.start;
  }

  /// Earliest instant with no reservation at or after now (end of the last
  /// busy interval, or now if idle).
  TimePs horizon() const {
    if (busy_.empty()) return sim_.now();
    return std::max(sim_.now(), busy_.rbegin()->second);
  }

  Bandwidth rate() const { return rate_; }
  std::size_t interval_count() const { return busy_.size(); }

 private:
  void insert(Window w) {
    // Coalesce with touching/overlapping neighbours to keep the map small.
    auto it = busy_.lower_bound(w.start);
    if (it != busy_.begin()) {
      auto prev = std::prev(it);
      if (prev->second >= w.start) {
        w.start = prev->first;
        w.end = std::max(w.end, prev->second);
        busy_.erase(prev);
      }
    }
    it = busy_.lower_bound(w.start);
    while (it != busy_.end() && it->first <= w.end) {
      w.end = std::max(w.end, it->second);
      it = busy_.erase(it);
    }
    busy_[w.start] = w.end;
  }

  void prune() {
    // Reservations never start before sim.now(), so fully-past intervals
    // can be dropped.
    const TimePs now = sim_.now();
    while (!busy_.empty() && busy_.begin()->second <= now) {
      busy_.erase(busy_.begin());
    }
  }

  Simulator& sim_;
  Bandwidth rate_;
  std::map<TimePs, TimePs> busy_;  // start -> end, disjoint, sorted
  std::uint64_t total_time_ = 0;
};

}  // namespace nadfs::sim
