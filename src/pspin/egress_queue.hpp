// Bounded egress command queue of one PsPIN device (sPIN Table I): an HPU
// that issues a send while `depth` commands are still outstanding stalls
// until one of them drains.
//
// Handler timelines are computed eagerly and can be evaluated out of
// dispatch order, so each accepted send is kept as an (issue, drain)
// interval and occupancy is counted per query time. The intervals are kept
// sorted by issue time, and `span_` bounds every stored `end - issue`; the
// slots that cover an instant `t` (issue <= t < end) therefore all issue in
// [t - span_, t], and two binary searches find them. A query costs
// O(log n + window), not O(n).
//
// Exactness: accept() returns the (count - depth + 1)-th smallest `end`
// among the covering slots — a value, so neither the storage order nor
// which already-drained slots are still stored can change it, provided the
// query time is not in the past (`want >= now`, checked). Drained slots
// (end <= now) are therefore pruned in amortized batches rather than on
// every call.
#pragma once

#include <algorithm>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "common/units.hpp"

namespace nadfs::pspin {

class EgressQueue {
 public:
  explicit EgressQueue(unsigned depth) : depth_(depth) {
    if (depth == 0) throw std::invalid_argument("EgressQueue: depth must be >= 1");
  }

  /// Earliest time >= `want` at which a command issued at `want` finds a
  /// free slot: `want` itself, or the drain of the (count - depth + 1)-th
  /// covering command when `count >= depth` commands occupy the queue.
  /// `now` is the current simulated time; throws std::logic_error if
  /// `want < now` (a replay cursor never runs behind its dispatch event).
  TimePs accept(TimePs want, TimePs now) {
    if (want < now) throw std::logic_error("EgressQueue::accept: query time is in the past");
    if (slots_.size() >= prune_at_) prune(now);
    ends_.clear();
    for (auto it = window_begin(want), last = window_end(want); it != last; ++it) {
      if (it->end > want) ends_.push_back(it->end);
    }
    if (ends_.size() < depth_) return want;
    const std::size_t idx = ends_.size() - depth_;
    std::nth_element(ends_.begin(), ends_.begin() + static_cast<std::ptrdiff_t>(idx), ends_.end());
    return std::max(want, ends_[idx]);
  }

  /// Record an accepted command occupying a slot over [issue, end).
  void note(TimePs issue, TimePs end) {
    if (end <= issue) return;  // covers no instant
    const auto pos = std::upper_bound(slots_.begin(), slots_.end(), issue,
                                      [](TimePs t, const Slot& s) { return t < s.issue; });
    slots_.insert(pos, Slot{issue, end});
    span_ = std::max(span_, end - issue);
  }

  /// Slots occupied at `t` (issued, not yet drained). Exact for any `t` not
  /// before the `now` of the last accept() (prunes only drop slots drained
  /// by then).
  unsigned in_flight(TimePs t) const {
    unsigned n = 0;
    for (auto it = window_begin(t), last = window_end(t); it != last; ++it) {
      if (it->end > t) ++n;
    }
    return n;
  }

 private:
  struct Slot {
    TimePs issue;
    TimePs end;
  };
  using Iter = std::vector<Slot>::const_iterator;

  /// First slot issued at or after `t - span_`.
  Iter window_begin(TimePs t) const {
    const TimePs lo = t > span_ ? t - span_ : 0;
    return std::lower_bound(slots_.begin(), slots_.end(), lo,
                            [](const Slot& s, TimePs v) { return s.issue < v; });
  }
  /// One past the last slot issued at or before `t`.
  Iter window_end(TimePs t) const {
    return std::upper_bound(slots_.begin(), slots_.end(), t,
                            [](TimePs v, const Slot& s) { return v < s.issue; });
  }

  /// Drop drained slots and tighten `span_` to the survivors; the next
  /// prune waits until the store has doubled, so each stored slot is
  /// scanned O(1) times on average.
  void prune(TimePs now) {
    std::erase_if(slots_, [now](const Slot& s) { return s.end <= now; });
    span_ = 0;
    for (const auto& s : slots_) span_ = std::max(span_, s.end - s.issue);
    prune_at_ = std::max(kMinPruneAt, 2 * slots_.size());
  }

  static constexpr std::size_t kMinPruneAt = 64;

  unsigned depth_;
  std::vector<Slot> slots_;      // sorted by issue
  TimePs span_ = 0;              // >= end - issue of every stored slot
  std::size_t prune_at_ = kMinPruneAt;
  std::vector<TimePs> ends_;     // accept() scratch, reused across calls
};

}  // namespace nadfs::pspin
