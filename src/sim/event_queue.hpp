// Event queue: a binary min-heap in strictly ascending (when, seq) order,
// seq being the global push order, so same-time events pop in scheduling
// order and the pop order is a pure function of the push sequence.
//
// The heap holds 24-byte (when, seq, slot) keys. Payloads stay put in a
// slot vector recycled through a free list, so a sift moves keys and never
// a 56-byte EventFn. The benchmark workloads peak at ~16k pending events,
// where O(log n) key sifts are as cheap as any bucketed structure
// (DESIGN.md §3a).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/units.hpp"

namespace nadfs::sim {

template <typename Payload>
class EventQueue {
 public:
  struct Key {
    TimePs when;
    std::uint64_t seq;
    std::size_t slot;
  };
  struct Entry {
    TimePs when;
    std::uint64_t seq;
    Payload payload;
  };

  /// Enqueue `payload` at absolute time `when`; returns its seq.
  std::uint64_t push(TimePs when, Payload payload) {
    std::size_t slot = slots_.size();
    if (free_.empty()) {
      slots_.push_back(std::move(payload));
    } else {
      slot = free_.back();
      free_.pop_back();
      slots_[slot] = std::move(payload);
    }
    heap_.push_back(Key{when, next_seq_, slot});
    std::push_heap(heap_.begin(), heap_.end(), After{});
    return next_seq_++;
  }

  /// Earliest key, or nullptr if empty; valid until the next push/pop.
  const Key* peek() const { return heap_.empty() ? nullptr : &heap_.front(); }
  const Payload& payload(const Key& key) const { return slots_[key.slot]; }

  /// Remove and return the earliest entry. Precondition: !empty().
  Entry pop() {
    std::pop_heap(heap_.begin(), heap_.end(), After{});
    const Key top = heap_.back();
    heap_.pop_back();
    free_.push_back(top.slot);
    return Entry{top.when, top.seq, std::move(slots_[top.slot])};
  }

  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }

 private:
  // std:: heap algorithms build max-heaps; ordering by "after" gives a
  // min-heap. A stateless function object (not a function pointer) so the
  // sifts inline the comparison.
  struct After {
    bool operator()(const Key& a, const Key& b) const {
      return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }
  };

  std::vector<Key> heap_;
  std::vector<Payload> slots_;
  std::vector<std::size_t> free_;  // slots whose payload was popped
  std::uint64_t next_seq_ = 0;
};

}  // namespace nadfs::sim
