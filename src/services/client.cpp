#include "services/client.hpp"

#include <algorithm>
#include <array>
#include <limits>
#include <memory>
#include <stdexcept>

namespace nadfs::services {

namespace {
bool transient_error(dfs::DfsError err) {
  switch (err) {
    case dfs::DfsError::kDenied:     // request-table denial classics retry
    case dfs::DfsError::kTableFull:
    case dfs::DfsError::kTimeout:
    case dfs::DfsError::kDegraded:
    case dfs::DfsError::kNoQuorum:
      return true;
    default:
      return false;  // kNotFound/kExists/kBadArg/kMalformed won't heal by retrying
  }
}
}  // namespace

OpCb join(unsigned n, OpCb done) {
  if (n == 0) throw std::invalid_argument("join: zero sub-ops would never complete");
  struct State {
    unsigned remaining;
    dfs::DfsError err = dfs::DfsError::kOk;
    TimePs last = 0;
    OpCb done;
  };
  auto state = std::make_shared<State>(State{n, dfs::DfsError::kOk, 0, std::move(done)});
  return [state](dfs::DfsError err, TimePs at) {
    if (state->err == dfs::DfsError::kOk) state->err = err;
    state->last = std::max(state->last, at);
    if (--state->remaining == 0) state->done(state->err, state->last);
  };
}

void AckTracker::install(rdma::Nic& nic) {
  nic.set_control_handler([this](const net::Packet& pkt, TimePs at) {
    auto it = ops_.find(pkt.user_tag);
    if (it == ops_.end()) {
      // Control packet for a tag we no longer track: the op was cancelled
      // (deadline expiry) or already completed. Count it — a climbing
      // late_acks with no timeouts configured would mean a tracking bug.
      ++(pkt.opcode == net::Opcode::kNack ? stray_nacks_ : late_acks_);
      return;
    }
    if (pkt.opcode == net::Opcode::kNack) {
      auto cb = std::move(it->second.cb);
      ops_.erase(it);
      // The typed error rides the control packet's raddr. Every sender sets
      // a code in [kNotFound, kMalformed]; anything else — kOk (0)
      // included — is invalid input and maps to kDenied, so a NACK can
      // never complete an op as kOk or forge an enum value.
      dfs::DfsError err = dfs::DfsError::kDenied;
      if (pkt.raddr >= static_cast<std::uint64_t>(dfs::DfsError::kNotFound) &&
          pkt.raddr <= static_cast<std::uint64_t>(dfs::DfsError::kMalformed)) {
        err = static_cast<dfs::DfsError>(pkt.raddr);
      }
      cb(err, at);
      return;
    }
    if (++it->second.got >= it->second.needed) {
      auto cb = std::move(it->second.cb);
      ops_.erase(it);
      cb(dfs::DfsError::kOk, at);
    }
  });
}

void AckTracker::expect(std::uint64_t tag, unsigned acks_needed, OpCb cb) {
  if (ops_.count(tag) != 0) {
    throw std::logic_error("AckTracker::expect: tag already pending");
  }
  ops_.emplace(tag, Op{acks_needed, 0, std::move(cb)});
}

void AckTracker::cancel(std::uint64_t tag) { ops_.erase(tag); }

std::optional<OpCb> AckTracker::take(std::uint64_t tag) {
  auto it = ops_.find(tag);
  if (it == ops_.end()) return std::nullopt;
  OpCb cb = std::move(it->second.cb);
  ops_.erase(it);
  return cb;
}

Client::Client(Cluster& cluster, std::size_t client_idx)
    : cluster_(cluster),
      node_(cluster.client(client_idx)),
      client_id_(cluster.management().register_client()),
      metrics_prefix_("client" + std::to_string(client_id_)) {
  tracker_.install(node_.nic());
  auto& reg = cluster_.metrics();
  reg.counter_cell(metrics_prefix_ + ".retries_performed", &retries_performed_);
  reg.counter_cell(metrics_prefix_ + ".deny_retries", &deny_retries_);
  reg.counter_cell(metrics_prefix_ + ".timeout_retries", &timeout_retries_);
  reg.counter_cell(metrics_prefix_ + ".op_timeouts", &op_timeouts_);
  reg.counter_cell(metrics_prefix_ + ".late_acks", &tracker_.late_acks_);
  reg.counter_cell(metrics_prefix_ + ".stray_nacks", &tracker_.stray_nacks_);
  reg.gauge(metrics_prefix_ + ".pending_ops",
            [this] { return static_cast<long long>(tracker_.pending_count()); });
  reg.sketch(metrics_prefix_ + ".write_latency", write_latency_);
  reg.sketch(metrics_prefix_ + ".read_latency", read_latency_);
}

Client::~Client() { cluster_.metrics().remove_prefix(metrics_prefix_); }

void Client::note_op(const char* name, const char* failed_name, bool ok, std::uint64_t greq,
                     TimePs issued, TimePs at, obs::QuantileSketch& latency) {
  if (auto* tracer = cluster_.tracer()) {
    tracer->record({node_.id(), obs::kLaneClientOp, "op", ok ? name : failed_name, greq, greq, 0,
                    0, issued, at});
  }
  if (ok) latency.record(at - issued);
}

unsigned Client::acks_for(const FileLayout& layout) {
  switch (layout.policy.resiliency) {
    case dfs::Resiliency::kNone:
      return 1;
    case dfs::Resiliency::kReplication:
      return layout.policy.repl_k;
    case dfs::Resiliency::kErasureCoding:
      return layout.policy.ec_k + layout.policy.ec_m;
  }
  return 1;
}

dfs::DfsHeader Client::header(dfs::OpType op, std::uint64_t greq,
                              const auth::Capability& cap) const {
  dfs::DfsHeader hdr;
  hdr.op = op;
  hdr.greq_id = greq;
  hdr.client_node = node_.id();
  hdr.cap = cap;
  return hdr;
}

void Client::post_write(std::uint64_t greq, const auth::Capability& cap,
                        std::span<const WriteTrain> trains, const Bytes& data) {
  const dfs::DfsHeader hdr = header(dfs::OpType::kWrite, greq, cap);
  const std::size_t mtu = cluster_.network().mtu();
  auto build = [&](const WriteTrain& t) {
    return dfs::build_write_packets(node_.id(), t.dst, mtu, hdr, t.wrh,
                                    ByteSpan(data.data() + t.data_off, t.wrh.total_len));
  };
  if (trains.size() == 1) {
    node_.nic().post_message(build(trains.front()));
    return;
  }
  std::vector<std::vector<net::Packet>> per_node;
  per_node.reserve(trains.size());
  for (const auto& t : trains) per_node.push_back(build(t));
  if (ec_interleave_) {
    node_.nic().post_message(interleave(std::move(per_node)));
    return;
  }
  std::vector<net::Packet> sequential;
  for (auto& train : per_node) {
    for (auto& p : train) sequential.push_back(std::move(p));
  }
  node_.nic().post_message(std::move(sequential));
}

void Client::post_extent_op(std::uint64_t greq, dfs::OpType op, const dfs::Coord& coord,
                            const auth::Capability& cap, std::uint64_t len) {
  dfs::ExtentRequestHeader erh;
  erh.addr = coord.addr;
  erh.len = len;
  node_.nic().post_message(
      dfs::build_extent_packets(node_.id(), coord.node, header(op, greq, cap), erh));
}

template <class Post>
void Client::start_attempt(unsigned acks, Post post, OpCb cb, unsigned attempts_left) {
  const std::uint64_t greq = next_greq();
  const TimePs issued = cluster_.sim().now();
  std::function<void(unsigned)> reissue;
  if (attempts_left > 0) {
    // The reissue closure owns a copy of the post step (and so of the
    // payload); with retries off nothing is copied.
    reissue = [this, acks, post, cb](unsigned attempts) mutable {
      start_attempt(acks, std::move(post), std::move(cb), attempts);
    };
  }
  tracker_.expect(greq, acks,
                  [this, greq, issued, cb = std::move(cb), attempts_left,
                   reissue = std::move(reissue)](dfs::DfsError err, TimePs at) mutable {
                    note_op("write", "write_failed", err == dfs::DfsError::kOk, greq, issued, at,
                            write_latency_);
                    if (!retry(err, attempts_left, std::move(reissue))) cb(err, at);
                  });
  arm_deadline(greq);
  post(greq);
}

template <class Trains>
void Client::write_trains(unsigned acks, const auth::Capability& cap, Trains trains, Bytes data,
                          OpCb cb) {
  start_attempt(
      acks,
      [this, cap, trains = std::move(trains), data = std::move(data)](std::uint64_t greq) {
        post_write(greq, cap, trains, data);
      },
      std::move(cb), max_retries_);
}

void Client::arm_deadline(std::uint64_t greq) {
  if (timeout_ == 0) return;
  cluster_.sim().schedule(timeout_, [this, greq] {
    // Still pending at the deadline: take it, so straggler acks land in
    // late_acks instead of completing a dead op, and fail the attempt.
    if (auto cb = tracker_.take(greq)) (*cb)(dfs::DfsError::kTimeout, cluster_.sim().now());
  });
}

bool Client::retry(dfs::DfsError err, unsigned attempts_left,
                   std::function<void(unsigned)> reissue) {
  // A failed attempt is either a NACK (typed error from the storage node,
  // e.g. request table full — paper §III-B.2) or a deadline expiry
  // (kTimeout, which only arm_deadline produces). Transient errors back
  // off and reissue, booked under the matching retry counter; permanent
  // errors (kNotFound, kBadArg, ...) surface immediately.
  if (err == dfs::DfsError::kTimeout) ++op_timeouts_;
  if (err == dfs::DfsError::kOk || attempts_left == 0 || !transient_error(err)) return false;
  ++(err == dfs::DfsError::kTimeout ? timeout_retries_ : deny_retries_);
  ++retries_performed_;
  cluster_.sim().schedule(
      retry_delay(attempts_left),
      [attempts_left, reissue = std::move(reissue)] { reissue(attempts_left - 1); });
  return true;
}

void Client::write(const FileLayout& layout, const auth::Capability& cap, Bytes data, OpCb cb) {
  write_at(layout, cap, 0, std::move(data), std::move(cb));
}

void Client::write_at(const FileLayout& layout, const auth::Capability& cap,
                      std::uint64_t offset, Bytes data, OpCb cb) {
  if (offset + data.size() > layout.size) {
    throw std::length_error("Client::write_at: write exceeds object size");
  }
  if (offset != 0 && layout.policy.resiliency == dfs::Resiliency::kErasureCoding) {
    throw std::invalid_argument("Client::write_at: EC objects are whole-object writes");
  }
  if (layout.striped()) {
    striped_write(layout, cap, offset, std::move(data), std::move(cb));
    return;
  }
  const dfs::Coord& primary = layout.targets.front();
  if (layout.policy.resiliency == dfs::Resiliency::kNone) {
    write_extent({primary.node, primary.addr + offset}, cap, std::move(data), std::move(cb));
    return;
  }
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = primary.addr + offset;
  wrh.total_len = data.size();
  wrh.resiliency = layout.policy.resiliency;
  if (layout.policy.resiliency == dfs::Resiliency::kReplication) {
    // One train to the primary (virtual rank 0); the NICs fan it out.
    wrh.strategy = layout.policy.strategy;
    wrh.replicas = layout.targets;
    for (auto& coord : wrh.replicas) coord.addr += offset;
    write_trains(acks_for(layout), cap, std::array{WriteTrain{primary.node, std::move(wrh)}},
                 std::move(data), std::move(cb));
    return;
  }
  // One train per data node over k equal, zero-padded chunks.
  const unsigned k = layout.policy.ec_k;
  const auto chunk_len = static_cast<std::size_t>(layout.chunk_len);
  data.resize(chunk_len * k, 0);
  wrh.total_len = chunk_len;
  wrh.ec_k = layout.policy.ec_k;
  wrh.ec_m = layout.policy.ec_m;
  wrh.parity_nodes = layout.parity;
  std::vector<WriteTrain> trains;
  trains.reserve(k);
  for (unsigned i = 0; i < k; ++i) {
    wrh.dest_addr = layout.targets[i].addr;
    wrh.data_idx = static_cast<std::uint8_t>(i);
    trains.push_back({layout.targets[i].node, wrh, i * chunk_len});
  }
  write_trains(acks_for(layout), cap, std::move(trains), std::move(data), std::move(cb));
}

void Client::striped_write(const FileLayout& layout, const auth::Capability& cap,
                           std::uint64_t offset, Bytes data, OpCb cb) {
  // RAID-0 style: each overlapped stripe unit becomes one plain DFS write
  // against its stripe's extent, joined.
  if (data.empty()) {
    cb(dfs::DfsError::kOk, cluster_.sim().now());  // no unit to write
    return;
  }
  const std::uint64_t ss = layout.policy.stripe_size;
  if (offset % ss + data.size() <= ss) {
    // Inside one stripe unit: the payload is that unit's write as is.
    const auto [stripe, within] = layout.locate(offset);
    dfs::Coord target = layout.targets[stripe];
    target.addr += within;
    write_extent(target, cap, std::move(data), std::move(cb));
    return;
  }
  std::vector<std::tuple<dfs::Coord, Bytes>> units;
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < data.size()) {
    const auto [stripe, within] = layout.locate(pos);
    const std::uint64_t in_unit = pos % ss;
    const std::size_t n =
        std::min<std::size_t>(data.size() - consumed, static_cast<std::size_t>(ss - in_unit));
    dfs::Coord target = layout.targets[stripe];
    target.addr += within;
    units.emplace_back(target, Bytes(data.begin() + static_cast<std::ptrdiff_t>(consumed),
                                     data.begin() + static_cast<std::ptrdiff_t>(consumed + n)));
    pos += n;
    consumed += n;
  }
  Bytes{}.swap(data);  // every byte now lives in a unit: do not hold the payload twice
  const OpCb done = join(static_cast<unsigned>(units.size()), std::move(cb));
  for (auto& [target, bytes] : units) write_extent(target, cap, std::move(bytes), done);
}

void Client::striped_read(const FileLayout& layout, const auth::Capability& cap,
                          std::uint64_t offset, std::uint32_t len, ReadCb cb) {
  if (len == 0) {
    cb(dfs::DfsError::kBadArg, Bytes{}, cluster_.sim().now());  // as start_read: off the wire
    return;
  }
  const std::uint64_t ss = layout.policy.stripe_size;
  struct Unit {
    dfs::Coord target;
    std::uint32_t n;
    std::size_t out_off;
  };
  std::vector<Unit> units;
  std::uint64_t pos = offset;
  std::size_t consumed = 0;
  while (consumed < len) {
    const auto [stripe, within] = layout.locate(pos);
    const std::uint64_t in_unit = pos % ss;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(len - consumed, ss - in_unit));
    dfs::Coord target = layout.targets[stripe];
    target.addr += within;
    units.push_back(Unit{target, n, consumed});
    pos += n;
    consumed += n;
  }
  // The join decides the outcome; the units only assemble the bytes.
  auto data = std::make_shared<Bytes>(len, 0);
  const OpCb done = join(static_cast<unsigned>(units.size()),
                         [data, cb = std::move(cb)](dfs::DfsError err, TimePs at) {
                           cb(err, err == dfs::DfsError::kOk ? std::move(*data) : Bytes{}, at);
                         });
  for (const auto& unit : units) {
    read_extent(unit.target, cap, unit.n,
                [data, done, out_off = unit.out_off](dfs::DfsError err, Bytes part, TimePs at) {
                  std::copy(part.begin(), part.end(),
                            data->begin() + static_cast<std::ptrdiff_t>(out_off));
                  done(err, at);
                });
  }
}

TimePs Client::retry_delay(unsigned attempts_left) const {
  // attempts_left counts down from max_retries_, so retry n (n = 0 for the
  // first) sees attempts_left == max_retries_ - n and waits
  // min(backoff * 2^n, cap).
  const unsigned n = max_retries_ - attempts_left;
  const TimePs cap = retry_backoff_cap_ != 0 ? retry_backoff_cap_ : retry_backoff_ * 16;
  TimePs delay = retry_backoff_;
  for (unsigned i = 0; i < n && delay < cap; ++i) delay *= 2;
  return std::min(delay, cap);
}

void Client::read(const FileLayout& layout, const auth::Capability& cap, std::uint32_t len,
                  ReadCb cb) {
  read_at(layout, cap, 0, len, std::move(cb));
}

void Client::read_at(const FileLayout& layout, const auth::Capability& cap,
                     std::uint64_t offset, std::uint32_t len, ReadCb cb) {
  if (layout.striped()) {
    striped_read(layout, cap, offset, len, std::move(cb));
    return;
  }
  dfs::Coord coord = layout.targets.front();
  coord.addr += offset;
  start_read(coord, cap, len, std::move(cb), max_retries_);
}

void Client::read_extent(const dfs::Coord& coord, const auth::Capability& cap,
                         std::uint32_t len, ReadCb cb) {
  start_read(coord, cap, len, std::move(cb), max_retries_);
}

void Client::start_read(const dfs::Coord& coord, const auth::Capability& cap, std::uint32_t len,
                        ReadCb cb, unsigned attempts_left) {
  if (len == 0) {
    // A client bug, not a cluster condition: fail typed without touching
    // the wire (and without burning a greq).
    cb(dfs::DfsError::kBadArg, Bytes{}, cluster_.sim().now());
    return;
  }
  const std::uint64_t greq = next_greq();
  const TimePs issued = cluster_.sim().now();
  // Two completion paths share the callback: the NIC's read response, and
  // the tracker entry, which a typed NACK (fail-fast) or the deadline
  // fails. Exactly one completes the op; it cancels the other.
  auto shared_cb = std::make_shared<ReadCb>(std::move(cb));
  arm_deadline(greq);
  // The huge acks_needed keeps stray ACKs from completing the entry.
  tracker_.expect(
      greq, std::numeric_limits<unsigned>::max(),
      [this, coord, cap, len, shared_cb, attempts_left, greq, issued](dfs::DfsError err,
                                                                       TimePs at) {
        // The NIC frees the read's slot when the last response packet
        // arrives, then lands the data over PCIe: a failure in that window
        // comes too late, and the landing response completes the op.
        if (!node_.nic().cancel_read(greq)) return;
        note_op("read", "read_failed", false, greq, issued, at, read_latency_);
        auto reissue = [this, coord, cap, len, shared_cb](unsigned attempts) {
          start_read(coord, cap, len, std::move(*shared_cb), attempts);
        };
        if (!retry(err, attempts_left, std::move(reissue))) (*shared_cb)(err, Bytes{}, at);
      });
  node_.nic().expect_read_response(
      greq, len, [this, greq, issued, shared_cb](Bytes data, TimePs at) {
        tracker_.cancel(greq);
        note_op("read", "read_failed", true, greq, issued, at, read_latency_);
        (*shared_cb)(dfs::DfsError::kOk, std::move(data), at);
      });
  dfs::ReadRequestHeader rrh;
  rrh.src_addr = coord.addr;
  rrh.len = len;
  node_.nic().post_message(
      dfs::build_read_packets(node_.id(), coord.node, header(dfs::OpType::kRead, greq, cap), rrh));
}

void Client::write_extent(const dfs::Coord& coord, const auth::Capability& cap, Bytes data,
                          OpCb cb) {
  dfs::WriteRequestHeader wrh;
  wrh.dest_addr = coord.addr;
  wrh.total_len = data.size();
  write_trains(1, cap, std::array{WriteTrain{coord.node, std::move(wrh)}}, std::move(data),
               std::move(cb));
}

void Client::trim_extent(const dfs::Coord& coord, const auth::Capability& cap, std::uint64_t len,
                         OpCb cb) {
  start_attempt(
      1,
      [this, coord, cap, len](std::uint64_t greq) {
        post_extent_op(greq, dfs::OpType::kTrim, coord, cap, len);
      },
      std::move(cb), max_retries_);
}

void Client::stat_extent(const dfs::Coord& coord, const auth::Capability& cap, std::uint64_t len,
                         OpCb cb) {
  start_attempt(
      1,
      [this, coord, cap, len](std::uint64_t greq) {
        post_extent_op(greq, dfs::OpType::kStat, coord, cap, len);
      },
      std::move(cb), max_retries_);
}

// ---- name-based operations ------------------------------------------------

dfs::DfsError Client::create(const std::string& name, std::uint64_t size, FilePolicy policy) {
  return cluster_.metadata().try_create(name, size, policy).first;
}

MetadataService::StatInfo Client::stat(const std::string& name) const {
  return cluster_.metadata().stat(name);
}

std::vector<std::string> Client::list(const std::string& prefix) const {
  return cluster_.metadata().list(prefix);
}

void Client::append(const std::string& name, const auth::Capability& cap, Bytes data, OpCb cb) {
  const FileLayout* layout = cluster_.metadata().lookup(name);
  if (!layout) {
    cb(dfs::DfsError::kNotFound, cluster_.sim().now());
    return;
  }
  if (layout->policy.resiliency == dfs::Resiliency::kErasureCoding) {
    // EC objects are whole-object writes; there is no incremental tail.
    cb(dfs::DfsError::kBadArg, cluster_.sim().now());
    return;
  }
  // The reservation is the serialization point: concurrent appends each get
  // a disjoint [offset, offset+len) before any data-plane traffic starts.
  const auto [err, offset] = cluster_.metadata().append_reserve(name, data.size());
  if (err != dfs::DfsError::kOk) {
    cb(err, cluster_.sim().now());
    return;
  }
  write_at(*layout, cap, offset, std::move(data), std::move(cb));
}

void Client::remove(const std::string& name, const auth::Capability& cap, OpCb cb) {
  const FileLayout* layout = cluster_.metadata().lookup(name);
  if (!layout) {
    cb(dfs::DfsError::kNotFound, cluster_.sim().now());
    return;
  }
  // Trim every extent of the layout; the namespace entry is dropped only
  // after all trims acked, so a failure leaves the (possibly degraded) file
  // visible rather than leaking unreachable live extents.
  std::uint64_t span = layout->size;
  if (layout->policy.resiliency == dfs::Resiliency::kErasureCoding) {
    span = layout->chunk_len;
  } else if (layout->striped()) {
    const auto sc = layout->policy.stripe_count;
    const auto ss = layout->policy.stripe_size;
    span = ((layout->size + sc - 1) / sc + ss - 1) / ss * ss;  // per-stripe extent
  }
  std::vector<dfs::Coord> extents = layout->targets;
  extents.insert(extents.end(), layout->parity.begin(), layout->parity.end());

  const OpCb done = join(static_cast<unsigned>(extents.size()),
                         [this, name, cb = std::move(cb)](dfs::DfsError err, TimePs at) {
                           if (err == dfs::DfsError::kOk) cluster_.metadata().remove(name);
                           cb(err, at);
                         });
  for (const auto& coord : extents) trim_extent(coord, cap, span, done);
}

std::vector<net::Packet> interleave(std::vector<std::vector<net::Packet>> trains) {
  std::vector<net::Packet> out;
  std::size_t total = 0;
  std::size_t longest = 0;
  for (const auto& t : trains) {
    total += t.size();
    longest = std::max(longest, t.size());
  }
  out.reserve(total);
  for (std::size_t i = 0; i < longest; ++i) {
    for (auto& t : trains) {
      if (i < t.size()) out.push_back(std::move(t[i]));
    }
  }
  return out;
}

}  // namespace nadfs::services
