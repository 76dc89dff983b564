// CPU-based write protocols (paper Fig. 1b, Fig. 5 left, Fig. 6).
//
//   RPC:      the client ships request + data in one two-sided message.
//             The storage CPU dispatches the RPC, validates the capability,
//             copies the payload out of the bounce buffer (losing RDMA's
//             zero-copy), commits it to the target, and replies.
//   RPC+RDMA: the client registers its buffer and ships only a small
//             descriptor. The storage CPU validates, RDMA-READs the data
//             straight into the target (zero-copy), and replies — at the
//             cost of an extra network round trip.
//
// Both enforce the same authentication policy the sPIN HH enforces; that is
// the point of the Fig. 6 comparison.
#pragma once

#include <memory>

#include "protocols/protocol.hpp"

namespace nadfs::protocols {

class RpcWrite final : public WriteProtocol {
 public:
  explicit RpcWrite(Cluster& cluster);
  const char* name() const override { return "RPC"; }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

  std::uint64_t validation_failures() const { return *failures_; }

 private:
  Cluster& cluster_;
  std::shared_ptr<std::uint64_t> failures_ = std::make_shared<std::uint64_t>(0);
};

class RpcRdmaWrite final : public WriteProtocol {
 public:
  explicit RpcRdmaWrite(Cluster& cluster);
  const char* name() const override { return "RPC+RDMA"; }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

 private:
  Cluster& cluster_;
  std::shared_ptr<std::uint64_t> failures_ = std::make_shared<std::uint64_t>(0);
};

}  // namespace nadfs::protocols
