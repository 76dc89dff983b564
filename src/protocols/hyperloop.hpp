// RDMA-HyperLoop replication (paper Fig. 8, after Kim et al., SIGCOMM'18).
//
// HyperLoop chains pre-posted *triggered* RDMA operations on the storage
// NICs: once configured, an incoming write completion fires a forward write
// to the next node in the ring without any CPU involvement. The price is
// configuration: the work-queue entries don't depend on incoming message
// content, so the client must first run a smaller metadata broadcast along
// the ring to set up the per-operation WQEs (addresses/lengths), and only
// then start the data broadcast. That config round trip is the overhead the
// paper shows being amortized only for long chains and large writes.
//
// Model: per write, (1) a metadata message (64 B per chunk WQE) rings
// through all k nodes via triggered forwards and the tail acks the client;
// (2) the client pushes each chunk to the head, per-chunk triggers forward
// it hop by hop, and the tail acks per chunk. Like the paper's setup,
// HyperLoop fully trusts clients (no validation).
#pragma once

#include "protocols/protocol.hpp"

namespace nadfs::protocols {

class HyperLoop final : public WriteProtocol {
 public:
  /// `chunk_bytes` pipelines the ring (0: whole write as one chunk).
  HyperLoop(Cluster& cluster, std::size_t chunk_bytes);
  const char* name() const override { return "RDMA-HyperLoop"; }
  void write(Client& client, const FileLayout& layout, const auth::Capability& cap, Bytes data,
             OpCb cb) override;

  std::size_t chunk_bytes() const { return chunk_bytes_; }
  /// Bytes of WQE metadata per chunk the config broadcast carries.
  static constexpr std::size_t kWqeBytes = 64;

 private:
  Cluster& cluster_;
  std::size_t chunk_bytes_;
  std::uint64_t next_token_ = 1;
};

}  // namespace nadfs::protocols
