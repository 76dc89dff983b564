// Erasure-coding recovery: degraded reads and chunk rebuild.
//
// Paper §VI-B: "The decoding process should preferably be performed offline
// to not impact write latency. For example, monitoring services can check
// the status of the storage nodes and start the recovery process if some of
// them become unreachable." This manager is that recovery process:
//
//   - degraded_read: reconstruct an EC object's contents from any k of the
//     k+m chunks, skipping nodes the monitoring view marks failed;
//   - rebuild: re-materialize the chunks lost with failed nodes onto spare
//     nodes (RS decode on the recovery host, extent writes over the normal
//     offloaded data path) and publish the repaired layout through the
//     metadata service.
#pragma once

#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <string>

#include "ec/reed_solomon.hpp"
#include "services/client.hpp"

namespace nadfs::services {

class RecoveryManager {
 public:
  RecoveryManager(Cluster& cluster, Client& client) : cluster_(cluster), client_(client) {}

  using ReadResult = std::function<void(std::optional<Bytes>, TimePs)>;
  using RebuildResult = std::function<void(std::optional<FileLayout>, TimePs)>;

  /// Read the full object from any k surviving chunks. Calls back with
  /// nullopt when fewer than k chunks survive (data loss). The manager is a
  /// trusted DFS service: it mints its own (properly scoped) capabilities
  /// through the management service.
  void degraded_read(const FileLayout& layout, const std::set<net::NodeId>& failed,
                     ReadResult cb);

  /// Rebuild every chunk (data or parity) hosted on a failed node onto a
  /// spare, then publish the repaired layout for `name`. Calls back with
  /// the new layout, or nullopt when the object is unrecoverable (or no
  /// spare capacity exists right now — retryable once nodes rejoin).
  ///
  /// Rebuilds are serialized per name: a second rebuild of an object whose
  /// repair is still in flight is deferred (FIFO) until the first
  /// publishes, then re-reads the *current* layout. Without this, two
  /// overlapping failures — or a failure racing a rejoin — would each copy
  /// the pre-repair layout and the loser's update_layout would resurrect
  /// coordinates the winner already re-homed (the double-adoption race).
  void rebuild(const std::string& name, const std::set<net::NodeId>& failed, RebuildResult cb);

  std::uint64_t chunks_rebuilt() const { return chunks_rebuilt_; }
  /// Rebuild requests parked behind an in-flight rebuild of the same name.
  std::uint64_t rebuilds_deferred() const { return rebuilds_deferred_; }

 private:
  struct ChunkGather;

  void rebuild_now(const std::string& name, const std::set<net::NodeId>& failed,
                   RebuildResult cb);
  /// Completion hook for a serialized rebuild: releases the name and starts
  /// the oldest deferred rebuild waiting on it, if any.
  void finish_rebuild(const std::string& name);

  /// Fetch any k surviving chunks; cb receives (chunk_index, bytes) pairs
  /// or nullopt. Chunk reads that fail in flight (kTimeout once the client's
  /// deadline expired, kNotFound for a trimmed chunk) fall back to survivors
  /// beyond the first k; when none remain the cb gets nullopt — it never
  /// hangs.
  void collect_chunks(
      const FileLayout& layout, const std::set<net::NodeId>& failed,
      std::function<void(std::optional<std::vector<std::pair<unsigned, Bytes>>>, TimePs)> cb);
  void issue_chunk_read(const std::shared_ptr<ChunkGather>& gather, unsigned idx);
  auth::Capability scoped_cap(std::uint64_t object_id, auth::Right right,
                              const dfs::Coord& coord, std::uint64_t len) const;

  struct DeferredRebuild {
    std::string name;
    std::set<net::NodeId> failed;
    RebuildResult cb;
  };

  Cluster& cluster_;
  Client& client_;
  std::uint64_t chunks_rebuilt_ = 0;
  std::uint64_t rebuilds_deferred_ = 0;
  std::set<std::string> rebuilding_;        ///< names with a rebuild in flight
  std::deque<DeferredRebuild> deferred_;    ///< FIFO, filtered by name
};

}  // namespace nadfs::services
