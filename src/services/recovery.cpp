#include "services/recovery.hpp"

namespace nadfs::services {

auth::Capability RecoveryManager::scoped_cap(std::uint64_t object_id, auth::Right right,
                                             const dfs::Coord& coord,
                                             std::uint64_t len) const {
  return cluster_.management().grant(client_.client_id(), object_id, right, 0, coord.addr, len);
}

struct RecoveryManager::ChunkGather {
  FileLayout layout;
  std::uint32_t chunk_len = 0;
  unsigned want = 0;
  std::vector<std::pair<unsigned, Bytes>> chunks;
  std::vector<unsigned> untried;  ///< fallback survivors beyond the first k
  bool done = false;
  TimePs last = 0;
  std::function<void(std::optional<std::vector<std::pair<unsigned, Bytes>>>, TimePs)> cb;

  const dfs::Coord& coord(unsigned idx) const {
    const unsigned k = layout.policy.ec_k;
    return idx < k ? layout.targets[idx] : layout.parity[idx - k];
  }
};

void RecoveryManager::collect_chunks(
    const FileLayout& layout, const std::set<net::NodeId>& failed,
    std::function<void(std::optional<std::vector<std::pair<unsigned, Bytes>>>, TimePs)> cb) {
  const unsigned k = layout.policy.ec_k;
  const unsigned m = layout.policy.ec_m;

  // Candidates, data chunks first (systematic reads are free of decoding).
  std::vector<unsigned> candidates;
  for (unsigned i = 0; i < k + m; ++i) {
    const auto& coord = i < k ? layout.targets[i] : layout.parity[i - k];
    if (!failed.count(coord.node)) candidates.push_back(i);
  }
  if (candidates.size() < k) {
    cb(std::nullopt, cluster_.sim().now());
    return;
  }

  auto gather = std::make_shared<ChunkGather>();
  gather->layout = layout;
  gather->chunk_len = static_cast<std::uint32_t>(layout.chunk_len);
  gather->want = k;
  gather->chunks.reserve(k);
  gather->untried.assign(candidates.begin() + k, candidates.end());
  gather->cb = std::move(cb);
  for (unsigned i = 0; i < k; ++i) issue_chunk_read(gather, candidates[i]);
}

void RecoveryManager::issue_chunk_read(const std::shared_ptr<ChunkGather>& gather,
                                       unsigned idx) {
  const auto& coord = gather->coord(idx);
  client_.read_extent(
      coord, scoped_cap(gather->layout.object_id, auth::Right::kRead, coord, gather->chunk_len),
      gather->chunk_len, [this, gather, idx](dfs::DfsError err, Bytes data, TimePs at) {
        if (gather->done) return;
        gather->last = std::max(gather->last, at);
        if (err != dfs::DfsError::kOk) {
          // Typed failure: kTimeout for a node that died *during* collection
          // (after the monitoring view was snapshotted), kNotFound for a
          // chunk trimmed by a racing delete. Fall back to an untried
          // survivor, or report the object unrecoverable; either way the
          // caller is answered, never left hanging. The old empty-buffer
          // sentinel is gone — a legitimately all-zero chunk no longer
          // looks like a failed read.
          if (gather->untried.empty()) {
            gather->done = true;
            gather->cb(std::nullopt, gather->last);
            return;
          }
          const unsigned next = gather->untried.front();
          gather->untried.erase(gather->untried.begin());
          issue_chunk_read(gather, next);
          return;
        }
        gather->chunks.emplace_back(idx, std::move(data));
        if (gather->chunks.size() == gather->want) {
          gather->done = true;
          gather->cb(std::move(gather->chunks), gather->last);
        }
      });
}

void RecoveryManager::degraded_read(const FileLayout& layout,
                                    const std::set<net::NodeId>& failed, ReadResult cb) {
  if (layout.policy.resiliency != dfs::Resiliency::kErasureCoding) {
    throw std::invalid_argument("RecoveryManager::degraded_read: not an EC object");
  }
  const auto size = layout.size;
  const unsigned k = layout.policy.ec_k;
  const unsigned m = layout.policy.ec_m;
  collect_chunks(layout, failed,
                 [k, m, size, cb = std::move(cb)](auto chunks, TimePs at) {
                   if (!chunks) {
                     cb(std::nullopt, at);
                     return;
                   }
                   ec::ReedSolomon rs(k, m);
                   auto data = rs.decode(*chunks);
                   if (!data) {
                     cb(std::nullopt, at);
                     return;
                   }
                   Bytes flat;
                   for (const auto& c : *data) flat.insert(flat.end(), c.begin(), c.end());
                   flat.resize(size);
                   cb(std::move(flat), at);
                 });
}

void RecoveryManager::rebuild(const std::string& name, const std::set<net::NodeId>& failed,
                              RebuildResult cb) {
  if (rebuilding_.count(name) != 0) {
    // Serialize per name: run after the in-flight rebuild publishes, from
    // the then-current layout. The failed set is snapshotted now — by run
    // time it may name nodes that since rejoined, which only makes the
    // avoid list conservative, never wrong.
    ++rebuilds_deferred_;
    deferred_.push_back({name, failed, std::move(cb)});
    return;
  }
  rebuilding_.insert(name);
  rebuild_now(name, failed, std::move(cb));
}

void RecoveryManager::finish_rebuild(const std::string& name) {
  rebuilding_.erase(name);
  for (auto it = deferred_.begin(); it != deferred_.end(); ++it) {
    if (it->name != name) continue;
    DeferredRebuild next = std::move(*it);
    deferred_.erase(it);
    if (cluster_.metadata().lookup(name) == nullptr) {
      // Deleted while parked: answer rather than throw, and let any later
      // deferrals for the name drain the same way.
      next.cb(std::nullopt, cluster_.sim().now());
      finish_rebuild(name);
      return;
    }
    rebuilding_.insert(name);
    rebuild_now(next.name, next.failed, std::move(next.cb));
    return;
  }
}

void RecoveryManager::rebuild_now(const std::string& name, const std::set<net::NodeId>& failed,
                                  RebuildResult cb) {
  const FileLayout* current = cluster_.metadata().lookup(name);
  if (!current || current->policy.resiliency != dfs::Resiliency::kErasureCoding) {
    rebuilding_.erase(name);
    throw std::invalid_argument("RecoveryManager::rebuild: unknown or non-EC object " + name);
  }
  // Every exit below must release the name: wrap the caller's callback.
  cb = [this, name, inner = std::move(cb)](std::optional<FileLayout> layout, TimePs at) {
    inner(std::move(layout), at);
    finish_rebuild(name);
  };
  const FileLayout layout = *current;
  const unsigned k = layout.policy.ec_k;
  const unsigned m = layout.policy.ec_m;

  collect_chunks(
      layout, failed,
      [this, layout, name, failed, k, m, cb = std::move(cb)](auto chunks, TimePs at) mutable {
        if (!chunks) {
          cb(std::nullopt, at);
          return;
        }
        ec::ReedSolomon rs(k, m);
        auto data = rs.decode(*chunks);
        if (!data) {
          cb(std::nullopt, at);
          return;
        }
        const auto parity = rs.encode(*data);

        // Re-home every chunk that lived on a failed node.
        FileLayout repaired = layout;
        std::vector<net::NodeId> avoid(failed.begin(), failed.end());
        struct Progress {
          unsigned pending = 0;
          TimePs last = 0;
          bool ok = true;
        };
        auto progress = std::make_shared<Progress>();
        std::vector<std::pair<dfs::Coord, const Bytes*>> writes;

        for (unsigned i = 0; i < k + m; ++i) {
          auto& coord = i < k ? repaired.targets[i] : repaired.parity[i - k];
          if (!failed.count(coord.node)) continue;
          // Typed exhaustion instead of a throw: with every spare candidate
          // failed/held/draining the rebuild reports unrecoverable-for-now;
          // the caller retries once nodes rejoin.
          auto spare = cluster_.metadata().try_allocate_spare(layout.chunk_len, avoid);
          if (!spare) {
            cb(std::nullopt, at);
            return;
          }
          coord = *spare;
          writes.emplace_back(coord, i < k ? &(*data)[i] : &parity[i - k]);
        }

        if (writes.empty()) {
          if (cluster_.metadata().update_layout(name, repaired) != dfs::DfsError::kOk) {
            cb(std::nullopt, at);  // deleted while we were collecting chunks
            return;
          }
          cb(std::move(repaired), at);
          return;
        }
        progress->pending = static_cast<unsigned>(writes.size());
        progress->last = at;
        auto repaired_ptr = std::make_shared<FileLayout>(std::move(repaired));
        for (auto& [coord, bytes] : writes) {
          ++chunks_rebuilt_;
          const auto wcap =
              scoped_cap(layout.object_id, auth::Right::kWrite, coord, layout.chunk_len);
          client_.write_extent(coord, wcap, *bytes,
                               [this, progress, repaired_ptr, name, cb](dfs::DfsError err,
                                                                        TimePs t) {
                                 progress->ok &= err == dfs::DfsError::kOk;
                                 progress->last = std::max(progress->last, t);
                                 if (--progress->pending == 0) {
                                   // A rebuild racing a delete must not
                                   // resurrect the namespace entry: when the
                                   // file vanished meanwhile, update_layout
                                   // reports kNotFound and the rebuild fails.
                                   if (progress->ok &&
                                       cluster_.metadata().update_layout(name, *repaired_ptr) ==
                                           dfs::DfsError::kOk) {
                                     cb(*repaired_ptr, progress->last);
                                   } else {
                                     cb(std::nullopt, progress->last);
                                   }
                                 }
                               });
        }
      });
}

}  // namespace nadfs::services
