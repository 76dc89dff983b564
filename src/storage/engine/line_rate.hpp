// The paper's storage model, unchanged: a byte-addressable medium that
// ingests at network bandwidth or higher (§III). This engine is the
// pre-engine storage::Target moved behind the StorageEngine interface —
// same page store, same single GapServer reservation per op, zero sim
// events — so every pinned digest and paper figure reproduces bit-exactly.
#pragma once

#include "storage/engine/engine.hpp"

namespace nadfs::storage {

class LineRateEngine final : public StorageEngine {
 public:
  LineRateEngine(sim::Simulator& simulator, Bandwidth ingest)
      : StorageEngine(simulator), ingest_(simulator, ingest) {}

  const char* name() const override { return "line-rate"; }
  EngineKind kind() const override { return EngineKind::kLineRate; }

  TimePs write(std::uint64_t addr, ByteSpan data, TimePs earliest) override {
    pages_.write(addr, data);
    return ingest_.reserve(data.size(), earliest).end;
  }

  Bytes read(std::uint64_t addr, std::size_t len) const override {
    return pages_.read(addr, len);
  }

  TimedRead read_at(std::uint64_t addr, std::size_t len, TimePs earliest) override {
    return {pages_.read(addr, len), read_ready(addr, len, earliest)};
  }

  // Reads are free at line rate: the media-ready time is the caller's
  // ready time, exactly as the pre-engine model behaved.
  TimePs read_ready(std::uint64_t, std::size_t, TimePs earliest) override { return earliest; }

  TimePs trim(std::uint64_t addr, std::uint64_t len, TimePs earliest) override {
    pages_.zero(addr, len);
    // A trim is a metadata-sized command on the ingest unit, not a data
    // burst.
    return ingest_.reserve(0, earliest).end;
  }

 private:
  sim::GapServer ingest_;
  PageStore pages_;
};

}  // namespace nadfs::storage
