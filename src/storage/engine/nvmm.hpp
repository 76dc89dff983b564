// NVMM engine: the first backend where the device, not the NIC, can set
// the pace. Same flat functional store as line-rate, but every op queues
// on a finite device-bandwidth GapServer and pays a per-command media
// latency — writes and reads share the budget, so a read burst delays
// write durability and vice versa.
#pragma once

#include "storage/engine/engine.hpp"

namespace nadfs::storage {

class NvmmEngine final : public StorageEngine {
 public:
  NvmmEngine(sim::Simulator& simulator, const EngineConfig& cfg)
      : StorageEngine(simulator), cfg_(cfg), device_(simulator, cfg.device_bandwidth) {}

  const char* name() const override { return "nvmm"; }
  EngineKind kind() const override { return EngineKind::kNvmm; }

  TimePs write(std::uint64_t addr, ByteSpan data, TimePs earliest) override {
    pages_.write(addr, data);
    write_bytes_ += data.size();
    return device_.reserve(data.size(), earliest).end + cfg_.write_latency;
  }

  Bytes read(std::uint64_t addr, std::size_t len) const override {
    return pages_.read(addr, len);
  }

  TimedRead read_at(std::uint64_t addr, std::size_t len, TimePs earliest) override {
    return {pages_.read(addr, len), read_ready(addr, len, earliest)};
  }

  TimePs read_ready(std::uint64_t, std::size_t len, TimePs earliest) override {
    read_bytes_ += len;
    return device_.reserve(len, earliest).end + cfg_.read_latency;
  }

  TimePs trim(std::uint64_t addr, std::uint64_t len, TimePs earliest) override {
    pages_.zero(addr, len);
    return device_.reserve(0, earliest).end + cfg_.write_latency;
  }

  void bind_metrics(obs::MetricRegistry& reg, const std::string& prefix) override;

 private:
  EngineConfig cfg_;
  sim::GapServer device_;
  PageStore pages_;
  std::uint64_t write_bytes_ = 0;
  std::uint64_t read_bytes_ = 0;
};

}  // namespace nadfs::storage
