#include "spin/handler.hpp"

#include <stdexcept>

namespace nadfs::spin {

const char* handler_type_name(HandlerType t) {
  switch (t) {
    case HandlerType::kHeader: return "HH";
    case HandlerType::kPayload: return "PH";
    case HandlerType::kCompletion: return "CH";
  }
  return "?";
}

void HandlerCtx::send(net::Packet pkt) {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kSend;
  cmd.cycle_offset = cycles_;
  cmd.pkt = std::move(pkt);
  cmds_.push_back(std::move(cmd));
}

void HandlerCtx::dma_to_storage(std::uint64_t addr, Bytes data) {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kDma;
  cmd.cycle_offset = cycles_;
  cmd.addr = addr;
  cmd.data = std::move(data);
  cmds_.push_back(std::move(cmd));
}

void HandlerCtx::dma_payload_to_storage(std::uint64_t addr, const net::Packet& pkt,
                                        std::size_t offset) {
  if (offset > pkt.data.size()) {
    throw std::out_of_range("HandlerCtx::dma_payload_to_storage: offset beyond the packet");
  }
  Cmd cmd;
  cmd.kind = Cmd::Kind::kDma;
  cmd.cycle_offset = cycles_;
  cmd.addr = addr;
  cmd.view = ByteSpan(pkt.data).subspan(offset);
  cmds_.push_back(std::move(cmd));
}

void HandlerCtx::storage_fence() {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kFence;
  cmd.cycle_offset = cycles_;
  cmds_.push_back(std::move(cmd));
}

void HandlerCtx::send_from_storage(net::Packet pkt, std::uint64_t addr, std::size_t len) {
  pkt.data = storage_reader_ ? storage_reader_(addr, len) : Bytes(len, 0);
  Cmd cmd;
  cmd.kind = Cmd::Kind::kSendFromStorage;
  cmd.cycle_offset = cycles_;
  cmd.pkt = std::move(pkt);
  cmd.addr = addr;
  cmd.len = len;
  cmds_.push_back(std::move(cmd));
}

Bytes HandlerCtx::read_storage(std::uint64_t addr, std::size_t len) {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kDmaRead;
  cmd.cycle_offset = cycles_;
  cmd.addr = addr;
  cmd.len = len;
  cmds_.push_back(std::move(cmd));
  return storage_reader_ ? storage_reader_(addr, len) : Bytes(len, 0);
}

void HandlerCtx::trim_storage(std::uint64_t addr, std::uint64_t len) {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kTrim;
  cmd.cycle_offset = cycles_;
  cmd.addr = addr;
  cmd.len = static_cast<std::size_t>(len);
  cmds_.push_back(std::move(cmd));
}

bool HandlerCtx::storage_trimmed(std::uint64_t addr, std::uint64_t len) {
  return storage_prober_ ? storage_prober_(addr, len) : false;
}

void HandlerCtx::notify_host(std::uint64_t code, std::uint64_t arg) {
  Cmd cmd;
  cmd.kind = Cmd::Kind::kNotify;
  cmd.cycle_offset = cycles_;
  cmd.code = code;
  cmd.arg = arg;
  cmds_.push_back(std::move(cmd));
}

}  // namespace nadfs::spin
