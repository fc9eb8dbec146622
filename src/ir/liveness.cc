#include "src/ir/liveness.h"

namespace krx {
namespace {

// Transfer function through one instruction, backward:
// live_before = (live_after && !writes) || reads.
bool FlagsLiveThrough(const Instruction& inst, bool live_after) {
  if (inst.ReadsFlags()) {
    return true;
  }
  if (inst.WritesFlags()) {
    return false;
  }
  return live_after;
}

}  // namespace

FlagsLiveness::FlagsLiveness(const Function& fn) : fn_(fn) {
  const auto& blocks = fn.blocks();
  size_t n = blocks.size();
  live_in_.assign(n, false);
  live_out_.assign(n, false);

  // Map block id -> layout index once.
  std::vector<int32_t> id_to_idx;
  for (size_t i = 0; i < n; ++i) {
    int32_t id = blocks[i].id;
    if (static_cast<size_t>(id) >= id_to_idx.size()) {
      id_to_idx.resize(static_cast<size_t>(id) + 1, -1);
    }
    id_to_idx[static_cast<size_t>(id)] = static_cast<int32_t>(i);
  }

  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t ii = n; ii-- > 0;) {
      bool out = false;
      for (int32_t succ_id : fn.SuccessorsOf(static_cast<int32_t>(ii))) {
        int32_t sidx = id_to_idx[static_cast<size_t>(succ_id)];
        if (sidx >= 0) {
          out = out || live_in_[static_cast<size_t>(sidx)];
        }
      }
      bool in = out;
      const auto& insts = blocks[ii].insts;
      for (size_t j = insts.size(); j-- > 0;) {
        in = FlagsLiveThrough(insts[j], in);
      }
      if (out != live_out_[ii] || in != live_in_[ii]) {
        live_out_[ii] = out;
        live_in_[ii] = in;
        changed = true;
      }
    }
  }
}

bool FlagsLiveness::LiveBefore(int32_t layout_idx, size_t inst_idx) const {
  const BasicBlock& b = fn_.blocks()[static_cast<size_t>(layout_idx)];
  bool live = live_out_[static_cast<size_t>(layout_idx)];
  KRX_CHECK(inst_idx <= b.insts.size());
  for (size_t j = b.insts.size(); j-- > inst_idx;) {
    live = FlagsLiveThrough(b.insts[j], live);
  }
  return live;
}

bool InstructionWritesReg(const Instruction& inst, Reg r) {
  return (InstructionRegWrites(inst) & RegBit(r)) != 0;
}

bool InstructionReadsReg(const Instruction& inst, Reg r) {
  return (InstructionRegReads(inst) & RegBit(r)) != 0;
}

}  // namespace krx
