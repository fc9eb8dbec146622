#include "src/verify/decoded_function.h"

#include <bit>

namespace krx {
namespace {

// Ends a basic block: any control transfer, conditional or not.
bool EndsBlock(const Instruction& inst) {
  return inst.IsTerminator() || inst.op == Opcode::kJcc;
}

// Code bytes per instruction the reservation assumes. Undiversified images
// average about 6.3 bytes per instruction and diversified ones about 3
// (their phantom int3 runs are one byte each), so the vector rarely grows,
// and Decode() keeps its capacity for the next function.
constexpr uint64_t kReserveBytesPerInst = 4;

}  // namespace

DecodedInst::DecodedInst(uint64_t address_in, const Decoded& dec)
    : address(address_in), size(dec.size), inst(dec.inst) {
  reads_memory = inst.ReadsMemory();
  writes_flags = inst.WritesFlags();
  is_call = inst.IsCall();
  reg_writes = InstructionRegWrites(inst);
  kill_mask = reg_writes;
  if (inst.op == Opcode::kStore || inst.op == Opcode::kPushR) {
    kill_mask |= RegBit(inst.r1);
  }
}

const DecodedInst* DecodedFunction::InstAt(uint64_t addr) const {
  int64_t idx = InstIndexAt(addr);
  return idx < 0 ? nullptr : &insts[static_cast<size_t>(idx)];
}

int64_t DecodedFunction::InstIndexAt(uint64_t addr) const {
  if (!Contains(addr)) {
    return -1;
  }
  const uint64_t off = addr - address;
  const StartWord& word = starts_[off >> 6];
  const uint64_t bit = uint64_t{1} << (off & 63);
  if ((word.bits & bit) == 0) {
    return -1;
  }
  return word.rank + std::popcount(word.bits & (bit - 1));
}

std::string DecodedFunction::SnippetAt(uint64_t addr) const {
  const DecodedInst* di = InstAt(addr);
  if (di == nullptr) {
    return "<no instruction boundary>";
  }
  return FormatInstruction(di->inst);
}

Status DecodedFunction::Decode(const KernelImage& image, const std::string& fn_name,
                               uint64_t fn_address, uint64_t fn_size) {
  name = fn_name;
  address = fn_address;
  size = fn_size;
  insts.clear();
  blocks.clear();
  starts_.assign((size + 63) / 64, StartWord{});

  insts.reserve(size / kReserveBytesPerInst + 1);
  KRX_RETURN_IF_ERROR(SweepFunctionBytes(image, name, address, size, &bytes_,
                                         [&](size_t pos, const Decoded& dec) {
                                           insts.emplace_back(address + pos, dec);
                                           starts_[pos >> 6].bits |= uint64_t{1} << (pos & 63);
                                         }));
  uint32_t rank = 0;
  for (StartWord& word : starts_) {
    word.rank = rank;
    rank += static_cast<uint32_t>(std::popcount(word.bits));
  }

  const size_t n = insts.size();
  if (n == 0) {
    return Status::Ok();
  }

  // ---- Block leaders: the entry, every direct-branch target that is an
  // instruction boundary, and the instruction after every control
  // transfer. `block_of_` holds a leader flag, then each instruction's
  // block. ----
  block_of_.assign(n, 0);
  block_of_[0] = 1;
  for (size_t i = 0; i < n; ++i) {
    const DecodedInst& di = insts[i];
    if (di.inst.op == Opcode::kJcc || di.inst.op == Opcode::kJmpRel) {
      const int64_t target = InstIndexAt(di.BranchTarget());
      if (target >= 0) {
        block_of_[static_cast<size_t>(target)] = 1;
      }
    }
    if (EndsBlock(di.inst) && i + 1 < n) {
      block_of_[i + 1] = 1;
    }
  }
  size_t leaders = 0;
  for (uint32_t flag : block_of_) {
    leaders += flag;
  }
  blocks.reserve(leaders);
  for (size_t i = 0; i < n; ++i) {
    if (block_of_[i] != 0) {
      VerifierBlock b;
      b.first = i;
      blocks.push_back(b);
    }
    blocks.back().count += 1;
    block_of_[i] = static_cast<uint32_t>(blocks.size() - 1);
  }

  auto block_at = [&](uint64_t addr) -> int32_t {
    int64_t idx = InstIndexAt(addr);
    if (idx < 0) {
      return -1;
    }
    size_t b = block_of_[static_cast<size_t>(idx)];
    return blocks[b].first == static_cast<size_t>(idx) ? static_cast<int32_t>(b) : -1;
  };

  // ---- Successors. ----
  for (size_t b = 0; b < blocks.size(); ++b) {
    VerifierBlock& blk = blocks[b];
    const DecodedInst& last = insts[blk.first + blk.count - 1];
    const bool has_next = b + 1 < blocks.size();
    if (last.inst.op == Opcode::kJcc) {
      uint64_t target = last.BranchTarget();
      if (Contains(target)) {
        blk.taken = block_at(target);
      }
      blk.fall = has_next ? static_cast<int32_t>(b + 1) : -1;
    } else if (last.inst.op == Opcode::kJmpRel) {
      uint64_t target = last.BranchTarget();
      if (Contains(target)) {
        blk.taken = block_at(target);
      }
      // A jmp out of the symbol range is a tail call: no intra successor.
    } else if (last.inst.IsTerminator()) {
      // ret / indirect jmp / hlt / ud2 / sysret: no static successor.
    } else {
      blk.fall = has_next ? static_cast<int32_t>(b + 1) : -1;
    }
  }

  // ---- Reachability from the entry block. ----
  work_.assign(1, 0);
  while (!work_.empty()) {
    int32_t b = work_.back();
    work_.pop_back();
    if (b < 0 || blocks[static_cast<size_t>(b)].reachable) {
      continue;
    }
    VerifierBlock& blk = blocks[static_cast<size_t>(b)];
    blk.reachable = true;
    for (size_t i = 0; i < blk.count; ++i) {
      insts[blk.first + i].reachable = true;
    }
    work_.push_back(blk.fall);
    work_.push_back(blk.taken);
  }
  return Status::Ok();
}

Result<DecodedFunction> DecodeFunction(const KernelImage& image, const std::string& name,
                                       uint64_t address, uint64_t size) {
  DecodedFunction fn;
  KRX_RETURN_IF_ERROR(fn.Decode(image, name, address, size));
  return fn;
}

}  // namespace krx
