// Binary-level CFG reconstruction for the kR^X verifier.
//
// DecodeFunction linearly disassembles a function's symbol range out of the
// linked image and rebuilds a conservative CFG from the bytes alone: blocks
// split at every branch target and conditional/unconditional transfer,
// successors follow direct rel32 edges and fallthrough, and reachability is
// computed from the function entry. The verifier deliberately does *not*
// consult any pass-internal IR — it distrusts the compiler, in the spirit
// of SFI verifiers.
//
// Data layout: instructions and blocks live in flat per-function arrays,
// and a per-byte instruction-start bitmap with one rank word per 64 bytes
// answers "which instruction starts at this address" in O(1) for about a
// quarter of a byte per byte of code. Each instruction also carries the
// summaries the analyses consult on every fixpoint visit (register writes,
// the fact-kill mask, memory/flags/call bits), computed once here. A
// DecodedFunction can be decoded into again: VerifyImage walks a whole
// image through one object, so its storage stays warm in cache and the
// image's decoded form is never resident all at once.
#ifndef KRX_SRC_VERIFY_DECODED_FUNCTION_H_
#define KRX_SRC_VERIFY_DECODED_FUNCTION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/base/status.h"
#include "src/isa/encoding.h"
#include "src/isa/instruction.h"
#include "src/kernel/image.h"

namespace krx {

struct DecodedInst {
  DecodedInst() = default;
  // `dec`, decoded at `address`, with its summaries.
  DecodedInst(uint64_t address, const Decoded& dec);

  uint64_t address = 0;
  uint8_t size = 0;
  bool reachable = false;
  // Decode-time summaries of `inst`.
  bool reads_memory : 1 = false;
  bool writes_flags : 1 = false;
  bool is_call : 1 = false;
  RegMask reg_writes = 0;  // registers written
  // Registers whose proven facts die here: every register written, plus the
  // source of a store or push, whose value escapes to writable memory.
  RegMask kill_mask = 0;
  Instruction inst;

  // Absolute target of a rel32 branch/call (imm is the displacement from the
  // end of the instruction).
  uint64_t BranchTarget() const {
    return address + size + static_cast<uint64_t>(inst.imm);
  }
  // Resolved effective address of a rip-relative memory operand.
  uint64_t RipRelTarget() const {
    return address + size + static_cast<uint64_t>(inst.mem.disp);
  }
};

struct VerifierBlock {
  size_t first = 0;  // index of the block's first instruction in `insts`
  size_t count = 0;
  int32_t fall = -1;   // fallthrough / split successor (block index)
  int32_t taken = -1;  // direct-branch successor (block index)
  bool reachable = false;
};

struct DecodedFunction {
  std::string name;
  uint64_t address = 0;
  uint64_t size = 0;
  std::vector<DecodedInst> insts;
  std::vector<VerifierBlock> blocks;

  bool Contains(uint64_t addr) const { return addr >= address && addr < address + size; }
  // Instruction starting exactly at `addr`, or nullptr. O(1).
  const DecodedInst* InstAt(uint64_t addr) const;
  // Index (into insts) of the instruction at `addr`, or -1. O(1).
  int64_t InstIndexAt(uint64_t addr) const;
  // Disassembly of the instruction at `addr` (best effort, for snippets).
  std::string SnippetAt(uint64_t addr) const;

  // Decodes `fn_size` bytes at `fn_address` into this object, reusing its
  // storage, and reconstructs the CFG. Fails like DecodeFunction, leaving
  // the object to be decoded into again.
  Status Decode(const KernelImage& image, const std::string& fn_name, uint64_t fn_address,
                uint64_t fn_size);

 private:
  // Instruction starts of bytes [64 * w, 64 * w + 64) of the function, and
  // how many instructions start before byte 64 * w.
  struct StartWord {
    uint64_t bits = 0;
    uint32_t rank = 0;
  };
  std::vector<StartWord> starts_;
  // Working storage of Decode, kept for the next call.
  std::vector<uint8_t> bytes_;
  std::vector<uint32_t> block_of_;
  std::vector<int32_t> work_;
};

// Decodes `size` bytes at `address` and reconstructs the CFG. Fails (for a
// CFG_DECODE diagnostic) if any byte position reached by linear sweep does
// not decode.
Result<DecodedFunction> DecodeFunction(const KernelImage& image, const std::string& name,
                                       uint64_t address, uint64_t size);

// The linear sweep under every decode: reads the `size` code bytes at
// `address` into `*bytes` and decodes them back to back, calling
// `on_inst(offset, decoded)` per instruction. The assembler lays
// instructions back to back within a symbol range (phantom padding
// included), so a decode failure at any offset is itself a verification
// finding; the error names `name` and the offset.
template <typename OnInst>
Status SweepFunctionBytes(const KernelImage& image, const std::string& name, uint64_t address,
                          uint64_t size, std::vector<uint8_t>* bytes, OnInst&& on_inst) {
  bytes->resize(size);
  KRX_RETURN_IF_ERROR(image.PeekBytes(address, bytes->data(), bytes->size()));
  // Phantom padding is long runs of the one-byte int3, a third of a
  // diversified image's instructions: decode that byte once and reuse it.
  const uint8_t pad_byte = static_cast<uint8_t>(Opcode::kInt3);
  const Result<Decoded> pad = DecodeInstruction(&pad_byte, 1, 0);
  size_t pos = 0;
  while (pos < bytes->size()) {
    if (pad.ok() && (*bytes)[pos] == pad_byte) {
      on_inst(pos, *pad);
      pos += pad->size;
      continue;
    }
    auto dec = DecodeInstruction(bytes->data(), bytes->size(), pos);
    if (!dec.ok()) {
      return InternalError(name + ": undecodable bytes at +0x" + std::to_string(pos) + ": " +
                           dec.status().message());
    }
    on_inst(pos, *dec);
    pos += dec->size;
  }
  return Status::Ok();
}

}  // namespace krx

#endif  // KRX_SRC_VERIFY_DECODED_FUNCTION_H_
