#include "src/attack/gadget_scanner.h"

#include "src/isa/encoding.h"

namespace krx {
namespace {

// Instructions that make a candidate sequence useless as a gadget: traps,
// privileged operations, or control transfers before the final ret.
bool Disqualifies(const Instruction& inst) {
  const OpcodeInfo& info = OpcodeInfoOf(inst.op);
  return (info.flow != Flow::kNone && info.flow != Flow::kRet) ||
         info.Has(OpcodeInfo::kPrivileged);
}

}  // namespace

std::string Gadget::ToString() const {
  std::string out;
  char addr[32];
  std::snprintf(addr, sizeof(addr), "0x%llx: ", static_cast<unsigned long long>(address));
  out += addr;
  for (size_t i = 0; i < insts.size(); ++i) {
    if (i > 0) {
      out += "; ";
    }
    out += FormatInstruction(insts[i]);
  }
  return out;
}

namespace {

bool IsIndirectBranch(Opcode op) {
  const Flow flow = OpcodeInfoOf(op).flow;
  return flow == Flow::kIndirectJump || flow == Flow::kIndirectCall;
}

}  // namespace

std::vector<Gadget> GadgetScanner::ScanFor(const uint8_t* bytes, size_t len, uint64_t base_vaddr,
                                           GadgetKind kind) const {
  std::vector<Gadget> out;
  for (size_t off = 0; off < len; ++off) {
    Gadget g;
    g.address = base_vaddr + off;
    g.kind = kind;
    size_t pos = off;
    bool ok = false;
    for (size_t n = 0; n <= options_.max_insts; ++n) {
      auto dec = DecodeInstruction(bytes, len, pos);
      if (!dec.ok()) {
        break;
      }
      g.insts.push_back(dec->inst);
      pos += dec->size;
      const bool terminates = kind == GadgetKind::kRop ? dec->inst.op == Opcode::kRet
                                                       : IsIndirectBranch(dec->inst.op);
      if (terminates) {
        ok = true;
        break;
      }
      if (Disqualifies(dec->inst)) {
        break;
      }
    }
    if (ok) {
      out.push_back(std::move(g));
    }
  }
  return out;
}

std::vector<Gadget> GadgetScanner::Scan(const uint8_t* bytes, size_t len,
                                        uint64_t base_vaddr) const {
  return ScanFor(bytes, len, base_vaddr, GadgetKind::kRop);
}

std::vector<Gadget> GadgetScanner::ScanJop(const uint8_t* bytes, size_t len,
                                           uint64_t base_vaddr) const {
  return ScanFor(bytes, len, base_vaddr, GadgetKind::kJop);
}

std::optional<Gadget> GadgetScanner::FindPopReg(const std::vector<Gadget>& gadgets, Reg reg) {
  for (const Gadget& g : gadgets) {
    if (g.insts.size() == 2 && g.insts[0].op == Opcode::kPopR && g.insts[0].r1 == reg) {
      return g;
    }
  }
  return std::nullopt;
}

std::optional<Gadget> GadgetScanner::FindMovRR(const std::vector<Gadget>& gadgets, Reg dst,
                                               Reg src) {
  for (const Gadget& g : gadgets) {
    if (g.insts.size() == 2 && g.insts[0].op == Opcode::kMovRR && g.insts[0].r1 == dst &&
        g.insts[0].r2 == src) {
      return g;
    }
  }
  return std::nullopt;
}

std::optional<Gadget> GadgetScanner::FindStore(const std::vector<Gadget>& gadgets, Reg base,
                                               Reg src) {
  for (const Gadget& g : gadgets) {
    if (g.insts.size() == 2 && g.insts[0].op == Opcode::kStore && g.insts[0].r1 == src &&
        g.insts[0].mem.base == base && !g.insts[0].mem.has_index()) {
      return g;
    }
  }
  return std::nullopt;
}

}  // namespace krx
