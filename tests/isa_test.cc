// Encoding/decoding and static-property tests of the krx64 ISA, including a
// property-style roundtrip sweep over randomly generated instructions and a
// golden table of every opcode's facts.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/rng.h"
#include "src/cpu/block_cache.h"
#include "src/cpu/cost_model.h"
#include "src/isa/encoding.h"
#include "src/isa/instruction.h"

namespace krx {
namespace {

Instruction RoundTrip(const Instruction& inst) {
  std::vector<uint8_t> bytes;
  EncodeInstruction(inst, bytes);
  EXPECT_EQ(bytes.size(), EncodedSize(inst));
  auto dec = DecodeInstruction(bytes.data(), bytes.size(), 0);
  EXPECT_TRUE(dec.ok()) << dec.status().ToString();
  EXPECT_EQ(dec->size, bytes.size());
  return dec->inst;
}

TEST(Encoding, RoundTripBasics) {
  EXPECT_EQ(RoundTrip(Instruction::Nop()).op, Opcode::kNop);
  EXPECT_EQ(RoundTrip(Instruction::MovRI(Reg::kRax, -1)).imm, -1);
  Instruction load = RoundTrip(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsi, 0x140)));
  EXPECT_EQ(load.op, Opcode::kLoad);
  EXPECT_EQ(load.r1, Reg::kRcx);
  EXPECT_EQ(load.mem.base, Reg::kRsi);
  EXPECT_EQ(load.mem.disp, 0x140);
}

TEST(Encoding, AbsoluteAddressesKeepFullWidth) {
  uint64_t addr = 0xFFFFFFFFC0001234ULL;
  Instruction inst = RoundTrip(Instruction::Load(Reg::kRax, MemOperand::Absolute(
                                                                static_cast<int64_t>(addr))));
  EXPECT_TRUE(inst.mem.is_absolute());
  EXPECT_EQ(static_cast<uint64_t>(inst.mem.disp), addr);
}

TEST(Encoding, RipRelativeRoundTrip) {
  Instruction inst = RoundTrip(Instruction::Load(Reg::kR11, MemOperand::RipRel(-0x2000)));
  EXPECT_TRUE(inst.mem.rip_relative);
  EXPECT_EQ(inst.mem.disp, -0x2000);
}

TEST(Encoding, IndexedOperandRoundTrip) {
  Instruction inst = RoundTrip(
      Instruction::Load(Reg::kRax, MemOperand::BaseIndex(Reg::kRdi, Reg::kR9, 8, 24)));
  EXPECT_EQ(inst.mem.index, Reg::kR9);
  EXPECT_EQ(inst.mem.scale, 8);
  EXPECT_EQ(inst.mem.disp, 24);
}

TEST(Encoding, InvalidOpcodeRejected) {
  uint8_t bytes[] = {0xFE, 0x00, 0x00};
  EXPECT_FALSE(DecodeInstruction(bytes, sizeof(bytes), 0).ok());
}

TEST(Encoding, TruncationRejected) {
  Instruction inst = Instruction::MovRI(Reg::kRax, 0x1234567890ABCDEF);
  std::vector<uint8_t> bytes;
  EncodeInstruction(inst, bytes);
  for (size_t cut = 1; cut < bytes.size(); ++cut) {
    EXPECT_FALSE(DecodeInstruction(bytes.data(), cut, 0).ok()) << "cut=" << cut;
  }
}

TEST(Encoding, Int3IsSingleByte) {
  // The decoy tripwire relies on int3 decoding from a single byte embedded
  // inside a phantom instruction's immediate.
  EXPECT_EQ(EncodedSize(Instruction::Int3()), 1);
  uint8_t b = static_cast<uint8_t>(Opcode::kInt3);
  auto dec = DecodeInstruction(&b, 1, 0);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->inst.op, Opcode::kInt3);
}

TEST(Encoding, TripwireInsidePhantomImmediate) {
  uint64_t imm = 0xA5A5A5A5A5A5A500ULL | static_cast<uint64_t>(Opcode::kInt3);
  Instruction phantom = Instruction::MovRI(Reg::kR11, static_cast<int64_t>(imm));
  std::vector<uint8_t> bytes;
  EncodeInstruction(phantom, bytes);
  // Byte offset 2 = start of the immediate field.
  auto dec = DecodeInstruction(bytes.data(), bytes.size(), 2);
  ASSERT_TRUE(dec.ok());
  EXPECT_EQ(dec->inst.op, Opcode::kInt3);
}

class RoundTripSweep : public ::testing::TestWithParam<uint64_t> {};

// Any opcode with every operand field randomized (immediates and
// displacements in int32 range): the encoding is as long as EncodedSize
// says, decodes in full, and the decoded instruction re-encodes to the same
// bytes. Fields the opcode's format does not carry are dropped on decode,
// so the bytes, not the structs, are compared.
TEST_P(RoundTripSweep, RandomInstructionsSurviveRoundTrip) {
  Rng rng(GetParam());
  auto random_reg = [&] { return static_cast<Reg>(rng.NextBelow(kNumGpRegs)); };
  auto random_i32 = [&] { return rng.NextInRange(INT32_MIN, INT32_MAX); };
  auto random_mem = [&] {
    switch (rng.NextBelow(4)) {
      case 0:
        return MemOperand::Base(random_reg(), random_i32());
      case 1:
        return MemOperand::BaseIndex(random_reg(), random_reg(),
                                     static_cast<uint8_t>(1u << rng.NextBelow(4)), random_i32());
      case 2:
        return MemOperand::RipRel(random_i32());
      default:
        return MemOperand::Absolute(random_i32());
    }
  };
  std::set<Opcode> drawn;
  for (int i = 0; i < 500; ++i) {
    Instruction inst;
    inst.op = static_cast<Opcode>(rng.NextBelow(static_cast<uint64_t>(Opcode::kNumOpcodes)));
    inst.cond = static_cast<Cond>(rng.NextBelow(static_cast<uint64_t>(Cond::kNs) + 1));
    inst.r1 = random_reg();
    inst.r2 = random_reg();
    inst.imm = random_i32();
    inst.mem = random_mem();
    inst.rep = rng.NextBool();
    drawn.insert(inst.op);

    std::vector<uint8_t> bytes;
    EncodeInstruction(inst, bytes);
    ASSERT_EQ(bytes.size(), EncodedSize(inst)) << FormatInstruction(inst);
    auto dec = DecodeInstruction(bytes.data(), bytes.size(), 0);
    ASSERT_TRUE(dec.ok()) << FormatInstruction(inst) << ": " << dec.status().ToString();
    EXPECT_EQ(dec->size, bytes.size()) << FormatInstruction(inst);
    std::vector<uint8_t> again;
    EncodeInstruction(dec->inst, again);
    EXPECT_EQ(again, bytes) << FormatInstruction(inst) << " vs " << FormatInstruction(dec->inst);
  }
  EXPECT_EQ(drawn.size(), static_cast<size_t>(Opcode::kNumOpcodes));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripSweep, ::testing::Values(1, 2, 3, 4, 5));

TEST(InstructionProps, MemoryReadClassification) {
  EXPECT_TRUE(Instruction::Load(Reg::kRax, MemOperand::Base(Reg::kRdi, 0)).ReadsMemory());
  EXPECT_TRUE(Instruction::CmpMI(MemOperand::Base(Reg::kRsi, 8), 1).ReadsMemory());
  EXPECT_TRUE(Instruction::XorMR(MemOperand::Base(Reg::kRsp, 0), Reg::kR11).ReadsMemory());
  EXPECT_TRUE(Instruction::CallM(MemOperand::Base(Reg::kRax, 0)).ReadsMemory());
  EXPECT_FALSE(Instruction::Store(MemOperand::Base(Reg::kRdi, 0), Reg::kRax).ReadsMemory());
  EXPECT_FALSE(Instruction::Lea(Reg::kRax, MemOperand::Base(Reg::kRdi, 0)).ReadsMemory());
  EXPECT_FALSE(Instruction::Stosq().ReadsMemory());
  EXPECT_TRUE(Instruction::Movsq().ReadsMemory());
}

TEST(InstructionProps, SafeAndRspOperands) {
  EXPECT_TRUE(MemOperand::RipRel(100).IsSafeAddress());
  EXPECT_TRUE(MemOperand::Absolute(0x1000).IsSafeAddress());
  EXPECT_FALSE(MemOperand::Base(Reg::kRdi, 0).IsSafeAddress());
  EXPECT_TRUE(MemOperand::Base(Reg::kRsp, 16).IsPlainRspAccess());
  EXPECT_FALSE(MemOperand::BaseIndex(Reg::kRsp, Reg::kRax, 8, 0).IsPlainRspAccess());
}

TEST(InstructionProps, FlagsClassification) {
  EXPECT_TRUE(Instruction::CmpRI(Reg::kRax, 1).WritesFlags());
  EXPECT_TRUE(Instruction::JccBlock(Cond::kA, 0).ReadsFlags());
  EXPECT_TRUE(Instruction::Pushfq().ReadsFlags());
  EXPECT_TRUE(Instruction::Popfq().WritesFlags());
  EXPECT_FALSE(Instruction::Bndcu(MemOperand::Base(Reg::kRdi, 0)).WritesFlags());
  EXPECT_FALSE(Instruction::MovRR(Reg::kRax, Reg::kRbx).WritesFlags());
  // Calls clobber flags (callee does not preserve them).
  EXPECT_TRUE(Instruction::CallSym(0).WritesFlags());
  // repe cmpsq consults ZF.
  EXPECT_TRUE(Instruction::Cmpsq(true).ReadsFlags());
  EXPECT_FALSE(Instruction::Cmpsq(false).ReadsFlags());
}

TEST(InstructionProps, StringReadBases) {
  EXPECT_EQ(Instruction::Movsq().StringReadBase(), Reg::kRsi);
  EXPECT_EQ(Instruction::Lodsq().StringReadBase(), Reg::kRsi);
  EXPECT_EQ(Instruction::Cmpsq().StringReadBase(), Reg::kRsi);
  EXPECT_EQ(Instruction::Scasq().StringReadBase(), Reg::kRdi);
  EXPECT_EQ(Instruction::Nop().StringReadBase(), Reg::kNone);
}

TEST(InstructionProps, RegReadsWrites) {
  EXPECT_EQ(InstructionRegWrites(Instruction::PopR(Reg::kRdi)),
            RegBit(Reg::kRdi) | RegBit(Reg::kRsp));
  // The stored value and the address base.
  EXPECT_EQ(InstructionRegReads(Instruction::Store(MemOperand::Base(Reg::kRbx, 8), Reg::kRax)),
            RegBit(Reg::kRax) | RegBit(Reg::kRbx));
  EXPECT_EQ(InstructionRegWrites(Instruction::Movsq(true)),
            RegBit(Reg::kRsi) | RegBit(Reg::kRdi) | RegBit(Reg::kRcx));
}

TEST(InstructionProps, Formatting) {
  EXPECT_EQ(FormatInstruction(Instruction::Load(Reg::kRcx, MemOperand::Base(Reg::kRsi, 0x140))),
            "mov 0x140(%rsi),%rcx");
  EXPECT_EQ(FormatInstruction(Instruction::CmpRI(Reg::kRsi, 0x7f)), "cmp $0x7f,%rsi");
  EXPECT_EQ(FormatInstruction(Instruction::Ret()), "retq");
  EXPECT_EQ(FormatInstruction(Instruction::Bndcu(MemOperand::Base(Reg::kRsi, 0x154))),
            "bndcu 0x154(%rsi),%bnd0");
}

// ---- Golden opcode table ----
//
// One line per opcode and operand variant (plain; rep for string ops;
// rip-relative memory for explicit memory readers) holding every fact the
// ISA and the timing model state about it: mnemonic, rendering, encoding,
// the static predicates, the registers read and written, the cost, and
// whether it ends a predecoded block. Every operand field is filled the same
// way for all opcodes, so the printer needs no per-opcode knowledge. The
// golden was captured before the opcode facts were gathered into one table
// and must never be regenerated to make a change pass: a moved line is a
// moved fact.

std::string RegSet(RegMask regs) {
  std::string out;
  for (int r = 0; r < kNumGpRegs; ++r) {
    if ((regs & RegBit(static_cast<Reg>(r))) != 0) {
      out += out.empty() ? "" : ",";
      out += RegName(static_cast<Reg>(r));
    }
  }
  return "{" + out + "}";
}

std::string FactLine(const char* variant, const Instruction& inst) {
  std::vector<uint8_t> bytes;
  EncodeInstruction(inst, bytes);
  std::string hex;
  for (uint8_t b : bytes) {
    char buf[4];
    std::snprintf(buf, sizeof(buf), "%02x", b);
    hex += buf;
  }
  const std::string reads = RegSet(InstructionRegReads(inst));
  const std::string writes = RegSet(InstructionRegWrites(inst));
  const OpcodeInfo& info = OpcodeInfoOf(inst.op);
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "%02d %-7s %-6s | %-28s | %-26s %2u | rmem=%d wmem=%d wflags=%d rflags=%d "
                "term=%d string=%d call=%d inst_rflags=%d | reads=%s writes=%s | cost=%" PRIu64
                " ends_block=%d\n",
                static_cast<int>(inst.op), info.mnemonic, variant, FormatInstruction(inst).c_str(),
                hex.c_str(), static_cast<unsigned>(EncodedSize(inst)),
                info.Has(OpcodeInfo::kReadsMemory), info.Has(OpcodeInfo::kWritesMemory),
                info.Has(OpcodeInfo::kWritesFlags), info.Has(OpcodeInfo::kReadsFlags),
                info.Has(OpcodeInfo::kTerminator), info.Has(OpcodeInfo::kString), info.IsCall(),
                inst.ReadsFlags(), reads.c_str(), writes.c_str(), CostModel().CostOf(inst),
                EndsBlock(inst.op));
  return buf;
}

std::string OpcodeFactTable() {
  std::string out;
  for (int o = 0; o < static_cast<int>(Opcode::kNumOpcodes); ++o) {
    Instruction plain;
    plain.op = static_cast<Opcode>(o);
    plain.cond = Cond::kA;
    plain.r1 = Reg::kRcx;
    plain.r2 = Reg::kRsi;
    plain.mem = MemOperand::Base(Reg::kRdi, 0x40);
    plain.imm = 0x10;
    std::vector<std::pair<const char*, Instruction>> variants = {{"plain", plain}};
    if (plain.IsString()) {
      Instruction rep = plain;
      rep.rep = true;
      variants.emplace_back("rep", rep);
    }
    if (plain.HasExplicitMemRead()) {
      Instruction riprel = plain;
      riprel.mem = MemOperand::RipRel(0x40);
      variants.emplace_back("riprel", riprel);
    }
    for (const auto& [variant, inst] : variants) {
      out += FactLine(variant, inst);
    }
  }
  return out;
}

TEST(OpcodeTable, FactsMatchGolden) {
  const std::string actual = OpcodeFactTable();
  std::ifstream in(KRX_OPCODE_TABLE_GOLDEN);
  std::stringstream golden;
  golden << in.rdbuf();
  if (actual != golden.str()) {
    // Leave what this build printed beside the test, for a diff by hand.
    std::ofstream("opcode_table.actual.txt") << actual;
  }
  EXPECT_EQ(actual, golden.str()) << "golden: " << KRX_OPCODE_TABLE_GOLDEN
                                  << "; this build's table: opcode_table.actual.txt";
}

}  // namespace
}  // namespace krx
