// Assembler, linker, layouts, physmap synonyms and module loader-linker.
#include <gtest/gtest.h>

#include "src/base/rng.h"
#include "src/ir/builder.h"
#include "src/kernel/assembler.h"
#include "src/kernel/image.h"
#include "src/kernel/layout.h"
#include "src/kernel/module_loader.h"
#include "src/isa/encoding.h"

namespace krx {
namespace {

Function MakeCallee() {
  FunctionBuilder b("callee");
  b.Emit(Instruction::MovRI(Reg::kRax, 7));
  b.Emit(Instruction::Ret());
  return b.Build();
}

Function MakeCaller(SymbolTable& symbols) {
  FunctionBuilder b("caller");
  b.Emit(Instruction::SubRI(Reg::kRsp, 8));
  b.Emit(Instruction::CallSym(symbols.Intern("callee")));
  b.Emit(Instruction::AddRI(Reg::kRsp, 8));
  b.Emit(Instruction::Ret());
  return b.Build();
}

TEST(Assembler, FunctionsAre16ByteAligned) {
  TextBlob blob;
  Assembler as;
  ASSERT_TRUE(as.Assemble(MakeCallee(), &blob).ok());
  ASSERT_TRUE(as.Assemble(MakeCallee(), &blob).ok());  // duplicate name is fine pre-link
  ASSERT_EQ(blob.functions.size(), 2u);
  EXPECT_EQ(blob.functions[0].offset % 16, 0u);
  EXPECT_EQ(blob.functions[1].offset % 16, 0u);
  // Padding bytes between functions decode as int3.
  for (uint64_t off = blob.functions[0].offset + blob.functions[0].size;
       off < blob.functions[1].offset; ++off) {
    EXPECT_EQ(blob.bytes[off], kTextPadByte);
  }
}

TEST(Assembler, IntraFunctionBranchesResolve) {
  FunctionBuilder b("f");
  int32_t target = b.ReserveBlock();
  b.Emit(Instruction::CmpRI(Reg::kRax, 0));
  b.Emit(Instruction::JccBlock(Cond::kE, target));
  b.Emit(Instruction::AddRI(Reg::kRax, 1));
  b.Bind(target);
  b.Emit(Instruction::Ret());
  TextBlob blob;
  Assembler as;
  ASSERT_TRUE(as.Assemble(b.Build(), &blob).ok());
  EXPECT_TRUE(blob.relocs.empty());  // no external references

  // Decode the stream and verify the jcc skips exactly the add.
  uint64_t off = 0;
  std::vector<std::pair<uint64_t, Instruction>> insts;
  while (off < blob.functions[0].size) {
    auto dec = DecodeInstruction(blob.bytes.data(), blob.bytes.size(), off);
    ASSERT_TRUE(dec.ok());
    insts.emplace_back(off, dec->inst);
    off += dec->size;
  }
  ASSERT_EQ(insts.size(), 4u);
  const auto& [jcc_off, jcc] = insts[1];
  const auto& [add_off, add] = insts[2];
  const auto& [ret_off, ret] = insts[3];
  EXPECT_EQ(add.op, Opcode::kAddRI);
  EXPECT_EQ(ret.op, Opcode::kRet);
  uint64_t jcc_end = add_off;  // jcc ends where add begins
  EXPECT_EQ(jcc_end + static_cast<uint64_t>(jcc.imm), ret_off);
}

TEST(Assembler, CallEmitsRel32Reloc) {
  SymbolTable symbols;
  TextBlob blob;
  Assembler as;
  ASSERT_TRUE(as.Assemble(MakeCaller(symbols), &blob).ok());
  ASSERT_EQ(blob.relocs.size(), 1u);
  EXPECT_EQ(blob.relocs[0].kind, RelocKind::kRel32);
  EXPECT_EQ(blob.relocs[0].symbol, symbols.Find("callee"));
}

TEST(Assembler, InstLabelResolvesWithByteOffset) {
  // lea L+2(%rip), %r11 where L labels a later instruction.
  Function fn("f");
  int32_t b0 = fn.AddBlock();
  Instruction lea = Instruction::Lea(Reg::kR11, MemOperand::RipRel(0));
  lea.mem_label = 5;
  lea.mem_label_byte_off = 2;
  Instruction labeled = Instruction::MovRI(Reg::kR11, 0x1102);
  labeled.inst_label = 5;
  fn.block_by_id(b0).insts.push_back(lea);
  fn.block_by_id(b0).insts.push_back(labeled);
  fn.block_by_id(b0).insts.push_back(Instruction::Ret());
  TextBlob blob;
  Assembler as;
  ASSERT_TRUE(as.Assemble(fn, &blob).ok());
  auto dec = DecodeInstruction(blob.bytes.data(), blob.bytes.size(), 0);
  ASSERT_TRUE(dec.ok());
  // lea end + disp must equal (labeled inst offset) + 2.
  uint64_t lea_end = dec->size;
  EXPECT_EQ(lea_end + static_cast<uint64_t>(dec->inst.mem.disp), lea_end + 2);
}

KernelLinkInput MakeLinkInput(SymbolTable& symbols) {
  KernelLinkInput input;
  Assembler as;
  KRX_CHECK(as.Assemble(MakeCallee(), &input.text).ok());
  KRX_CHECK(as.Assemble(MakeCaller(symbols), &input.text).ok());
  DataObject obj;
  obj.name = "table";
  obj.kind = SectionKind::kRodata;
  obj.bytes.assign(16, 0);
  obj.pointer_slots.push_back({0, symbols.Intern("callee")});
  input.data_objects.push_back(obj);
  DataObject rw;
  rw.name = "counter";
  rw.kind = SectionKind::kData;
  rw.bytes.assign(8, 0x11);
  input.data_objects.push_back(rw);
  input.phys_bytes = 8ULL << 20;
  return input;
}

TEST(LinkKernel, VanillaLayoutTextFirst) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kVanilla, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const PlacedSection* text = (*image)->FindSection(".text");
  const PlacedSection* rodata = (*image)->FindSection(".rodata");
  const PlacedSection* data = (*image)->FindSection(".data");
  ASSERT_TRUE(text && rodata && data);
  EXPECT_EQ(text->vaddr, kImageBase);  // conventional: .text at the image base
  EXPECT_LT(text->vaddr, rodata->vaddr);
  EXPECT_LT(rodata->vaddr, data->vaddr);
  EXPECT_EQ((*image)->krx_edata(), 0u);
}

TEST(LinkKernel, KrxLayoutFlipsImageAndSetsEdata) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok()) << image.status().ToString();
  const PlacedSection* text = (*image)->FindSection(".text");
  const PlacedSection* rodata = (*image)->FindSection(".rodata");
  const PlacedSection* guard = (*image)->FindSection(".krx_phantom");
  ASSERT_TRUE(text && rodata && guard);
  // Flipped: data at the image base, .text in the code region above edata.
  EXPECT_EQ(rodata->vaddr, kImageBase);
  EXPECT_GE(text->vaddr, kKrxCodeBase);
  uint64_t edata = (*image)->krx_edata();
  EXPECT_GT(edata, 0u);
  EXPECT_EQ(guard->vaddr, edata);
  EXPECT_EQ(guard->vaddr + guard->mapped_size, kKrxCodeBase);
  // Every data section below edata, all code above.
  EXPECT_LT(rodata->vaddr, edata);
  EXPECT_GT(text->vaddr, edata);
}

TEST(LinkKernel, PointerSlotsGetFunctionAddresses) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  auto table = (*image)->symbols().AddressOf("table");
  auto callee = (*image)->symbols().AddressOf("callee");
  ASSERT_TRUE(table.ok() && callee.ok());
  auto slot = (*image)->Peek64(*table);
  ASSERT_TRUE(slot.ok());
  EXPECT_EQ(*slot, *callee);
}

TEST(LinkKernel, PhysmapSynonymsOfCodeUnmapped) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  const PlacedSection* text = (*image)->FindSection(".text");
  const PlacedSection* data = (*image)->FindSection(".data");
  // Code synonym gone; data synonym still present.
  EXPECT_FALSE((*image)->page_table().Lookup((*image)->PhysmapVaddr(text->first_frame)).has_value());
  EXPECT_TRUE((*image)->page_table().Lookup((*image)->PhysmapVaddr(data->first_frame)).has_value());
}

TEST(LinkKernel, VanillaKeepsCodeSynonyms) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kVanilla, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  const PlacedSection* text = (*image)->FindSection(".text");
  // ret2dir-style alias remains readable and writable through the physmap.
  EXPECT_TRUE((*image)->page_table().Lookup((*image)->PhysmapVaddr(text->first_frame)).has_value());
}

TEST(LinkKernel, NoWxMappings) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  EXPECT_TRUE((*image)->page_table().FindWxViolations().empty());
}

TEST(LinkKernel, UndefinedSymbolFailsLink) {
  SymbolTable symbols;
  KernelLinkInput input;
  Assembler as;
  ASSERT_TRUE(as.Assemble(MakeCaller(symbols), &input.text).ok());  // no callee
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kNotFound);
}

TEST(LinkKernel, DuplicateFunctionRejected) {
  SymbolTable symbols;
  KernelLinkInput input;
  Assembler as;
  ASSERT_TRUE(as.Assemble(MakeCallee(), &input.text).ok());
  ASSERT_TRUE(as.Assemble(MakeCallee(), &input.text).ok());
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  EXPECT_FALSE(image.ok());
  EXPECT_EQ(image.status().code(), StatusCode::kAlreadyExists);
}

TEST(ModuleLoader, LoadBindUnloadZap) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());

  // Module calling the kernel's "callee".
  ModuleObject mod;
  mod.name = "extmod";
  Assembler as;
  FunctionBuilder mb("mod_entry");
  mb.Emit(Instruction::SubRI(Reg::kRsp, 8));
  mb.Emit(Instruction::CallSym((*image)->symbols().Intern("callee")));
  mb.Emit(Instruction::AddRI(Reg::kRax, 1));
  mb.Emit(Instruction::AddRI(Reg::kRsp, 8));
  mb.Emit(Instruction::Ret());
  ASSERT_TRUE(as.Assemble(mb.Build(), &mod.text).ok());
  DataObject md;
  md.name = "mod_data";
  md.kind = SectionKind::kData;
  md.bytes.assign(8, 0x22);
  mod.data_objects.push_back(md);

  ModuleLoader loader(image->get());
  auto handle = loader.Load(mod);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const LoadedModule& lm = loader.module(*handle);
  // Sliced: text in modules_text, data in modules_data.
  EXPECT_GE(lm.text_vaddr, kKrxModulesTextBase);
  EXPECT_GE(lm.data_vaddr, kKrxModulesDataBase);
  EXPECT_LT(lm.data_vaddr, kKrxModulesDataBase + kKrxModulesDataLen);
  // Eager binding resolved the symbol.
  EXPECT_TRUE((*image)->symbols().AddressOf("mod_entry").ok());
  // Module text synonym removed from the physmap.
  EXPECT_FALSE((*image)->page_table().Lookup((*image)->PhysmapVaddr(lm.text_first_frame)).has_value());

  uint64_t text_vaddr = lm.text_vaddr;
  uint64_t frame = lm.text_first_frame;
  ASSERT_TRUE(loader.Unload(*handle).ok());
  // Unmapped, zapped, synonym restored, symbols gone.
  EXPECT_FALSE((*image)->page_table().Lookup(text_vaddr).has_value());
  EXPECT_TRUE((*image)->page_table().Lookup((*image)->PhysmapVaddr(frame)).has_value());
  EXPECT_EQ((*image)->phys().Read8(frame << kPageShift), kTextPadByte);
  EXPECT_FALSE((*image)->symbols().AddressOf("mod_entry").ok());
  // Double unload fails cleanly.
  EXPECT_FALSE(loader.Unload(*handle).ok());
}

TEST(ModuleLoader, VanillaInterleavesTextAndData) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kVanilla, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  ModuleObject mod;
  mod.name = "m";
  Assembler as;
  ASSERT_TRUE(as.Assemble([&] {
                FunctionBuilder b("m_entry");
                b.Emit(Instruction::MovRI(Reg::kRax, 3));
                b.Emit(Instruction::Ret());
                return b.Build();
              }(),
                          &mod.text)
                  .ok());
  DataObject md;
  md.name = "m_data";
  md.kind = SectionKind::kData;
  md.bytes.assign(8, 1);
  mod.data_objects.push_back(md);
  ModuleLoader loader(image->get());
  auto handle = loader.Load(mod);
  ASSERT_TRUE(handle.ok());
  const LoadedModule& lm = loader.module(*handle);
  // Same region, back to back (text page then data page).
  EXPECT_GE(lm.text_vaddr, kVanillaModulesBase);
  EXPECT_EQ(lm.data_vaddr, lm.text_vaddr + kPageSize);
}

TEST(ModuleLoader, RegionExhaustionRejected) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  auto too_big = (*image)->AllocModuleText(kKrxModulesTextLen + 1);
  EXPECT_FALSE(too_big.ok());
  EXPECT_EQ(too_big.status().code(), StatusCode::kResourceExhausted);
}

TEST(Relocs, Rel32OverflowDetected) {
  // A rel32 that violates the -mcmodel=kernel ±2GB constraint must fail.
  std::vector<uint8_t> bytes(16, 0);
  SymbolTable symbols;
  int32_t sym = symbols.Intern("far_away");
  symbols.at(sym).defined = true;
  symbols.at(sym).address = 0x100000000ULL;  // 4GB away from a zero-based section
  std::vector<Reloc> relocs = {Reloc{RelocKind::kRel32, 0, 4, sym}};
  Status s = ApplyRelocs(bytes, relocs, 0, symbols);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOutOfRange);
}

TEST(Image, XkeyReplenishmentFillsNonZeroKeys) {
  SymbolTable symbols;
  KernelLinkInput input = MakeLinkInput(symbols);
  input.xkeys.assign(32, 0);
  for (int i = 0; i < 4; ++i) {
    int32_t sym = symbols.Intern("xkey$f" + std::to_string(i), SymbolKind::kData);
    input.xkey_symbols.emplace_back(sym, 8 * i);
  }
  auto image = LinkKernel(LayoutKind::kKrx, std::move(input), std::move(symbols));
  ASSERT_TRUE(image.ok());
  Rng rng(99);
  ASSERT_TRUE((*image)->ReplenishXkeys(rng).ok());
  for (int i = 0; i < 4; ++i) {
    auto addr = (*image)->symbols().AddressOf("xkey$f" + std::to_string(i));
    ASSERT_TRUE(addr.ok());
    EXPECT_GE(*addr, (*image)->krx_edata());  // keys live in the code region
    auto key = (*image)->Peek64(*addr);
    ASSERT_TRUE(key.ok());
    EXPECT_NE(*key, 0u);
  }
}

}  // namespace
}  // namespace krx
