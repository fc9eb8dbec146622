#include "src/verify/structural.h"

#include <algorithm>

#include "src/kernel/layout.h"

namespace krx {
namespace {

void AddImageDiag(VerifyReport* report, RuleId rule, uint64_t address, std::string snippet,
                  std::string message) {
  Diagnostic d;
  d.rule = rule;
  d.address = address;
  d.snippet = std::move(snippet);
  d.message = std::move(message);
  report->Add(std::move(d));
}

}  // namespace

void CheckImageLayout(const KernelImage& image, VerifyReport* report) {
  const uint64_t edata = image.krx_edata();
  if (image.layout() != LayoutKind::kKrx || edata == 0) {
    AddImageDiag(report, RuleId::kRxLayout, 0, "",
                 "image does not use the kR^X-KAS layout (no _krx_edata split): code and "
                 "data share readable regions");
    return;
  }
  // The instrumentation compares against the _krx_edata *symbol*; it must
  // agree with the layout the linker actually produced.
  int32_t sym = image.symbols().Find("_krx_edata");
  if (sym >= 0 && image.symbols().at(sym).address != edata) {
    AddImageDiag(report, RuleId::kRxLayout, image.symbols().at(sym).address, "_krx_edata",
                 "_krx_edata symbol disagrees with the linked layout");
  }

  const PlacedSection* guard = nullptr;
  for (const PlacedSection& s : image.sections()) {
    switch (s.kind) {
      case SectionKind::kText:
      case SectionKind::kXkeys:
      case SectionKind::kExTable:
        if (s.vaddr < edata) {
          AddImageDiag(report, RuleId::kRxLayout, s.vaddr, s.name,
                       "code-region section placed below _krx_edata");
        }
        break;
      case SectionKind::kRodata:
      case SectionKind::kData:
      case SectionKind::kBss:
        if (s.vaddr + s.mapped_size > edata) {
          AddImageDiag(report, RuleId::kRxLayout, s.vaddr, s.name,
                       "data section reaches into the execute-only region");
        }
        break;
      case SectionKind::kPhantomGuard:
        guard = &s;
        if (s.vaddr != edata) {
          AddImageDiag(report, RuleId::kRxLayout, s.vaddr, s.name,
                       "phantom guard does not start at _krx_edata");
        }
        break;
    }
  }
  if (guard == nullptr) {
    AddImageDiag(report, RuleId::kRxLayout, edata, "",
                 "no .krx_phantom guard section above _krx_edata");
  }

  // Pairwise disjointness of mapped ranges.
  std::vector<const PlacedSection*> sorted;
  for (const PlacedSection& s : image.sections()) {
    sorted.push_back(&s);
  }
  std::sort(sorted.begin(), sorted.end(),
            [](const PlacedSection* a, const PlacedSection* b) { return a->vaddr < b->vaddr; });
  for (size_t i = 0; i + 1 < sorted.size(); ++i) {
    if (sorted[i]->vaddr + sorted[i]->mapped_size > sorted[i + 1]->vaddr) {
      AddImageDiag(report, RuleId::kRxLayout, sorted[i + 1]->vaddr,
                   sorted[i]->name + " / " + sorted[i + 1]->name, "sections overlap");
    }
  }
}

void CheckPhysmapSynonyms(const KernelImage& image, VerifyReport* report) {
  for (const PlacedSection& s : image.sections()) {
    if (!SectionKindIsCodeRegion(s.kind)) {
      continue;
    }
    uint64_t aliased = 0;
    uint64_t first_alias = 0;
    const uint64_t pages = s.mapped_size >> kPageShift;
    for (uint64_t p = 0; p < pages; ++p) {
      uint64_t alias = image.PhysmapVaddr(s.first_frame + p);
      const std::optional<Pte> pte = image.page_table().Lookup(alias);
      if (pte && pte->flags.present) {
        if (aliased == 0) {
          first_alias = alias;
        }
        ++aliased;
      }
    }
    if (aliased > 0) {
      AddImageDiag(report, RuleId::kRxPhysmap, first_alias, s.name,
                   std::to_string(aliased) + " of " + std::to_string(pages) +
                       " code pages keep a readable physmap synonym");
    }
  }
}

void CheckGuardBound(const KernelImage& image, VerifyReport* report) {
  const PlacedSection* guard = image.FindSection(".krx_phantom");
  if (guard == nullptr) {
    if (report->counters.rsp_reads > 0) {
      AddImageDiag(report, RuleId::kRxGuard, 0, "",
                   "uninstrumented %rsp-relative reads but no .krx_phantom guard section");
    }
    return;
  }
  // An 8-byte read at disp(%rsp) may stray at most guard-size bytes past
  // _krx_edata before touching code (§5.1.2 "Stack Reads").
  const int64_t max_reach = report->counters.max_rsp_disp + 8;
  if (max_reach > static_cast<int64_t>(guard->mapped_size)) {
    AddImageDiag(report, RuleId::kRxGuard, guard->vaddr, guard->name,
                 "max %rsp read reach " + std::to_string(max_reach) + " exceeds guard size " +
                     std::to_string(guard->mapped_size));
  }
}

void CheckXkeys(const KernelImage& image, VerifyReport* report) {
  const uint64_t edata = image.krx_edata();
  const SymbolTable& symbols = image.symbols();
  for (int32_t i = 0; i < static_cast<int32_t>(symbols.size()); ++i) {
    const Symbol& sym = symbols.at(i);
    if (!sym.defined || sym.name.rfind("xkey$", 0) != 0) {
      continue;
    }
    if (edata == 0 || sym.address < edata) {
      AddImageDiag(report, RuleId::kRxXkeys, sym.address, sym.name,
                   "xkey stored outside the execute-only region (disclosable)");
      continue;
    }
    auto value = image.Peek64(sym.address);
    if (!value.ok()) {
      AddImageDiag(report, RuleId::kRxXkeys, sym.address, sym.name, "xkey slot unreadable");
    } else if (*value == 0) {
      AddImageDiag(report, RuleId::kRxXkeys, sym.address, sym.name,
                   "xkey never replenished (zero key: return addresses effectively "
                   "cleartext)");
    }
  }
}

}  // namespace krx
