#include "src/verify/verifier.h"

#include "src/verify/confinement.h"
#include "src/verify/decoded_function.h"
#include "src/verify/ra_check.h"
#include "src/verify/structural.h"

namespace krx {

VerifyOptions VerifyOptions::ForConfig(const ProtectionConfig& config) {
  VerifyOptions opts;
  opts.check_rx = config.HasRangeChecks() || config.mpx;
  opts.mpx = config.mpx;
  opts.check_ra_encrypt = config.ra == RaScheme::kEncrypt;
  opts.check_ra_decoy = config.ra == RaScheme::kDecoy;
  opts.check_diversify = config.diversify;
  opts.spec = config.spec;
  opts.entropy_bits_k = config.entropy_bits_k;
  opts.exempt_functions = config.exempt_functions;
  return opts;
}

VerifyReport VerifyImage(const KernelImage& image, const VerifyOptions& options) {
  VerifyReport report;

  ConfinementParams rx;
  rx.edata = image.krx_edata();
  auto handler = image.symbols().AddressOf(kKrxHandlerName);
  rx.handler_address = handler.ok() ? *handler : 0;
  const PlacedSection* guard = image.FindSection(".krx_phantom");
  rx.guard_size = guard != nullptr ? guard->mapped_size : 0;
  rx.mitigation = options.spec;

  RaCheckParams ra;
  ra.edata = image.krx_edata();
  ra.diversify = options.check_diversify;
  ra.entropy_bits_k = options.entropy_bits_k;

  const SymbolTable& symbols = image.symbols();
  std::vector<const Symbol*> functions;
  for (int32_t i = 0; i < static_cast<int32_t>(symbols.size()); ++i) {
    const Symbol& sym = symbols.at(i);
    if (sym.defined && sym.kind == SymbolKind::kFunction && sym.size != 0) {
      functions.push_back(&sym);
    }
  }

  // Read confinement re-proves the O4 pass's call-transparent elisions with
  // byte-level callee-clobber masks: a whole-image sweep over every
  // function, exempt ones included, because their bodies still execute as
  // callees. Nothing else reads the masks.
  CalleeClobberTable callee_clobbers;
  if (options.check_rx) {
    callee_clobbers = ComputeByteCalleeClobbers(image, functions, rx.handler_address);
    rx.callee_clobbers = &callee_clobbers;
  }

  // Every checked function decodes into the same object, in symbol order.
  DecodedFunction decoded;
  for (const Symbol* sym : functions) {
    if (sym->name == kKrxHandlerName || options.exempt_functions.count(sym->name) > 0) {
      ++report.counters.functions_exempt;
      continue;
    }
    Status decode = decoded.Decode(image, sym->name, sym->address, sym->size);
    if (!decode.ok()) {
      Diagnostic d;
      d.rule = RuleId::kCfgDecode;
      d.function = sym->name;
      d.address = sym->address;
      d.message = decode.message();
      report.Add(std::move(d));
      continue;
    }
    ++report.counters.functions_checked;
    if (options.check_rx) {
      CheckReadConfinement(decoded, rx, &report);
    }
    if (options.check_ra_encrypt) {
      CheckRaEncrypt(decoded, image, ra, &report);
    }
    if (options.check_ra_decoy) {
      CheckRaDecoy(decoded, image, ra, &report);
    }
    if (options.check_diversify) {
      CheckDiversification(decoded, ra, &report);
    }
  }

  // Structural R^X checks: always with read confinement, and also for any
  // kR^X-KAS image being verified at all (a diversified-only build still
  // promises the section split and physmap treatment its layout claims).
  if (options.check_rx ||
      (options.AnyChecks() && image.layout() == LayoutKind::kKrx)) {
    CheckImageLayout(image, &report);
    CheckPhysmapSynonyms(image, &report);
  }
  if (options.check_rx) {
    CheckGuardBound(image, &report);
  }
  if (options.check_ra_encrypt) {
    CheckXkeys(image, &report);
  }
  return report;
}

}  // namespace krx
