// Deterministic fault injection against a compiled kernel.
//
// Every injection runs one kernel op under a seeded, precisely-timed fault
// and classifies the outcome against the diagnostic contract of its fault
// class. A golden (fault-free) run of each op is recorded first — result,
// instruction count, executed-%rip trace, and the window during which the
// harness return address sits encrypted on the stack — so injections can be
// aimed: text corruption lands on an address that is *known* to execute
// after the trigger, xkey flips land strictly inside the encryption window.
//
// The contract per class (Detection::… = what must catch it):
//   kDataBitFlip      flipped bit in the op scratch buffer. Benign domain:
//                     data faults are outside the R^X guarantee — a clean
//                     return is kBenign (silent data corruption is recorded
//                     via result_changed), a trap (#PF / range-check /
//                     #BR) is contained and counts as kTrap.
//   kXkeyBitFlip      high bit of the entry's xkey$ flipped mid-run: the
//                     epilogue decrypt garbles the return address into an
//                     unmapped page => kTrap (#PF), always.
//   kPtePresentClear  present bit of a buffer PTE cleared mid-run =>
//                     kTrap (#PF inside the buffer) or kBenign (clean
//                     return with the golden result: page no longer used).
//   kPteWxSet         writable bit set on a code page mid-run: execution
//                     is unaffected (golden result required) — only the
//                     post-run W^X page-table audit may catch it => kAudit.
//   kTextInt3         a traced instruction byte overwritten with int3 =>
//                     kTrap (#BP) at first execution after the trigger.
//   kTextUndecodable  same with an undecodable byte (0xFF) => kTrap (#UD).
//   kDisclosureRead   debugfs_leak_read aimed at kernel text => kTrap
//                     (SFI halt in krx_handler, or #BR under MPX).
//   kModuleLoadFault  loader failpoint before a random load step =>
//                     kLoadError, with full rollback proven (page count,
//                     bump cursors, symbol table) and a clean reload.
#ifndef KRX_SRC_FAULT_INJECTOR_H_
#define KRX_SRC_FAULT_INJECTOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/base/rng.h"
#include "src/cpu/cpu.h"
#include "src/kernel/module_loader.h"
#include "src/plugin/pipeline.h"

namespace krx {

enum class FaultClass : uint8_t {
  kDataBitFlip = 0,
  kXkeyBitFlip,
  kPtePresentClear,
  kPteWxSet,
  kTextInt3,
  kTextUndecodable,
  kDisclosureRead,
  kModuleLoadFault,
  kNumFaultClasses,
};

const char* FaultClassName(FaultClass cls);

enum class Detection : uint8_t {
  kSilent = 0,  // MISSED: nothing caught the fault and it was not benign
  kTrap,        // the run stopped with the class's expected trap
  kAudit,       // a post-run invariant audit caught it (W^X scan)
  kLoadError,   // the module loader rejected the load and rolled back
  kBenign,      // proven harmless (golden behaviour reproduced / contained)
};

const char* DetectionName(Detection detection);

struct InjectionOutcome {
  FaultClass cls = FaultClass::kDataBitFlip;
  Detection detection = Detection::kSilent;
  bool correct = false;  // detection matches the class contract
  ExceptionKind exception = ExceptionKind::kNone;
  bool krx_violation = false;
  uint64_t trigger_step = 0;   // instructions retired when the fault landed
  uint64_t detect_step = 0;    // instructions retired when it was caught
  uint64_t latency = 0;        // detect - trigger, for kTrap detections
  bool result_changed = false; // benign return but rax != golden (SDC)
  std::string detail;          // human-readable description of the injection
};

// A recorded fault-free run of one op.
struct GoldenRun {
  uint64_t rax = 0;
  uint64_t instructions = 0;
  std::vector<uint64_t> rip_trace;  // rip_trace[k] = address of instruction k
  // Retired-count window [enc_first, enc_last] during which the harness
  // sentinel return address is xkey-encrypted on the stack (kEncrypt only).
  uint64_t enc_first = 0;
  uint64_t enc_last = 0;
  bool has_enc_window = false;
};

class FaultInjector {
 public:
  explicit FaultInjector(CompiledKernel* kernel, uint64_t buffer_seed = 0xB0F);

  // Fault classes applicable to this kernel's protection config.
  std::vector<FaultClass> EligibleClasses() const;

  // Injects one fault of `cls` into a run of `op_symbol` ("sys_…"). The
  // image is restored afterwards (text bytes, PTE bits, xkeys), so
  // injections compose. Statuses are host-side failures (bad symbol,
  // out of memory), not fault detections.
  Result<InjectionOutcome> Inject(FaultClass cls, const std::string& op_symbol, Rng& rng);

  // The golden run of `op_symbol` (computed once, cached).
  Result<const GoldenRun*> Golden(const std::string& op_symbol);

  ModuleLoader& loader() { return loader_; }

 private:
  // Resets registers + flags and refills the scratch buffer so every run
  // starts from identical machine state.
  Status ResetForRun();
  // Resets, runs `op` on the scratch buffer with `observer` called after
  // every retired instruction, and clears the observer.
  Result<RunResult> RunObserved(const std::string& op, std::function<void(const Cpu&)> observer);
  // An armed run: RunObserved with `fire` landing the fault once `trigger`
  // instructions have retired.
  Result<RunResult> RunArmed(const std::string& op, uint64_t trigger,
                             const std::function<void()>& fire);
  // Fills the outcome fields every class shares from where the run stopped;
  // `trapped` (the class's trap contract held) makes it a correct kTrap
  // caught `latency` instructions after `out->trigger_step`.
  static void RecordStop(const RunResult& r, bool trapped, InjectionOutcome* out);

  // The per-class dispatch behind Inject (which wraps it with telemetry).
  Result<InjectionOutcome> InjectDispatch(FaultClass cls, const std::string& op_symbol,
                                          Rng& rng);
  Result<InjectionOutcome> InjectDataBitFlip(const std::string& op, Rng& rng);
  Result<InjectionOutcome> InjectXkeyBitFlip(const std::string& op, Rng& rng);
  Result<InjectionOutcome> InjectPtePresentClear(const std::string& op, Rng& rng);
  Result<InjectionOutcome> InjectPteWxSet(const std::string& op, Rng& rng);
  Result<InjectionOutcome> InjectTextCorruption(const std::string& op, Rng& rng, bool int3);
  Result<InjectionOutcome> InjectDisclosureRead(Rng& rng);
  Result<InjectionOutcome> InjectModuleLoadFault(Rng& rng);

  CompiledKernel* kernel_;
  uint64_t buffer_seed_;
  ModuleLoader loader_;
  std::unique_ptr<Cpu> cpu_;
  uint64_t buffer_vaddr_ = 0;
  Status setup_error_ = Status::Ok();
  std::map<std::string, GoldenRun> golden_;
  int module_counter_ = 0;
};

}  // namespace krx

#endif  // KRX_SRC_FAULT_INJECTOR_H_
