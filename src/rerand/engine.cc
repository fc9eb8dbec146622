#include "src/rerand/engine.h"

#include <algorithm>
#include <cstring>
#include <iterator>
#include <optional>
#include <unordered_map>

#include "src/cpu/cpu.h"
#include "src/kernel/assembler.h"
#include "src/telemetry/metrics.h"
#include "src/telemetry/telemetry.h"
#include "src/verify/verifier.h"

namespace krx {
namespace {

uint64_t Align16(uint64_t v) { return (v + 15) & ~15ULL; }

double MsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

const char* RerandTriggerName(RerandTrigger trigger) {
  switch (trigger) {
    case RerandTrigger::kManual: return "manual";
    case RerandTrigger::kTimer: return "timer";
    case RerandTrigger::kOops: return "oops";
    case RerandTrigger::kDisclosure: return "disclosure";
  }
  return "?";
}

const char* RerandStepName(RerandStep step) {
  switch (step) {
    case RerandStep::kQuiesce: return "quiesce";
    case RerandStep::kRelayout: return "relayout";
    case RerandStep::kPatchText: return "patch_text";
    case RerandStep::kRotateKeys: return "rotate_keys";
    case RerandStep::kRewriteStacks: return "rewrite_stacks";
    case RerandStep::kPatchPointers: return "patch_pointers";
    case RerandStep::kPatchModules: return "patch_modules";
    case RerandStep::kVerify: return "verify";
    case RerandStep::kNumSteps: break;
  }
  return "?";
}

// Byte-level write journal: every mutation records the prior bytes first, so
// a failed epoch replays the journal in reverse and the image is restored
// bit-for-bit (the module loader's rollback discipline, applied here).
struct RerandEngine::Journal {
  struct Entry {
    uint64_t vaddr = 0;
    std::vector<uint8_t> old_bytes;
  };
  std::vector<Entry> entries;

  Status Poke(KernelImage& image, uint64_t vaddr, const uint8_t* src, uint64_t len) {
    Entry e;
    e.vaddr = vaddr;
    e.old_bytes.resize(len);
    KRX_RETURN_IF_ERROR(image.PeekBytes(vaddr, e.old_bytes.data(), len));
    entries.push_back(std::move(e));
    return image.PokeBytes(vaddr, src, len);
  }

  Status Poke64(KernelImage& image, uint64_t vaddr, uint64_t value) {
    uint8_t le[8];
    std::memcpy(le, &value, 8);
    return Poke(image, vaddr, le, 8);
  }
};

struct RerandEngine::Layout {
  std::vector<uint64_t> new_offsets;  // indexed like map().functions
  uint64_t front_gap = 0;
  uint64_t moved = 0;
};

// What one epoch's steps share: the gate held, the pre-epoch snapshots the
// rollback restores and the address mapping reads, the drawn layout, the
// keys before and after rotation, the write journal, and the report.
struct RerandEngine::Epoch {
  explicit Epoch(EpochReport* r) : report(r) {}

  EpochReport* report;
  std::optional<QuiesceExclusiveScope> quiesced;  // released when the epoch ends
  std::chrono::steady_clock::time_point t_quiesced;
  std::chrono::steady_clock::time_point t_step;  // the last step mark's instant
  std::vector<uint64_t> old_symbol_addrs;
  std::vector<uint64_t> old_offsets;
  Layout layout;
  std::vector<uint64_t> old_keys, new_keys;
  Journal journal;
};

RerandEngine::RerandEngine(CompiledKernel* kernel, RerandOptions options)
    : kernel_(kernel), map_(kernel->rerand.get()), options_(options), rng_(options.seed) {
  KRX_CHECK(kernel_ != nullptr && kernel_->image != nullptr);
  KRX_CHECK(map_ != nullptr && map_->finalized);
}

RerandEngine::~RerandEngine() { StopTimer(); }

void RerandEngine::RegisterCpu(Cpu* cpu) {
  cpu->set_quiesce_gate(&gate_);
  cpus_.push_back(cpu);
}

Status RerandEngine::CheckFailpoint(RerandStep step) {
  if (failpoint_ == static_cast<int>(step)) {
    return InternalError(std::string("rerand failpoint: injected failure before ") +
                         RerandStepName(step));
  }
  return Status::Ok();
}

Status RerandEngine::Quiesce(Epoch& e) {
  const auto t_request = std::chrono::steady_clock::now();
  e.quiesced.emplace(&gate_, options_.quiesce_timeout_ms);
  if (!e.quiesced->acquired()) {
    KRX_COUNTER_ADD("rerand.quiesce_timeouts", 1);
    return FailedPreconditionError("rerand: quiesce did not drain within " +
                                   std::to_string(options_.quiesce_timeout_ms) +
                                   "ms; epoch aborted");
  }
  e.t_quiesced = std::chrono::steady_clock::now();
  e.t_step = e.t_quiesced;  // the wait is quiesce_wait_ms, not the step's mark
  e.report->quiesce_wait_ms =
      std::chrono::duration<double, std::milli>(e.t_quiesced - t_request).count();

  // Snapshots for rollback and for old->new address mapping.
  const SymbolTable& syms = kernel_->image->symbols();
  e.old_symbol_addrs.resize(syms.size());
  for (size_t i = 0; i < syms.size(); ++i) {
    e.old_symbol_addrs[i] = syms.at(static_cast<int32_t>(i)).address;
  }
  e.old_offsets.resize(map_->functions.size());
  for (size_t i = 0; i < map_->functions.size(); ++i) {
    e.old_offsets[i] = map_->functions[i].current_offset;
  }
  return Status::Ok();
}

Status RerandEngine::Relayout(Epoch& e) {
  if (!options_.permute || map_->functions.empty()) return Status::Ok();
  Layout& layout = e.layout;
  const auto& fns = map_->functions;
  const uint64_t capacity = map_->text_content_size;
  const size_t n = fns.size();

  // The function with the largest 16-byte alignment pad goes last so the
  // total never exceeds the pristine content size for any permutation
  // (total = gap + sum(align16(size)) - pad(last)).
  size_t max_pad_idx = 0;
  uint64_t max_pad = 0;
  for (size_t i = 0; i < n; ++i) {
    uint64_t pad = Align16(fns[i].size) - fns[i].size;
    if (pad >= max_pad) {
      max_pad = pad;
      max_pad_idx = i;
    }
  }

  std::vector<size_t> order(n);
  std::vector<uint64_t> offsets(n);
  uint64_t best_moved = 0;
  bool have_best = false;
  // Draw a handful of permutations and keep the one that moves the most
  // functions — a plain shuffle can leave a prefix in place, and the whole
  // point of an epoch is that disclosed addresses go stale.
  for (int attempt = 0; attempt < 40; ++attempt) {
    for (size_t i = 0; i < n; ++i) order[i] = i;
    rng_.Shuffle(order);
    auto it = std::find(order.begin(), order.end(), max_pad_idx);
    std::rotate(it, it + 1, order.end());  // move max-pad function to the end

    uint64_t cursor = 0;
    for (size_t idx : order) {
      cursor = Align16(cursor);
      offsets[idx] = cursor;
      cursor += fns[idx].size;
    }
    if (cursor > capacity) {
      return InternalError("rerand layout exceeds .text capacity");  // unreachable by design
    }
    const uint64_t slack = capacity - cursor;
    const uint64_t gap = 16 * rng_.NextBelow(slack / 16 + 1);

    uint64_t moved = 0;
    for (size_t i = 0; i < n; ++i) {
      if (offsets[i] + gap != fns[i].current_offset) ++moved;
    }
    if (!have_best || moved > best_moved) {
      have_best = true;
      best_moved = moved;
      layout.new_offsets.assign(offsets.begin(), offsets.end());
      for (auto& off : layout.new_offsets) off += gap;
      layout.front_gap = gap;
      layout.moved = moved;
    }
    if (best_moved == n) break;
  }
  return Status::Ok();
}

Status RerandEngine::PatchText(Epoch& e) {
  if (!options_.permute || map_->functions.empty()) return Status::Ok();
  const Layout& layout = e.layout;
  KernelImage& image = *kernel_->image;
  SymbolTable& syms = image.symbols();
  const uint64_t base = map_->text_base;
  const auto& fns = map_->functions;

  // Rebuild the whole content extent from the pristine blob: start from an
  // int3 sea (stale bytes from the previous layout must not survive as
  // gadgets), place each function at its new offset, then re-apply the
  // relocations shifted into the new layout.
  std::vector<uint8_t> content(map_->text_content_size, kTextPadByte);
  for (size_t i = 0; i < fns.size(); ++i) {
    std::memcpy(content.data() + layout.new_offsets[i],
                map_->pristine->bytes.data() + fns[i].pristine_offset, fns[i].size);
  }

  // Each relocation moves with the function that owns it (recorded when
  // the pristine text was captured).
  std::vector<Reloc> shifted = map_->pristine->relocs;
  for (size_t j = 0; j < shifted.size(); ++j) {
    const uint32_t owner = map_->pristine->reloc_owners[j];
    const uint64_t delta = layout.new_offsets[owner] - fns[owner].pristine_offset;
    shifted[j].field_offset += delta;
    shifted[j].inst_end_offset += delta;
  }

  // New function addresses must be bound before relocation (calls between
  // moved functions resolve against the new layout).
  for (size_t i = 0; i < fns.size(); ++i) {
    syms.at(fns[i].symbol).address = base + layout.new_offsets[i];
  }
  KRX_RETURN_IF_ERROR(ApplyRelocs(content, shifted, base, syms));
  KRX_RETURN_IF_ERROR(e.journal.Poke(image, base, content.data(), content.size()));
  for (size_t i = 0; i < fns.size(); ++i) {
    map_->functions[i].current_offset = layout.new_offsets[i];
  }
  e.report->functions_moved = layout.moved;
  e.report->front_gap = layout.front_gap;
  return Status::Ok();
}

Status RerandEngine::RotateKeys(Epoch& e) {
  KernelImage& image = *kernel_->image;
  const auto& slots = map_->xkey_slots;
  e.old_keys.resize(slots.size());
  e.new_keys.resize(slots.size());
  for (size_t k = 0; k < slots.size(); ++k) {
    auto cur = image.Peek64(slots[k].vaddr);
    KRX_RETURN_IF_ERROR(cur.status());
    e.old_keys[k] = *cur;
    if (options_.rotate_xkeys) {
      uint64_t nk;
      do {
        nk = rng_.Next();
      } while (nk == 0 || nk == *cur);  // key must change and stay nonzero
      KRX_RETURN_IF_ERROR(e.journal.Poke64(image, slots[k].vaddr, nk));
      e.new_keys[k] = nk;
      ++e.report->keys_rotated;
    } else {
      e.new_keys[k] = *cur;
    }
  }
  return Status::Ok();
}

Status RerandEngine::RewriteStacks(Epoch& e) {
  const std::vector<uint64_t>& old_offsets = e.old_offsets;
  const std::vector<uint64_t>& old_keys = e.old_keys;
  const std::vector<uint64_t>& new_keys = e.new_keys;
  EpochReport* report = e.report;
  KernelImage& image = *kernel_->image;
  const auto& fns = map_->functions;
  const uint64_t base = map_->text_base;

  if (!stack_ranges_provider_) return Status::Ok();
  auto provided = stack_ranges_provider_(image);
  KRX_RETURN_IF_ERROR(provided.status());
  const std::vector<std::pair<uint64_t, uint64_t>>& ranges = *provided;
  if (ranges.empty()) return Status::Ok();

  // Old-layout oracle: function extents (plaintext code pointers) and
  // return-site addresses (encrypted return addresses).
  struct Extent {
    uint64_t lo, hi;
    size_t fn;
  };
  std::vector<Extent> extents;
  extents.reserve(fns.size());
  std::unordered_map<uint64_t, std::pair<size_t, uint64_t>> site_of;  // addr -> (fn, rel)
  for (size_t i = 0; i < fns.size(); ++i) {
    const uint64_t lo = base + old_offsets[i];
    extents.push_back({lo, lo + fns[i].size, i});
    for (uint64_t rel : fns[i].return_sites) {
      site_of.emplace(lo + rel, std::make_pair(i, rel));
    }
  }

  for (const auto& [range_lo, range_hi] : ranges) {
    uint64_t lo = (range_lo + 7) & ~7ULL;
    for (uint64_t addr = lo; addr + 8 <= range_hi; addr += 8) {
      auto word = image.Peek64(addr);
      KRX_RETURN_IF_ERROR(word.status());
      const uint64_t w = *word;
      ++report->stack_words_scanned;
      if (w == 0 || w == Cpu::kReturnSentinel) continue;

      std::vector<uint64_t> candidates;
      // Plaintext code pointer into a moved function (unencrypted return
      // addresses of exempt functions, spawned-task entry points, ...).
      for (const Extent& ext : extents) {
        if (w >= ext.lo && w < ext.hi) {
          candidates.push_back(base + fns[ext.fn].current_offset + (w - ext.lo));
          break;
        }
      }
      // Encrypted return address: some callee's old key decrypts it to a
      // legitimate return site. The key slot is the callee's; the site lives
      // in the caller — they move independently.
      for (size_t k = 0; k < old_keys.size(); ++k) {
        auto it = site_of.find(w ^ old_keys[k]);
        if (it == site_of.end()) continue;
        const auto [fn, rel] = it->second;
        candidates.push_back((base + fns[fn].current_offset + rel) ^ new_keys[k]);
      }

      std::sort(candidates.begin(), candidates.end());
      candidates.erase(std::unique(candidates.begin(), candidates.end()), candidates.end());
      if (candidates.empty()) continue;
      if (candidates.size() > 1) {
        // Two interpretations disagree on the rewrite. Guessing would corrupt
        // a live stack; abort the epoch (full rollback) instead.
        return InternalError("rerand: ambiguous stack word at " + std::to_string(addr));
      }
      if (candidates[0] != w) {
        KRX_RETURN_IF_ERROR(e.journal.Poke64(image, addr, candidates[0]));
        ++report->stack_words_rewritten;
      }
    }
  }
  return Status::Ok();
}

Status RerandEngine::PatchPointers(Epoch& e) {
  KernelImage& image = *kernel_->image;
  const SymbolTable& syms = image.symbols();
  for (const RerandPtrSite& site : map_->ptr_sites) {
    const uint64_t expected = e.old_symbol_addrs[static_cast<size_t>(site.symbol)] +
                              static_cast<uint64_t>(site.addend);
    auto cur = image.Peek64(site.vaddr);
    KRX_RETURN_IF_ERROR(cur.status());
    if (*cur != expected) {
      // The guest overwrote this slot at runtime; it no longer holds the
      // address we initialized it with, so it is not ours to repatch.
      ++e.report->ptr_sites_skipped;
      continue;
    }
    const uint64_t fresh = syms.at(site.symbol).address + static_cast<uint64_t>(site.addend);
    if (fresh != *cur) {
      KRX_RETURN_IF_ERROR(e.journal.Poke64(image, site.vaddr, fresh));
      ++e.report->ptr_sites_patched;
    }
  }
  return Status::Ok();
}

Status RerandEngine::PatchModules(Epoch& e) {
  if (module_loader_ == nullptr) return Status::Ok();
  KernelImage& image = *kernel_->image;
  const SymbolTable& syms = image.symbols();
  // Writes a relocated field whose bytes change, as the kernel's relocation
  // code resolves it against the post-epoch symbol addresses.
  auto repatch = [&](const Reloc& r, uint64_t section_base) -> Status {
    auto field = ResolveReloc(r, section_base, syms);
    KRX_RETURN_IF_ERROR(field.status());
    uint8_t cur[sizeof(RelocField::bytes)];
    KRX_RETURN_IF_ERROR(image.PeekBytes(section_base + r.field_offset, cur, field->size));
    if (std::memcmp(cur, field->bytes, field->size) != 0) {
      KRX_RETURN_IF_ERROR(
          e.journal.Poke(image, section_base + r.field_offset, field->bytes, field->size));
      ++e.report->module_sites_patched;
    }
    return Status::Ok();
  };
  for (size_t h = 0; h < module_loader_->module_count(); ++h) {
    const LoadedModule& lm = module_loader_->module(static_cast<int32_t>(h));
    if (!lm.loaded) continue;
    // Text relocations: recomputed unconditionally — module text is
    // guest-immutable under R^X, so the fields still hold what we linked.
    for (const Reloc& r : lm.text_relocs) {
      KRX_RETURN_IF_ERROR(repatch(r, lm.text_vaddr));
    }
    // Data relocations: conditional, like kernel pointer sites — the module
    // may have overwritten its own data at runtime.
    for (const Reloc& r : lm.data_relocs) {
      if (r.kind != RelocKind::kAbs64) continue;
      const uint64_t expected = e.old_symbol_addrs[static_cast<size_t>(r.symbol)] +
                                static_cast<uint64_t>(r.addend);
      auto cur = image.Peek64(lm.data_vaddr + r.field_offset);
      KRX_RETURN_IF_ERROR(cur.status());
      if (*cur != expected) continue;
      KRX_RETURN_IF_ERROR(repatch(r, lm.data_vaddr));
    }
  }
  return Status::Ok();
}

Status RerandEngine::Verify(Epoch& e) {
  if (!options_.verify_after) return Status::Ok();
  VerifyOptions vo = VerifyOptions::ForConfig(kernel_->config);
  if (!vo.AnyChecks()) return Status::Ok();
  VerifyReport vr = VerifyImage(*kernel_->image, vo);
  if (!vr.ok()) {
    return InternalError("rerand: post-epoch verification failed:\n" + vr.Summary(8));
  }
  e.report->verified = true;
  return Status::Ok();
}

void RerandEngine::Rollback(const Epoch& e) {
  KernelImage& image = *kernel_->image;
  for (auto it = e.journal.entries.rbegin(); it != e.journal.entries.rend(); ++it) {
    KRX_CHECK_OK(image.PokeBytes(it->vaddr, it->old_bytes.data(), it->old_bytes.size()));
  }
  SymbolTable& syms = image.symbols();
  for (size_t i = 0; i < e.old_symbol_addrs.size(); ++i) {
    syms.at(static_cast<int32_t>(i)).address = e.old_symbol_addrs[i];
  }
  for (size_t i = 0; i < e.old_offsets.size(); ++i) {
    map_->functions[i].current_offset = e.old_offsets[i];
  }
}

Result<EpochReport> RerandEngine::RunEpoch(RerandTrigger trigger) {
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  KRX_TRACE_SPAN_SCOPED("rerand.epoch");
  EpochReport report;
  report.trigger = trigger;
  Status st = DoEpoch(&report);
  if (!st.ok()) {
    epoch_failures_.fetch_add(1, std::memory_order_acq_rel);
    KRX_COUNTER_ADD("rerand.epoch_failures", 1);
    return st;
  }
  KRX_COUNTER_ADD("rerand.epochs", 1);
  KRX_COUNTER_ADD("rerand.functions_moved", report.functions_moved);
  KRX_COUNTER_ADD("rerand.keys_rotated", report.keys_rotated);
  KRX_COUNTER_ADD("rerand.stack_words_rewritten", report.stack_words_rewritten);
  KRX_HISTO_US("rerand.stw_us", static_cast<uint64_t>(report.stw_ms * 1000.0));
  KRX_HISTO_US("rerand.quiesce_wait_us",
               static_cast<uint64_t>(report.quiesce_wait_ms * 1000.0));
  last_report_ = report;
  return report;
}

Status RerandEngine::DoEpoch(EpochReport* report) {
  // The pipeline, in order. Each step either completes or fails the epoch,
  // which rolls back everything journaled so far (nothing before the
  // quiesce snapshot) and releases the gate.
  static constexpr struct {
    RerandStep step;
    Status (RerandEngine::*run)(Epoch&);
  } kSteps[] = {
      {RerandStep::kQuiesce, &RerandEngine::Quiesce},
      {RerandStep::kRelayout, &RerandEngine::Relayout},
      {RerandStep::kPatchText, &RerandEngine::PatchText},
      {RerandStep::kRotateKeys, &RerandEngine::RotateKeys},
      {RerandStep::kRewriteStacks, &RerandEngine::RewriteStacks},
      {RerandStep::kPatchPointers, &RerandEngine::PatchPointers},
      {RerandStep::kPatchModules, &RerandEngine::PatchModules},
      {RerandStep::kVerify, &RerandEngine::Verify},
  };
  static_assert(std::size(kSteps) == static_cast<size_t>(RerandStep::kNumSteps));

  Epoch e(report);
  for (const auto& [step, run] : kSteps) {
    Status st = CheckFailpoint(step);
    if (st.ok()) st = (this->*run)(e);
    if (!st.ok()) {
      Rollback(e);
      return st;
    }
    // One kRerandStep event per completed step, carrying the step's wall
    // time. Clock reads happen only with tracing enabled.
    if (telemetry::TraceEnabled()) {
      const auto now = std::chrono::steady_clock::now();
      const uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now - e.t_step).count());
      e.t_step = now;
      telemetry::EmitEvent(telemetry::TraceEventType::kRerandStep, RerandStepName(step),
                           static_cast<uint64_t>(step), us);
    }
  }

  // Commit: every block cache must re-decode under the new layout, and each
  // registered Cpu re-resolves the (moved) krx_handler extent it caches.
  kernel_->image->BumpTextGeneration();
  for (Cpu* cpu : cpus_) cpu->RefreshKrxHandlerRange();
  report->epoch = epochs_completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  report->stw_ms = MsSince(e.t_quiesced);
  return Status::Ok();
}

Result<EpochReport> RerandEngine::RunEpochWithRetry(RerandTrigger trigger) {
  if (!has_retry_policy_) return RunEpoch(trigger);
  Retrier retrier("rerand_epoch", retry_policy_);
  return retrier.Run<EpochReport>(
      [this, trigger](int /*attempt*/) { return RunEpoch(trigger); });
}

void RerandEngine::StartTimer(std::chrono::milliseconds period, Clock* clock) {
  StopTimer();
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = false;
  }
  Clock* ck = clock != nullptr ? clock : RealClock();
  timer_thread_ = std::thread([this, period, ck] {
    std::unique_lock<std::mutex> lock(timer_mu_);
    while (!timer_stop_) {
      if (ck->WaitUntil(timer_cv_, lock, ck->Now() + period,
                        [this] { return timer_stop_; })) {
        break;
      }
      lock.unlock();
      // A failed tick counts in epoch_failures(); the timer keeps running.
      (void)RunEpochWithRetry(RerandTrigger::kTimer);
      lock.lock();
    }
  });
}

void RerandEngine::StopTimer() {
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timer_stop_ = true;
  }
  timer_cv_.notify_all();
  if (timer_thread_.joinable()) timer_thread_.join();
}

}  // namespace krx
