#include "src/rerand/engine.h"

#include <algorithm>
#include <cstring>
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

Status RerandEngine::DrawLayout(Layout* layout) {
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
      layout->new_offsets.assign(offsets.begin(), offsets.end());
      for (auto& off : layout->new_offsets) off += gap;
      layout->front_gap = gap;
      layout->moved = moved;
    }
    if (best_moved == n) break;
  }
  return Status::Ok();
}

Status RerandEngine::PatchText(const Layout& layout, Journal* journal) {
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

  std::vector<Reloc> shifted;
  shifted.reserve(map_->pristine->relocs.size());
  for (const Reloc& r : map_->pristine->relocs) {
    size_t owner = fns.size();
    for (size_t i = 0; i < fns.size(); ++i) {
      if (r.field_offset >= fns[i].pristine_offset &&
          r.field_offset < fns[i].pristine_offset + fns[i].size) {
        owner = i;
        break;
      }
    }
    if (owner == fns.size()) {
      return InternalError("rerand: text reloc outside every function extent");
    }
    Reloc s = r;
    const uint64_t delta = layout.new_offsets[owner] - fns[owner].pristine_offset;
    s.field_offset += delta;
    s.inst_end_offset += delta;
    shifted.push_back(s);
  }

  // New function addresses must be bound before relocation (calls between
  // moved functions resolve against the new layout).
  for (size_t i = 0; i < fns.size(); ++i) {
    syms.at(fns[i].symbol).address = base + layout.new_offsets[i];
  }
  KRX_RETURN_IF_ERROR(ApplyRelocs(content, shifted, base, syms));
  KRX_RETURN_IF_ERROR(journal->Poke(image, base, content.data(), content.size()));
  for (size_t i = 0; i < fns.size(); ++i) {
    map_->functions[i].current_offset = layout.new_offsets[i];
  }
  return Status::Ok();
}

Status RerandEngine::RotateKeys(std::vector<uint64_t>* old_keys, std::vector<uint64_t>* new_keys,
                                Journal* journal, EpochReport* report) {
  KernelImage& image = *kernel_->image;
  const auto& slots = map_->xkey_slots;
  old_keys->resize(slots.size());
  new_keys->resize(slots.size());
  for (size_t k = 0; k < slots.size(); ++k) {
    auto cur = image.Peek64(slots[k].vaddr);
    KRX_RETURN_IF_ERROR(cur.status());
    (*old_keys)[k] = *cur;
    if (options_.rotate_xkeys) {
      uint64_t nk;
      do {
        nk = rng_.Next();
      } while (nk == 0 || nk == *cur);  // key must change and stay nonzero
      KRX_RETURN_IF_ERROR(journal->Poke64(image, slots[k].vaddr, nk));
      (*new_keys)[k] = nk;
      ++report->keys_rotated;
    } else {
      (*new_keys)[k] = *cur;
    }
  }
  return Status::Ok();
}

Status RerandEngine::RewriteStacks(const std::vector<uint64_t>& old_offsets,
                                   const std::vector<uint64_t>& old_keys,
                                   const std::vector<uint64_t>& new_keys, Journal* journal,
                                   EpochReport* report) {
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
      for (const Extent& e : extents) {
        if (w >= e.lo && w < e.hi) {
          candidates.push_back(base + fns[e.fn].current_offset + (w - e.lo));
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
        KRX_RETURN_IF_ERROR(journal->Poke64(image, addr, candidates[0]));
        ++report->stack_words_rewritten;
      }
    }
  }
  return Status::Ok();
}

Status RerandEngine::PatchPointers(const std::vector<uint64_t>& old_symbol_addrs,
                                   Journal* journal, EpochReport* report) {
  KernelImage& image = *kernel_->image;
  const SymbolTable& syms = image.symbols();
  for (const RerandPtrSite& site : map_->ptr_sites) {
    const uint64_t expected = old_symbol_addrs[static_cast<size_t>(site.symbol)] +
                              static_cast<uint64_t>(site.addend);
    auto cur = image.Peek64(site.vaddr);
    KRX_RETURN_IF_ERROR(cur.status());
    if (*cur != expected) {
      // The guest overwrote this slot at runtime; it no longer holds the
      // address we initialized it with, so it is not ours to repatch.
      ++report->ptr_sites_skipped;
      continue;
    }
    const uint64_t fresh = syms.at(site.symbol).address + static_cast<uint64_t>(site.addend);
    if (fresh != *cur) {
      KRX_RETURN_IF_ERROR(journal->Poke64(image, site.vaddr, fresh));
      ++report->ptr_sites_patched;
    }
  }
  return Status::Ok();
}

Status RerandEngine::PatchModules(const std::vector<uint64_t>& old_symbol_addrs,
                                  Journal* journal, EpochReport* report) {
  if (module_loader_ == nullptr) return Status::Ok();
  KernelImage& image = *kernel_->image;
  const SymbolTable& syms = image.symbols();
  for (size_t h = 0; h < module_loader_->module_count(); ++h) {
    const LoadedModule& lm = module_loader_->module(static_cast<int32_t>(h));
    if (!lm.loaded) continue;
    // Text relocations: recomputed unconditionally — module text is
    // guest-immutable under R^X, so the fields still hold what we linked.
    for (const Reloc& r : lm.text_relocs) {
      const Symbol& sym = syms.at(r.symbol);
      switch (r.kind) {
        case RelocKind::kRel32: {
          int64_t rel = static_cast<int64_t>(sym.address) -
                        static_cast<int64_t>(lm.text_vaddr + r.inst_end_offset);
          if (rel < INT32_MIN || rel > INT32_MAX) {
            return OutOfRangeError("rerand: module rel32 overflow to " + sym.name);
          }
          int32_t rel32 = static_cast<int32_t>(rel);
          uint8_t le[4];
          std::memcpy(le, &rel32, 4);
          uint8_t old[4];
          KRX_RETURN_IF_ERROR(image.PeekBytes(lm.text_vaddr + r.field_offset, old, 4));
          if (std::memcmp(old, le, 4) != 0) {
            KRX_RETURN_IF_ERROR(journal->Poke(image, lm.text_vaddr + r.field_offset, le, 4));
            ++report->module_sites_patched;
          }
          break;
        }
        case RelocKind::kAbs64: {
          const uint64_t fresh = sym.address + static_cast<uint64_t>(r.addend);
          auto cur = image.Peek64(lm.text_vaddr + r.field_offset);
          KRX_RETURN_IF_ERROR(cur.status());
          if (*cur != fresh) {
            KRX_RETURN_IF_ERROR(journal->Poke64(image, lm.text_vaddr + r.field_offset, fresh));
            ++report->module_sites_patched;
          }
          break;
        }
      }
    }
    // Data relocations: conditional, like kernel pointer sites — the module
    // may have overwritten its own data at runtime.
    for (const Reloc& r : lm.data_relocs) {
      if (r.kind != RelocKind::kAbs64) continue;
      const uint64_t expected = old_symbol_addrs[static_cast<size_t>(r.symbol)] +
                                static_cast<uint64_t>(r.addend);
      auto cur = image.Peek64(lm.data_vaddr + r.field_offset);
      KRX_RETURN_IF_ERROR(cur.status());
      if (*cur != expected) continue;
      const uint64_t fresh = syms.at(r.symbol).address + static_cast<uint64_t>(r.addend);
      if (fresh != *cur) {
        KRX_RETURN_IF_ERROR(journal->Poke64(image, lm.data_vaddr + r.field_offset, fresh));
        ++report->module_sites_patched;
      }
    }
  }
  return Status::Ok();
}

void RerandEngine::Rollback(const Journal& journal,
                            const std::vector<uint64_t>& old_symbol_addrs,
                            const std::vector<uint64_t>& old_offsets) {
  KernelImage& image = *kernel_->image;
  for (auto it = journal.entries.rbegin(); it != journal.entries.rend(); ++it) {
    KRX_CHECK_OK(image.PokeBytes(it->vaddr, it->old_bytes.data(), it->old_bytes.size()));
  }
  SymbolTable& syms = image.symbols();
  for (size_t i = 0; i < old_symbol_addrs.size(); ++i) {
    syms.at(static_cast<int32_t>(i)).address = old_symbol_addrs[i];
  }
  for (size_t i = 0; i < old_offsets.size(); ++i) {
    map_->functions[i].current_offset = old_offsets[i];
  }
}

Result<EpochReport> RerandEngine::RunEpoch(RerandTrigger trigger) {
  std::lock_guard<std::mutex> epoch_lock(epoch_mu_);
  KRX_TRACE_SPAN_SCOPED("rerand.epoch");
  EpochReport report;
  report.trigger = trigger;
  Status st = DoEpoch(trigger, &report);
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

Status RerandEngine::DoEpoch(RerandTrigger trigger, EpochReport* report) {
  (void)trigger;
  KernelImage& image = *kernel_->image;

  KRX_RETURN_IF_ERROR(CheckFailpoint(RerandStep::kQuiesce));
  const auto t_request = std::chrono::steady_clock::now();
  if (options_.quiesce_timeout_ms > 0) {
    if (!gate_.BeginExclusiveFor(std::chrono::milliseconds(options_.quiesce_timeout_ms))) {
      KRX_COUNTER_ADD("rerand.quiesce_timeouts", 1);
      return FailedPreconditionError(
          "rerand: quiesce did not drain within " +
          std::to_string(options_.quiesce_timeout_ms) + "ms; epoch aborted");
    }
  } else {
    gate_.BeginExclusive();
  }
  const auto t_quiesced = std::chrono::steady_clock::now();
  report->quiesce_wait_ms =
      std::chrono::duration<double, std::milli>(t_quiesced - t_request).count();

  // Per-step trace marks: one kRerandStep event per completed pipeline
  // step, carrying the step's wall time. Clock reads happen only with
  // tracing enabled.
  auto t_step = t_quiesced;
  auto mark_step = [&](RerandStep step) {
    if (telemetry::TraceEnabled()) {
      const auto now = std::chrono::steady_clock::now();
      const uint64_t us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(now - t_step).count());
      t_step = now;
      telemetry::EmitEvent(telemetry::TraceEventType::kRerandStep, RerandStepName(step),
                           static_cast<uint64_t>(step), us);
    }
  };
  mark_step(RerandStep::kQuiesce);

  // Snapshots for rollback and for old->new address mapping.
  SymbolTable& syms = image.symbols();
  std::vector<uint64_t> old_symbol_addrs(syms.size());
  for (size_t i = 0; i < syms.size(); ++i) {
    old_symbol_addrs[i] = syms.at(static_cast<int32_t>(i)).address;
  }
  std::vector<uint64_t> old_offsets(map_->functions.size());
  for (size_t i = 0; i < map_->functions.size(); ++i) {
    old_offsets[i] = map_->functions[i].current_offset;
  }
  Journal journal;

  auto fail = [&](Status s) {
    Rollback(journal, old_symbol_addrs, old_offsets);
    gate_.EndExclusive();
    return s;
  };

  Status st = CheckFailpoint(RerandStep::kRelayout);
  if (!st.ok()) return fail(st);
  Layout layout;
  layout.new_offsets = old_offsets;
  if (options_.permute && !map_->functions.empty()) {
    st = DrawLayout(&layout);
    if (!st.ok()) return fail(st);
  }
  mark_step(RerandStep::kRelayout);

  st = CheckFailpoint(RerandStep::kPatchText);
  if (!st.ok()) return fail(st);
  if (options_.permute && !map_->functions.empty()) {
    st = PatchText(layout, &journal);
    if (!st.ok()) return fail(st);
    report->functions_moved = layout.moved;
    report->front_gap = layout.front_gap;
  }
  mark_step(RerandStep::kPatchText);

  st = CheckFailpoint(RerandStep::kRotateKeys);
  if (!st.ok()) return fail(st);
  std::vector<uint64_t> old_keys, new_keys;
  st = RotateKeys(&old_keys, &new_keys, &journal, report);
  if (!st.ok()) return fail(st);
  mark_step(RerandStep::kRotateKeys);

  st = CheckFailpoint(RerandStep::kRewriteStacks);
  if (!st.ok()) return fail(st);
  st = RewriteStacks(old_offsets, old_keys, new_keys, &journal, report);
  if (!st.ok()) return fail(st);
  mark_step(RerandStep::kRewriteStacks);

  st = CheckFailpoint(RerandStep::kPatchPointers);
  if (!st.ok()) return fail(st);
  st = PatchPointers(old_symbol_addrs, &journal, report);
  if (!st.ok()) return fail(st);
  mark_step(RerandStep::kPatchPointers);

  st = CheckFailpoint(RerandStep::kPatchModules);
  if (!st.ok()) return fail(st);
  st = PatchModules(old_symbol_addrs, &journal, report);
  if (!st.ok()) return fail(st);
  mark_step(RerandStep::kPatchModules);

  st = CheckFailpoint(RerandStep::kVerify);
  if (!st.ok()) return fail(st);
  if (options_.verify_after) {
    VerifyOptions vo = VerifyOptions::ForConfig(kernel_->config);
    if (vo.AnyChecks()) {
      VerifyReport vr = VerifyImage(image, vo);
      if (!vr.ok()) {
        return fail(InternalError("rerand: post-epoch verification failed:\n" + vr.Summary(8)));
      }
      report->verified = true;
    }
  }
  mark_step(RerandStep::kVerify);

  // Commit: every block cache must re-decode under the new layout, and each
  // registered Cpu re-resolves the (moved) krx_handler extent it caches.
  image.BumpTextGeneration();
  for (Cpu* cpu : cpus_) cpu->RefreshKrxHandlerRange();
  report->epoch = epochs_completed_.fetch_add(1, std::memory_order_acq_rel) + 1;
  report->stw_ms = MsSince(t_quiesced);
  gate_.EndExclusive();
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
