#include "src/telemetry/profiler.h"

#include <algorithm>
#include <map>
#include <utility>

#include "src/isa/encoding.h"

namespace krx {
namespace telemetry {

CheckCensus CensusOf(const FunctionExtent& fn, uint64_t handler_lo, uint64_t handler_hi,
                     const CostModel& cost) {
  CheckCensus census;
  const uint8_t* bytes = fn.bytes.data();
  const size_t len = fn.bytes.size();

  // Pre-decode the function into an address-indexed table so branch targets
  // can be chased. kR^X-SFI checks usually branch to a function-local
  // violation block (reason-code setup + jmp into krx_handler) rather than
  // into the handler directly, so "is this Jcc a check" means "does its
  // target reach the handler by straight-line flow".
  std::map<uint64_t, std::pair<Instruction, int>> table;  // va -> (inst, size)
  {
    size_t scan = 0;
    while (scan < len) {
      Result<Decoded> d = DecodeInstruction(bytes, len, scan);
      if (!d.ok()) {
        ++scan;
        continue;
      }
      table.emplace(fn.addr + scan, std::make_pair(d->inst, d->size));
      scan += d->size;
    }
  }
  auto reaches_handler = [&](uint64_t va) {
    for (int hops = 0; hops < 8; ++hops) {
      if (va >= handler_lo && va < handler_hi) {
        return true;
      }
      auto it = table.find(va);
      if (it == table.end()) {
        return false;
      }
      const Instruction& i = it->second.first;
      const int size = it->second.second;
      switch (OpcodeInfoOf(i.op).flow) {
        case Flow::kNone:
          va += static_cast<uint64_t>(size);  // straight-line (mov reason, ...)
          continue;
        case Flow::kJump:
        case Flow::kCall:
          // The violation block is `callq krx_handler; hlt` — a call into
          // the handler reaches it just as surely as a jump.
          va = va + static_cast<uint64_t>(size) + static_cast<uint64_t>(i.imm);
          continue;
        default:
          return false;  // a branch, an indirect transfer, ret, a trap or hlt
      }
    }
    return false;
  };

  size_t off = 0;
  // Sliding window of the two previous decoded instructions, to price the
  // cmp/lea that feed an SFI check branch.
  Instruction prev1, prev2;
  uint64_t prev1_cost = 0, prev2_cost = 0;
  bool have1 = false, have2 = false;
  while (off < len) {
    Result<Decoded> d = DecodeInstruction(bytes, len, off);
    if (!d.ok()) {
      // Phantom padding / data in the extent: skip a byte and resync.
      ++off;
      continue;
    }
    const Instruction& inst = d->inst;
    const uint64_t c = cost.CostOf(inst);
    census.total_decicycles += c;
    if (inst.op == Opcode::kBndcu) {
      ++census.mpx_checks;
      census.check_decicycles += c;
    } else if (inst.op == Opcode::kJcc && handler_hi > handler_lo) {
      const uint64_t va = fn.addr + off;
      const uint64_t target =
          va + d->size + static_cast<uint64_t>(static_cast<int64_t>(inst.imm));
      if (reaches_handler(target)) {
        ++census.sfi_checks;
        census.check_decicycles += c;
        // The SFI sequence is lea (effective address) + cmp (against the
        // limit) + jcc into the handler; credit the feeders when present.
        if (have1 && (prev1.op == Opcode::kCmpRR || prev1.op == Opcode::kCmpRI)) {
          census.check_decicycles += prev1_cost;
          if (have2 && prev2.op == Opcode::kLea) {
            census.check_decicycles += prev2_cost;
          }
        }
      }
    }
    prev2 = prev1;
    prev2_cost = prev1_cost;
    have2 = have1;
    prev1 = inst;
    prev1_cost = c;
    have1 = true;
    off += d->size;
  }
  return census;
}

GuestProfiler::~GuestProfiler() { Stop(); }

void GuestProfiler::SetFunctions(std::vector<FunctionExtent> extents, uint64_t handler_lo,
                                 uint64_t handler_hi) {
  std::lock_guard<std::mutex> lock(mu_);
  extents_ = std::move(extents);
  std::sort(extents_.begin(), extents_.end(),
            [](const FunctionExtent& a, const FunctionExtent& b) { return a.addr < b.addr; });
  handler_lo_ = handler_lo;
  handler_hi_ = handler_hi;
  samples_per_fn_.assign(extents_.size(), 0);
  total_samples_ = 0;
  idle_samples_ = 0;
  unattributed_ = 0;
  for (const std::unique_ptr<Target>& t : targets_) {
    t->samples = 0;
    t->idle = 0;
  }
}

std::atomic<uint64_t>* GuestProfiler::AddTarget(const std::string& label) {
  std::lock_guard<std::mutex> lock(mu_);
  for (const std::unique_ptr<Target>& t : targets_) {
    if (t->label == label) {
      return &t->pc;
    }
  }
  targets_.push_back(std::make_unique<Target>());
  targets_.back()->label = label;
  return &targets_.back()->pc;
}

void GuestProfiler::Start(std::chrono::microseconds period) {
  if (running_.exchange(true)) {
    return;
  }
  sampler_ = std::thread([this, period] { SamplerLoop(period); });
}

void GuestProfiler::Stop() {
  if (!running_.exchange(false)) {
    return;
  }
  sampler_.join();
}

void GuestProfiler::SamplerLoop(std::chrono::microseconds period) {
  while (running_.load(std::memory_order_relaxed)) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const std::unique_ptr<Target>& t : targets_) {
        const uint64_t pc = t->pc.load(std::memory_order_relaxed);
        ++total_samples_;
        ++t->samples;
        if (pc == 0) {
          ++idle_samples_;
          ++t->idle;
          continue;
        }
        const int idx = AttributePc(pc);
        if (idx < 0) {
          ++unattributed_;
        } else {
          ++samples_per_fn_[static_cast<size_t>(idx)];
        }
      }
    }
    std::this_thread::sleep_for(period);
  }
}

int GuestProfiler::AttributePc(uint64_t pc) const {
  // extents_ sorted by addr: find the last extent starting at or below pc.
  size_t lo = 0, hi = extents_.size();
  while (lo < hi) {
    const size_t mid = (lo + hi) / 2;
    if (extents_[mid].addr <= pc) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) {
    return -1;
  }
  const FunctionExtent& fn = extents_[lo - 1];
  return pc < fn.addr + fn.size ? static_cast<int>(lo - 1) : -1;
}

ProfileReport GuestProfiler::MakeReport(const CostModel& cost) const {
  std::lock_guard<std::mutex> lock(mu_);
  ProfileReport report;
  report.total_samples = total_samples_;
  report.idle_samples = idle_samples_;
  report.unattributed = unattributed_;
  const uint64_t live = total_samples_ - idle_samples_;
  for (size_t i = 0; i < extents_.size(); ++i) {
    if (samples_per_fn_[i] == 0) {
      continue;
    }
    FunctionProfile fp;
    fp.name = extents_[i].name;
    fp.samples = samples_per_fn_[i];
    fp.sample_pct = live == 0 ? 0 : 100.0 * static_cast<double>(fp.samples) /
                                        static_cast<double>(live);
    fp.census = CensusOf(extents_[i], handler_lo_, handler_hi_, cost);
    fp.check_cost_pct =
        fp.census.total_decicycles == 0
            ? 0
            : 100.0 * static_cast<double>(fp.census.check_decicycles) /
                  static_cast<double>(fp.census.total_decicycles);
    fp.est_check_share = fp.sample_pct * fp.check_cost_pct / 100.0;
    report.functions.push_back(std::move(fp));
  }
  std::sort(report.functions.begin(), report.functions.end(),
            [](const FunctionProfile& a, const FunctionProfile& b) {
              if (a.samples != b.samples) {
                return a.samples > b.samples;
              }
              return a.name < b.name;
            });
  for (const std::unique_ptr<Target>& t : targets_) {
    report.targets.push_back({t->label, t->samples, t->idle});
  }
  return report;
}

}  // namespace telemetry
}  // namespace krx
