#include "src/ir/analysis.h"

#include <algorithm>

namespace krx {

std::vector<std::vector<int32_t>> PredecessorsOf(const Function& fn) {
  const size_t n = fn.blocks().size();
  std::vector<std::vector<int32_t>> preds(n);
  for (size_t bi = 0; bi < n; ++bi) {
    for (int32_t succ_id : fn.SuccessorsOf(static_cast<int32_t>(bi))) {
      int32_t sidx = fn.IndexOfBlock(succ_id);
      if (sidx >= 0) {
        preds[static_cast<size_t>(sidx)].push_back(static_cast<int32_t>(bi));
      }
    }
  }
  return preds;
}

namespace {

// Post-order DFS from the entry over successor edges.
void PostOrder(const Function& fn, int32_t idx, std::vector<bool>& seen,
               std::vector<int32_t>& order) {
  seen[static_cast<size_t>(idx)] = true;
  for (int32_t succ_id : fn.SuccessorsOf(idx)) {
    int32_t sidx = fn.IndexOfBlock(succ_id);
    if (sidx >= 0 && !seen[static_cast<size_t>(sidx)]) {
      PostOrder(fn, sidx, seen, order);
    }
  }
  order.push_back(idx);
}

}  // namespace

DominatorTree::DominatorTree(const Function& fn) {
  const size_t n = fn.blocks().size();
  idom_.assign(n, -1);
  rpo_number_.assign(n, -1);
  if (n == 0) {
    return;
  }

  std::vector<bool> seen(n, false);
  std::vector<int32_t> post;
  post.reserve(n);
  PostOrder(fn, 0, seen, post);
  // Reverse postorder: entry first.
  std::vector<int32_t> rpo(post.rbegin(), post.rend());
  for (size_t i = 0; i < rpo.size(); ++i) {
    rpo_number_[static_cast<size_t>(rpo[i])] = static_cast<int32_t>(i);
  }

  std::vector<std::vector<int32_t>> preds = PredecessorsOf(fn);

  auto intersect = [&](int32_t a, int32_t b) {
    while (a != b) {
      while (rpo_number_[static_cast<size_t>(a)] > rpo_number_[static_cast<size_t>(b)]) {
        a = idom_[static_cast<size_t>(a)];
      }
      while (rpo_number_[static_cast<size_t>(b)] > rpo_number_[static_cast<size_t>(a)]) {
        b = idom_[static_cast<size_t>(b)];
      }
    }
    return a;
  };

  idom_[0] = 0;  // sentinel: entry "dominated by itself" during iteration
  bool changed = true;
  while (changed) {
    changed = false;
    for (int32_t b : rpo) {
      if (b == 0) {
        continue;
      }
      int32_t new_idom = -1;
      for (int32_t p : preds[static_cast<size_t>(b)]) {
        if (!Reachable(p) || idom_[static_cast<size_t>(p)] < 0) {
          continue;  // unreachable or not yet processed
        }
        new_idom = new_idom < 0 ? p : intersect(p, new_idom);
      }
      if (new_idom >= 0 && idom_[static_cast<size_t>(b)] != new_idom) {
        idom_[static_cast<size_t>(b)] = new_idom;
        changed = true;
      }
    }
  }
  idom_[0] = -1;  // drop the sentinel: the entry has no immediate dominator
}

bool DominatorTree::Dominates(int32_t a, int32_t b) const {
  if (!Reachable(a) || !Reachable(b)) {
    return false;
  }
  while (true) {
    if (b == a) {
      return true;
    }
    int32_t up = idom_[static_cast<size_t>(b)];
    if (up < 0) {
      return false;
    }
    b = up;
  }
}

std::vector<NaturalLoop> FindNaturalLoops(const Function& fn, const DominatorTree& dom) {
  std::vector<NaturalLoop> loops;
  std::vector<std::vector<int32_t>> preds = PredecessorsOf(fn);
  const size_t n = fn.blocks().size();

  auto loop_for_header = [&loops](int32_t header) -> NaturalLoop& {
    for (NaturalLoop& l : loops) {
      if (l.header == header) {
        return l;
      }
    }
    loops.push_back(NaturalLoop{});
    loops.back().header = header;
    loops.back().body.insert(header);
    return loops.back();
  };

  for (size_t u = 0; u < n; ++u) {
    if (!dom.Reachable(static_cast<int32_t>(u))) {
      continue;
    }
    for (int32_t succ_id : fn.SuccessorsOf(static_cast<int32_t>(u))) {
      int32_t h = fn.IndexOfBlock(succ_id);
      if (h < 0 || !dom.Dominates(h, static_cast<int32_t>(u))) {
        continue;
      }
      // Back edge u -> h: flood the body backwards from the latch.
      NaturalLoop& loop = loop_for_header(h);
      loop.latches.push_back(static_cast<int32_t>(u));
      std::vector<int32_t> work;
      if (loop.body.insert(static_cast<int32_t>(u)).second) {
        work.push_back(static_cast<int32_t>(u));
      }
      while (!work.empty()) {
        int32_t b = work.back();
        work.pop_back();
        if (b == h) {
          continue;
        }
        for (int32_t p : preds[static_cast<size_t>(b)]) {
          if (dom.Reachable(p) && loop.body.insert(p).second) {
            work.push_back(p);
          }
        }
      }
    }
  }

  std::sort(loops.begin(), loops.end(),
            [](const NaturalLoop& a, const NaturalLoop& b) { return a.header < b.header; });
  return loops;
}

bool RegOffsetDerivation(const Instruction& inst, Reg* dst, Reg* src, int64_t* delta) {
  switch (inst.op) {
    case Opcode::kMovRR:
      *dst = inst.r1;
      *src = inst.r2;
      *delta = 0;
      return true;
    case Opcode::kAddRI:
      if (inst.imm < 0) {
        return false;  // negative add is kSubRI's job; keep the rules disjoint
      }
      *dst = inst.r1;
      *src = inst.r1;
      *delta = inst.imm;
      return true;
    case Opcode::kSubRI:
      // Negative delta: the derived value sits *below* the checked one. The
      // O4 span domain tracks the lower edge so it can prove the read's
      // displacement pulls the address back to >= 0 (no unsigned wrap); the
      // verifier's CoverWindow lower bound is the byte-level counterpart.
      if (inst.imm < 0) {
        return false;
      }
      *dst = inst.r1;
      *src = inst.r1;
      *delta = -inst.imm;
      return true;
    case Opcode::kLea:
      if (!inst.mem.has_base() || inst.mem.has_index() || inst.mem.rip_relative ||
          inst.mem.disp < 0) {
        return false;
      }
      *dst = inst.r1;
      *src = inst.mem.base;
      *delta = inst.mem.disp;
      return true;
    default:
      return false;
  }
}

CalleeClobberSummary ComputeCalleeClobbers(
    const std::vector<Function>& functions,
    const std::function<int32_t(const std::string&)>& symbol_of) {
  struct Node {
    int32_t symbol = -1;
    uint64_t mask = 0;
    std::vector<size_t> callees;
  };
  std::vector<Node> nodes;
  std::unordered_map<int32_t, size_t> node_of;  // symbol id -> node index
  nodes.reserve(functions.size());
  for (const Function& fn : functions) {
    const int32_t sym = symbol_of(fn.name());
    if (sym < 0) {
      continue;
    }
    Node n;
    n.symbol = sym;
    node_of.emplace(sym, nodes.size());
    nodes.push_back(std::move(n));
  }
  size_t ni = 0;
  for (const Function& fn : functions) {
    if (symbol_of(fn.name()) < 0) {
      continue;
    }
    Node& node = nodes[ni++];
    bool unknown = false;
    for (const BasicBlock& b : fn.blocks()) {
      for (const Instruction& inst : b.insts) {
        node.mask |= InstructionRegWrites(inst);
        // Control that leaves the function and executes as part of this
        // call's effect: direct calls and symbolic tail jumps contribute
        // the target's summary; indirect transfers could go anywhere.
        const bool symbolic =
            (inst.op == Opcode::kCallRel || inst.op == Opcode::kJmpRel) &&
            inst.target_symbol >= 0;
        if (symbolic) {
          auto it = node_of.find(inst.target_symbol);
          if (it != node_of.end()) {
            node.callees.push_back(it->second);
          } else {
            unknown = true;
          }
        } else if (inst.IsCall() || inst.op == Opcode::kJmpR || inst.op == Opcode::kJmpM) {
          unknown = true;
        }
      }
    }
    node.mask |= (uint64_t{1} << RegIndex(kRangeCheckScratch)) |
                 (uint64_t{1} << RegIndex(Reg::kRsp));
    if (unknown) {
      node.mask = CalleeClobberSummary::kAllRegs;
    }
  }
  // Transitive closure: masks only grow and are bounded, so this converges.
  bool changed = true;
  while (changed) {
    changed = false;
    for (Node& node : nodes) {
      uint64_t m = node.mask;
      for (size_t c : node.callees) {
        m |= nodes[c].mask;
      }
      if (m != node.mask) {
        node.mask = m;
        changed = true;
      }
    }
  }
  CalleeClobberSummary out;
  for (const Node& node : nodes) {
    out.Set(node.symbol, node.mask);
  }
  return out;
}

}  // namespace krx
