#include "rules.hpp"

#include <algorithm>
#include <cstddef>
#include <unordered_set>

#include "cfg.hpp"

namespace asfsim_lint {
namespace {

bool is(const Token& t, const char* s) { return t.text == s; }
bool is_ident(const Token& t) { return t.kind == TokKind::kIdent; }

bool path_contains(const std::string& path, const char* needle) {
  return path.find(needle) != std::string::npos;
}

// ---- R5/R6 helpers --------------------------------------------------------

// Clock/entropy TYPES: any mention in sim-affecting code is a finding.
const std::unordered_set<std::string> kNondetTypes = {
    "random_device", "system_clock", "steady_clock", "high_resolution_clock"};

// Banned FUNCTIONS: flagged only as calls (`name(`), unqualified or
// std::-qualified, never as members (`obj.time(...)` is someone else's API).
const std::unordered_set<std::string> kNondetCalls = {
    "rand",   "srand",        "time",        "clock",
    "getenv", "gettimeofday", "clock_gettime"};

/// Declared type spelling with cv/storage qualifiers and std:: stripped,
/// so "const std::unordered_map<K, V>" resolves to its container head.
std::string type_head(std::string t) {
  for (bool again = true; again;) {
    again = false;
    for (const char* q : {"const ", "static ", "mutable "}) {
      const std::size_t n = std::string(q).size();
      if (t.rfind(q, 0) == 0) {
        t.erase(0, n);
        again = true;
      }
    }
  }
  if (t.rfind("std::", 0) == 0) t.erase(0, 5);
  return t;
}

/// Does iterating a declaration of this type (optionally through one
/// subscript) walk an unordered container?
bool iteration_is_unordered(const std::string& type_text, bool indexed) {
  const std::string head = type_head(type_text);
  const bool head_unordered = head.rfind("unordered_", 0) == 0;
  const std::size_t first = type_text.find("unordered_");
  if (first == std::string::npos) return false;
  if (!indexed) return head_unordered;
  if (!head_unordered) return true;  // e.g. vector<unordered_map<...>>[i]
  // umap[k] yields the mapped type; only flag when that is unordered too.
  return type_text.find("unordered_", first + 1) != std::string::npos;
}

class Checker {
 public:
  Checker(const ParsedFile& pf, const RuleContext& ctx)
      : file_(pf.file),
        toks_(pf.file.tokens),
        ast_(pf.ast),
        ctx_(ctx),
        cfgs_(build_cfgs(pf.file, pf.ast)) {}

  std::vector<Diagnostic> run() {
    rule_coawait_in_condition();
    if (path_contains(file_.path, "workloads") ||
        path_contains(file_.path, "oltp")) {
      rule_global_alloc_in_tx();
      rule_raw_guest_access();
    }
    if (sim_affecting_path(file_.path)) {
      rule_nondeterministic_source();
      rule_unordered_iteration();
    }
    std::sort(diags_.begin(), diags_.end(),
              [](const Diagnostic& a, const Diagnostic& b) {
                return a.line != b.line ? a.line < b.line : a.rule < b.rule;
              });
    return std::move(diags_);
  }

 private:
  void report(const char* rule, std::size_t tok, std::string message,
              std::string hint = {}, std::vector<FixEdit> fixes = {}) {
    const std::uint32_t line = toks_[tok].line;
    if (file_.suppressions.allows(rule, line)) return;
    // One report per (rule, line) is enough.
    for (const auto& d : diags_) {
      if (d.line == line && d.rule == rule) return;
    }
    diags_.push_back({file_.path, line, rule, std::move(message),
                      std::move(hint), std::move(fixes)});
  }

  /// Leading whitespace of the line containing byte `at`.
  std::string indent_at(std::size_t at) const {
    const std::string& src = file_.source;
    std::size_t start = at;
    while (start > 0 && src[start - 1] != '\n') --start;
    std::string indent;
    for (std::size_t k = start; k < src.size() && (src[k] == ' ' ||
                                                   src[k] == '\t');
         ++k) {
      indent.push_back(src[k]);
    }
    return indent;
  }

  // ---- R1: co_await inside a condition expression -------------------------
  //
  // The GCC 12 miscompile (DESIGN.md §7, pinned by
  // tests/test_compiler_workaround.cpp): when a co_await appears inside a
  // condition expression whose controlled branch also suspends, the frame's
  // resume index is corrupted and the first resume silently runs the
  // destroyer instead of the body — observed as a kernel "deadlock" at -O0
  // and SIGILL at -O2. The safe shape hoists the awaited value into a named
  // local before branching, so we ban co_await in EVERY condition context,
  // whether or not the branch suspends today (the branch body is one edit
  // away from suspending). Detection walks the CFG's condition nodes.
  void rule_coawait_in_condition() {
    for (const Cfg& cfg : cfgs_) {
      for (const CfgNode& n : cfg.nodes) {
        if (n.kind != CfgNodeKind::kBranch && n.kind != CfgNodeKind::kLoop) {
          continue;
        }
        if (n.cond_open == kNpos || n.cond_close == kNpos) continue;
        const std::string intro = n.intro == "do" ? "while" : n.intro;
        for (std::size_t k = n.cond_open + 1; k < n.cond_close; ++k) {
          if (!is(toks_[k], "co_await")) continue;
          report(kRuleCoawaitInCondition, k,
                 "co_await inside a '" + intro +
                     "' condition — GCC 12 corrupts the coroutine frame when "
                     "the controlled branch also suspends (DESIGN.md §7)",
                 "hoist the awaited value first:  const auto v = co_await "
                 "<expr>;  " +
                     intro + " (v ...) { ... }",
                 hoist_fix(n));
        }
      }
    }
    // Ternary conditions: a co_await whose full expression meets a `?` at
    // the same nesting depth before the statement ends. Token walk: the CFG
    // does not model expressions.
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is(toks_[i], "co_await")) continue;
      int depth = 0;
      for (std::size_t k = i + 1; k < toks_.size(); ++k) {
        const Token& t = toks_[k];
        if (is(t, "(") || is(t, "[") || is(t, "{")) ++depth;
        if (is(t, ")") || is(t, "]") || is(t, "}")) --depth;
        if (depth < 0) break;
        if (depth == 0 &&
            (is(t, ";") || is(t, ",") || is(t, ":") || is(t, "="))) {
          break;
        }
        if (depth == 0 && is(t, "?")) {
          report(kRuleCoawaitInCondition, i,
                 "co_await in a ternary condition — same GCC 12 frame "
                 "corruption as branching on an inline co_await "
                 "(DESIGN.md §7)",
                 "hoist:  const auto v = co_await <expr>;  then  v ? ... : "
                 "...");
          break;
        }
      }
    }
  }

  /// Autofix for an `if (co_await ...)` header: hoist the whole condition
  /// into a named local above the statement. Only plain `if` — hoisting a
  /// loop condition would freeze a value the loop must re-await, and
  /// condition-declarations (`if (auto v = ...)`) need the declaration kept.
  std::vector<FixEdit> hoist_fix(const CfgNode& n) const {
    if (n.intro != "if") return {};
    if (n.cond_open != n.begin + 1) return {};  // `if constexpr (...)`
    int depth = 0;
    for (std::size_t k = n.cond_open + 1; k < n.cond_close; ++k) {
      const Token& t = toks_[k];
      if (is(t, "(") || is(t, "[") || is(t, "{")) ++depth;
      if (is(t, ")") || is(t, "]") || is(t, "}")) --depth;
      if (depth == 0 && (is(t, "=") || is(t, ";"))) return {};
    }
    const Token& intro_tok = toks_[n.begin];
    const Token& open_tok = toks_[n.cond_open];
    const Token& close_tok = toks_[n.cond_close];
    if (close_tok.begin <= open_tok.end) return {};
    const std::string var =
        "hoisted_l" + std::to_string(intro_tok.line);
    const std::string cond = file_.source.substr(
        open_tok.end, close_tok.begin - open_tok.end);
    std::vector<FixEdit> fixes;
    fixes.push_back({intro_tok.begin, intro_tok.begin,
                     "const auto " + var + " = " + cond + ";\n" +
                         indent_at(intro_tok.begin)});
    fixes.push_back({open_tok.end, close_tok.begin, var});
    return fixes;
  }

  // ---- R3: global bump allocation from guest-thread code ------------------
  //
  // DESIGN.md §6.9: a single global bump allocator hands concurrent
  // transactions adjacent nodes in the same cache line, and their
  // initialization stores alone fabricate write-write false sharing that
  // drowns the real conflict signal. Guest-thread (coroutine) code in
  // workloads must allocate from the per-core pools via
  // GuestCtx::alloc_local; setup()/validate() run at host time on one
  // thread and may use the global path freely.
  void rule_global_alloc_in_tx() {
    for (std::size_t i = 0; i + 4 < toks_.size(); ++i) {
      if (!is_ident(toks_[i]) || toks_[i].text != "galloc") continue;
      if (!(is(toks_[i + 1], "(") && is(toks_[i + 2], ")") &&
            is(toks_[i + 3], "."))) {
        continue;
      }
      const std::string& m = toks_[i + 4].text;
      if (m != "alloc" && m != "alloc_lines") continue;
      if (!ast_.in_coroutine(i)) continue;
      // Autofix: rewrite `galloc().alloc` to `<ctx>.alloc_local` when the
      // enclosing function takes a GuestCtx (alloc_lines has no per-core
      // equivalent, so only the plain form is fixable).
      std::vector<FixEdit> fixes;
      if (m == "alloc") {
        if (const FunctionDecl* f = ast_.function_at(i)) {
          for (const ParamDecl& p : f->params) {
            if (p.type_text.find("GuestCtx") != std::string::npos &&
                !p.name.empty()) {
              fixes.push_back({toks_[i].begin, toks_[i + 4].end,
                               p.name + ".alloc_local"});
              break;
            }
          }
        }
      }
      report(kRuleGlobalAllocInTx, i,
             "guest-thread code allocates via the global bump allocator "
             "(galloc()." +
                 m +
                 ") — concurrent transactions get adjacent nodes in one "
                 "line and fabricate WAW false sharing (DESIGN.md §6.9)",
             "use the per-core pool:  ctx.alloc_local(size, align)",
             std::move(fixes));
    }
    // Raw host allocation in guest-thread code is the same hazard from the
    // host side: heap nodes allocated mid-coroutine are invisible to the
    // simulator AND non-deterministic in address. The ONLY sanctioned host
    // allocation under a guest frame is the per-core coroutine-frame arena
    // (src/sim/frame_arena.hpp), which Task<> promises route operator new
    // through; at a call site that machinery appears as placement-new into
    // arena storage. The exemption is this explicit allowlist of arena
    // entry-point names — never a file- or rule-level suppression, which
    // would also hide genuine global allocations
    // (tests/lint_fixtures/workloads/r3_arena_*.cpp pin both directions).
    static constexpr const char* kR3ArenaAllowlist[] = {"frame_arena",
                                                        "FrameArena"};
    for (std::size_t i = 0; i + 1 < toks_.size(); ++i) {
      if (!is_ident(toks_[i])) continue;
      const std::string& t = toks_[i].text;
      const bool is_new = t == "new";
      const bool is_c_alloc =
          (t == "malloc" || t == "calloc" || t == "realloc") &&
          is(toks_[i + 1], "(");
      if (!is_new && !is_c_alloc) continue;
      if (!ast_.in_coroutine(i)) continue;
      if (is_new && is(toks_[i + 1], "(")) {
        // Placement-new: exempt iff the placement argument goes through an
        // allowlisted arena entry point.
        bool allowlisted = false;
        int depth = 0;
        for (std::size_t j = i + 1; j < toks_.size(); ++j) {
          if (is(toks_[j], "(")) ++depth;
          if (is(toks_[j], ")") && --depth == 0) break;
          for (const char* name : kR3ArenaAllowlist) {
            if (is_ident(toks_[j]) && toks_[j].text == name)
              allowlisted = true;
          }
        }
        if (allowlisted) continue;
      }
      report(kRuleGlobalAllocInTx, i,
             "guest-thread code allocates from the host heap (" + t +
                 ") — the address is host-nondeterministic and the node "
                 "is invisible to the simulator (DESIGN.md §6.9); only "
                 "the per-core frame arena is exempt",
             "use ctx.alloc_local(size, align) for simulated nodes, or "
             "the FrameArena for host-side coroutine scratch");
    }
  }

  // ---- R4: host-side backdoor access to guest memory ----------------------
  //
  // Machine::poke/peek and BackingStore read/write bypass the caches, the
  // conflict detector, and the classifier's byte masks entirely — legal for
  // single-threaded setup()/validate(), but inside guest-thread code they
  // silently exempt accesses from conflict detection and corrupt the
  // paper's conflict counts. reinterpret_cast of simulated addresses into
  // host pointers is never meaningful in a workload.
  void rule_raw_guest_access() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i])) continue;
      const std::string& name = toks_[i].text;
      if (name == "reinterpret_cast") {
        report(kRuleRawGuestAccess, i,
               "reinterpret_cast in a workload — guest memory has no host "
               "pointer; use GuestCtx typed loads/stores",
               "co_await ctx.load_u64(addr) / ctx.store_u64(addr, v)");
        continue;
      }
      if (name != "poke" && name != "peek" && name != "backing") continue;
      if (i + 1 >= toks_.size() || !is(toks_[i + 1], "(")) continue;
      if (i == 0 || !(is(toks_[i - 1], ".") || is(toks_[i - 1], "->"))) {
        continue;
      }
      if (!ast_.in_coroutine(i)) continue;
      report(kRuleRawGuestAccess, i,
             "guest-thread code calls '" + name +
                 "' — host-side backdoor access bypasses the caches, the "
                 "conflict detector, and the classifier byte masks",
             "co_await ctx.load_u64(addr) / ctx.store_u64(addr, v)");
    }
  }

  // ---- R5: non-deterministic sources in simulator-affecting code ----------
  //
  // Every simulation result must be a pure function of (SimConfig, seed):
  // that is what makes the JobSpec content-hash cache sound and runs
  // reproducible across machines. Wall-clock reads, C PRNGs, entropy
  // devices and environment lookups in sim-affecting directories silently
  // break both. Host-side tooling (runner/, harness/, trace/) is out of
  // scope; genuinely wall-clock code (watchdog escape hatches) carries an
  // explicit suppression with its justification.
  void rule_nondeterministic_source() {
    for (std::size_t i = 0; i < toks_.size(); ++i) {
      if (!is_ident(toks_[i])) continue;
      const std::string& name = toks_[i].text;
      if (kNondetTypes.count(name) != 0) {
        report(kRuleNondeterministicSource, i,
               "'" + name +
                   "' in simulator-affecting code — results must be a pure "
                   "function of (config, seed); clock/entropy reads poison "
                   "the JobSpec result cache and reproducibility",
               "derive randomness from cfg.seed; if this is wall-clock "
               "guard code, annotate why with  // asfsim-lint: "
               "allow(nondeterministic-source)");
        continue;
      }
      if (kNondetCalls.count(name) == 0) continue;
      if (i + 1 >= toks_.size() || !is(toks_[i + 1], "(")) continue;
      if (i > 0) {
        const Token& p = toks_[i - 1];
        if (is(p, ".") || is(p, "->")) continue;  // member call: not libc
        if (is(p, "::")) {
          // Qualified: only std::/global-:: spellings are the libc ones.
          if (i >= 2 && is_ident(toks_[i - 2]) &&
              toks_[i - 2].text != "std") {
            continue;
          }
        }
        // `ScopedSimClock clock(...)` declares a variable named `clock`;
        // a preceding type name or declarator punctuation is not a call
        // context (but `return time(nullptr)` still is).
        static const std::unordered_set<std::string> kCallIntro = {
            "return", "co_return", "co_yield", "else", "do", "case"};
        if (is_ident(p) && kCallIntro.count(p.text) == 0) continue;
        if (is(p, ">") || is(p, ">>") || is(p, "&") || is(p, "*")) continue;
      }
      report(kRuleNondeterministicSource, i,
             "call to '" + name +
                 "' in simulator-affecting code — results must be a pure "
                 "function of (config, seed); clock/entropy reads poison "
                 "the JobSpec result cache and reproducibility",
             "derive randomness from cfg.seed; if this is wall-clock "
             "guard code, annotate why with  // asfsim-lint: "
             "allow(nondeterministic-source)");
    }
  }

  // ---- R6: range-for over an unordered container --------------------------
  //
  // unordered_map/set iteration order is unspecified and differs across
  // stdlib implementations, hash seeds, and insertion histories. When the
  // loop body's effect depends on visit order (first-match reporting,
  // accumulation with rounding, tie-breaking), simulation output stops
  // being reproducible. Order-insensitive folds (sum/max over disjoint
  // state) are fine — suppress with a justification.
  void rule_unordered_iteration() {
    for (const RangeForStmt& rf : ast_.range_fors) {
      // Resolve the iterated expression: a name, member chain, or a chain
      // with subscripts. Calls are opaque; skip them.
      bool has_call = false;
      bool indexed = false;
      std::size_t base = kNpos;
      int bracket = 0;
      for (std::size_t k = rf.colon + 1; k < rf.close; ++k) {
        const Token& t = toks_[k];
        if (is(t, "(")) has_call = true;
        if (is(t, "[")) {
          if (bracket == 0) indexed = true;
          ++bracket;
        }
        if (is(t, "]")) --bracket;
        if (bracket == 0 && is_ident(t)) base = k;
      }
      if (has_call || base == kNpos) continue;
      const std::string& name = toks_[base].text;
      const std::vector<std::string>* types = nullptr;
      std::vector<std::string> local;
      for (const ContainerDecl& d : ast_.container_decls) {
        if (d.name == name) local.push_back(d.type_text);
      }
      if (!local.empty()) {
        types = &local;
      } else {
        const auto it = ctx_.containers.find(name);
        if (it == ctx_.containers.end()) continue;
        types = &it->second;
      }
      for (const std::string& ty : *types) {
        if (!iteration_is_unordered(ty, indexed)) continue;
        report(kRuleUnorderedIteration, rf.for_tok,
               "range-for over unordered container '" + name + "' (" + ty +
                   ") — iteration order is unspecified and varies across "
                   "stdlib implementations, so any order-sensitive effect "
                   "breaks reproducibility",
               "collect keys into a std::vector and sort, use a sorted "
               "container, or suppress with a justification if the fold is "
               "order-insensitive");
        break;
      }
    }
  }

  const LexedFile& file_;
  const std::vector<Token>& toks_;
  const Ast& ast_;
  const RuleContext& ctx_;
  std::vector<Cfg> cfgs_;
  std::vector<Diagnostic> diags_;
};

}  // namespace

bool sim_affecting_path(const std::string& path) {
  static const std::unordered_set<std::string> kScopes = {
      "sim", "core",      "mem",   "htm",  "guest",
      "oltp", "workloads", "fault", "stats"};
  std::size_t begin = 0;
  while (begin <= path.size()) {
    const std::size_t slash = path.find('/', begin);
    const std::size_t end = slash == std::string::npos ? path.size() : slash;
    if (kScopes.count(path.substr(begin, end - begin)) != 0) return true;
    if (slash == std::string::npos) break;
    begin = slash + 1;
  }
  return false;
}

RuleContext collect_context(const std::vector<ParsedFile>& files) {
  RuleContext ctx;
  for (const ParsedFile& pf : files) {
    for (const ContainerDecl& d : pf.ast.container_decls) {
      ctx.containers[d.name].push_back(d.type_text);
    }
  }
  return ctx;
}

std::vector<Diagnostic> check_file(const ParsedFile& pf,
                                   const RuleContext& ctx) {
  return Checker(pf, ctx).run();
}

}  // namespace asfsim_lint
