#include "effects.hpp"

#include <algorithm>
#include <climits>
#include <cstdint>
#include <iomanip>
#include <set>
#include <sstream>
#include <string_view>

namespace aegis::lint {
namespace {

/// FNV-1a 64-bit, the same construction as src/util/hash.hpp: the manifest
/// digest. aegis-lint links nothing but the standard library, so it
/// carries its own copy.
std::uint64_t fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string join_chain(const std::vector<std::string>& chain) {
  std::string out;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) out += " -> ";
    out += chain[i];
  }
  return out;
}

void rule_rng_stream(const CallGraph& graph, std::vector<FileFinding>& out) {
  for (FnRef r : graph.sorted_functions()) {
    const FunctionModel& f = graph.fn(r);
    const bool draws = !f.draws.empty();
    bool forwards = false;
    for (const CallSite& c : f.calls) forwards = forwards || c.forwards_rng;
    if (!draws && !forwards) continue;
    if (!f.rng_stream.empty()) continue;
    const std::string verb =
        draws ? "draws from a util::Rng" : "forwards a util::Rng to callees";
    out.push_back(FileFinding{
        graph.path(r),
        Finding{"rng-stream", f.line,
                "function '" + f.qualified + "' " + verb +
                    " but has no '// aegis-rng: stream(<name>)' annotation; "
                    "name the stream so draw-order coupling is declared",
                "stream-ok"}});
  }
}

void rule_noalloc_transitive(const CallGraph& graph,
                             std::vector<FileFinding>& out) {
  for (FnRef r : graph.sorted_functions()) {
    const FunctionModel& f = graph.fn(r);
    for (const CallSite& c : f.calls) {
      if (!c.in_noalloc) continue;
      for (FnRef target : graph.resolve(c)) {
        if (target == r) continue;  // self-recursion: own body already linted
        const CallGraph::AllocReach& ar = graph.alloc_reach(target);
        if (!ar.reachable) continue;
        std::vector<std::string> chain = ar.chain;
        chain.insert(chain.begin(), f.qualified);
        out.push_back(FileFinding{
            graph.path(r),
            Finding{"noalloc-transitive", c.line,
                    "call to '" + c.callee +
                        "' inside a noalloc region reaches an allocation (" +
                        ar.what + " at " + ar.file + ":" +
                        std::to_string(ar.line) + " via " + join_chain(chain) +
                        ")",
                    "alloc-ok"}});
        break;  // one report per call site
      }
    }
  }
}

void rule_lock_order_global(const CallGraph& graph,
                            std::vector<FileFinding>& out) {
  for (FnRef r : graph.sorted_functions()) {
    const FunctionModel& f = graph.fn(r);
    for (const CallSite& c : f.calls) {
      if (c.held_levels.empty()) continue;
      // The tightest constraint is the highest level currently held.
      std::size_t hi = 0;
      for (std::size_t h = 1; h < c.held_levels.size(); ++h) {
        if (c.held_levels[h] > c.held_levels[hi]) hi = h;
      }
      const int held_level = c.held_levels[hi];
      const std::string& held_name = c.held_names[hi];
      for (FnRef target : graph.resolve(c)) {
        const CallGraph::LockReach& lr = graph.lock_reach(target);
        if (lr.level == INT_MAX || lr.level > held_level) continue;
        std::vector<std::string> chain = lr.chain;
        chain.insert(chain.begin(), f.qualified);
        out.push_back(FileFinding{
            graph.path(r),
            Finding{"lock-order-global", c.line,
                    "call to '" + c.callee + "' while holding '" + held_name +
                        "' (level " + std::to_string(held_level) +
                        ") transitively acquires '" + lr.mutex_name +
                        "' (level " + std::to_string(lr.level) + ") at " +
                        lr.file + ":" + std::to_string(lr.line) +
                        " via " + join_chain(chain) +
                        "; the declared lock order requires strictly "
                        "increasing levels",
                    "lock-ok"}});
        break;  // one report per call site
      }
    }
  }
}

/// DFS-preorder walk for the manifest: emits draws and descends into
/// resolved callees in body (seq) order. `visited` is per-root, so shared
/// helpers are inventoried once, at their first reachable position.
void manifest_walk(const CallGraph& graph, FnRef at, std::set<FnRef>& visited,
                   std::ostringstream& body, int& count) {
  if (visited.count(at) != 0) return;
  visited.insert(at);
  const FunctionModel& f = graph.fn(at);
  std::size_t di = 0;
  std::size_t ci = 0;
  while (di < f.draws.size() || ci < f.calls.size()) {
    const bool draw_next =
        ci >= f.calls.size() ||
        (di < f.draws.size() && f.draws[di].seq < f.calls[ci].seq);
    if (draw_next) {
      body << "- " << f.draws[di].method << " via " << f.qualified;
      if (!f.rng_stream.empty()) body << " [stream=" << f.rng_stream << "]";
      body << "\n";
      ++count;
      ++di;
    } else {
      for (FnRef target : graph.resolve(f.calls[ci])) {
        manifest_walk(graph, target, visited, body, count);
      }
      ++ci;
    }
  }
}

}  // namespace

std::vector<FileFinding> run_graph_rules(const CallGraph& graph) {
  std::vector<FileFinding> out;
  rule_rng_stream(graph, out);
  rule_noalloc_transitive(graph, out);
  rule_lock_order_global(graph, out);
  return out;
}

std::string rng_manifest(const CallGraph& graph) {
  std::ostringstream body;
  body << "# RNG stream manifest\n"
       << "\n"
       << "Generated by `aegis_lint --write-rng-manifest`; checked by the\n"
       << "`aegis_lint_gate` ctest via `--check-rng-manifest`. For every\n"
       << "hot-path root (a function guarded by `// aegis-lint: noalloc`)\n"
       << "this records the DFS-preorder sequence of util::Rng draw sites\n"
       << "the root can reach through the call graph. Line numbers are\n"
       << "deliberately omitted: unrelated edits leave the manifest alone,\n"
       << "but adding, removing, moving, or reordering a reachable draw\n"
       << "changes the sequence — and the pinned digest — so the gate\n"
       << "fails until the change is reviewed and the file regenerated:\n"
       << "\n"
       << "    build/tools/aegis_lint/aegis_lint --root . \\\n"
       << "        --write-rng-manifest RNG_STREAMS.md src bench examples "
          "tools\n"
       << "\n";
  int roots = 0;
  for (FnRef r : graph.sorted_functions()) {
    const FunctionModel& f = graph.fn(r);
    if (!f.noalloc_root) continue;
    ++roots;
    body << "## root " << f.qualified << " (" << graph.path(r) << ")";
    body << " stream="
         << (f.rng_stream.empty() ? "(unannotated)" : f.rng_stream) << "\n";
    std::set<FnRef> visited;
    int count = 0;
    manifest_walk(graph, r, visited, body, count);
    if (count == 0) body << "- (no reachable draws)\n";
    body << "\n";
  }
  if (roots == 0) body << "(no hot-path roots found)\n\n";
  std::ostringstream out;
  out << body.str();
  out << "digest: 0x" << std::hex << std::setw(16) << std::setfill('0')
      << fnv1a64(body.str()) << "\n";
  return out.str();
}

std::string manifest_digest_line(const std::string& manifest) {
  const std::string key = "digest: ";
  std::size_t pos = manifest.rfind(key);
  if (pos == std::string::npos) return "";
  // Must be at a line start.
  if (pos != 0 && manifest[pos - 1] != '\n') return "";
  std::size_t end = manifest.find('\n', pos);
  if (end == std::string::npos) end = manifest.size();
  return manifest.substr(pos + key.size(), end - pos - key.size());
}

}  // namespace aegis::lint
