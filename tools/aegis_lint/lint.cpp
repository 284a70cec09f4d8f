#include "lint.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "effects.hpp"
#include "parse.hpp"

namespace aegis::lint {

namespace fs = std::filesystem;

namespace {

bool known_suppress_tag(const std::string& tag) {
  for (const RuleInfo& r : rule_catalog()) {
    if (r.suppress_tag == tag) return true;
  }
  return false;
}

std::string read_file(const fs::path& p) {
  std::ifstream is(p, std::ios::binary);
  if (!is) throw std::runtime_error("aegis_lint: cannot read " + p.string());
  std::ostringstream ss;
  ss << is.rdbuf();
  return ss.str();
}

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cpp" || ext == ".hpp" || ext == ".h" || ext == ".cc";
}

bool has_prefix(const std::string& rel, const std::vector<std::string>& prefixes) {
  for (const std::string& prefix : prefixes) {
    if (rel.rfind(prefix, 0) == 0) return true;
  }
  return false;
}

/// The sorted, deduplicated, exclude-filtered file list for a tree walk.
std::vector<fs::path> collect_files(const TreeOptions& options,
                                    const fs::path& root) {
  std::vector<fs::path> files;
  for (const std::string& sub : options.paths) {
    const fs::path p = root / sub;
    if (fs::is_regular_file(p)) {
      if (lintable(p)) files.push_back(p);
      continue;
    }
    if (!fs::is_directory(p)) {
      throw std::runtime_error("aegis_lint: no such path: " + p.string());
    }
    for (const auto& entry : fs::recursive_directory_iterator(p)) {
      if (entry.is_regular_file() && lintable(entry.path())) {
        files.push_back(entry.path());
      }
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  std::vector<fs::path> kept;
  for (const fs::path& p : files) {
    if (!has_prefix(fs::relative(p, root).generic_string(), options.exclude)) {
      kept.push_back(p);
    }
  }
  return kept;
}

LintConfig config_for(const std::string& rel, const TreeOptions& options) {
  LintConfig config;
  if (has_prefix(rel, options.clock_exempt)) config.clock_rule = false;
  if (has_prefix(rel, options.backend_exempt)) config.backend_rule = false;
  return config;
}

std::string companion_for(const fs::path& p) {
  if (p.extension() != ".cpp" && p.extension() != ".cc") return "";
  for (const char* ext : {".hpp", ".h"}) {
    fs::path header = p;
    header.replace_extension(ext);
    if (fs::is_regular_file(header)) return read_file(header);
  }
  return "";
}

/// Everything phase 1 produces for one file.
struct FileAnalysis {
  std::vector<Finding> lexical;       // unfiltered lexical-rule findings
  std::vector<Finding> diagnostics;   // parse_file misparse diagnostics
  std::vector<Directive> directives;  // for suppression + stale detection
  FileModel model;                    // phase-2 graph input
};

/// Phase 1 for one file: lex, the lexical rules, FileModel extraction.
FileAnalysis analyze_file(std::string_view rel, std::string_view content,
                          std::string_view companion,
                          const LintConfig& config) {
  LexOutput lx = lex(content);
  LexOutput comp;
  if (!companion.empty()) comp = lex(companion);
  const LexOutput* comp_ptr = companion.empty() ? nullptr : &comp;
  FileAnalysis a;
  a.lexical = run_rules(lx, comp_ptr, config);
  a.model = parse_file(rel, lx, comp_ptr, a.diagnostics);
  a.directives = std::move(lx.directives);
  return a;
}

/// True when `d` names the suppression tag of `f` on its line or the line
/// above.
bool covers(const Directive& d, const Finding& f) {
  return !f.suppress_tag.empty() && d.tag == f.suppress_tag &&
         (d.line == f.line || d.line == f.line - 1);
}

/// Filters one file's findings against its suppressions: drops every
/// finding a reasoned directive covers, reports reason-less suppressions
/// and, with `report_stale`, directives that cover nothing. The result is
/// stable-sorted by line.
std::vector<Finding> filter_suppressed(std::vector<Finding> findings,
                                       const std::vector<Directive>& directives,
                                       bool report_stale) {
  std::vector<Finding> kept;
  for (const Finding& f : findings) {
    const bool suppressed =
        std::any_of(directives.begin(), directives.end(),
                    [&](const Directive& d) {
                      return !d.arg.empty() && covers(d, f);
                    });
    if (!suppressed) kept.push_back(f);
  }
  for (const Directive& d : directives) {
    if (!known_suppress_tag(d.tag)) continue;
    // Reason-less suppressions are findings of their own: an unexplained
    // exemption is exactly the reviewer-attention problem the linter
    // exists to remove.
    if (d.arg.empty()) {
      kept.push_back(Finding{"suppression", d.line,
                             "suppression '" + d.tag +
                                 "' needs a reason: // aegis-lint: " + d.tag +
                                 "(<why this site is safe>)",
                             ""});
      continue;
    }
    if (!report_stale) continue;
    // Stale detection runs against the PRE-filter findings: a directive
    // earns its keep by covering any finding, including the ones it
    // suppresses.
    const bool used = std::any_of(
        findings.begin(), findings.end(),
        [&](const Finding& f) { return covers(d, f); });
    if (!used) {
      kept.push_back(Finding{
          "stale-suppression", d.line,
          "suppression '" + d.tag + "(" + d.arg +
              ")' no longer silences any finding; delete it (or run "
              "--prune-suppressions --prune-apply)",
          ""});
    }
  }
  std::stable_sort(kept.begin(), kept.end(),
                   [](const Finding& x, const Finding& y) {
                     return x.line < y.line;
                   });
  return kept;
}

}  // namespace

std::vector<Finding> lint_source(std::string_view source,
                                 std::string_view companion,
                                 const LintConfig& config) {
  FileAnalysis a = analyze_file("", source, companion, config);
  // Without phase 2 a directive for an interprocedural rule covers
  // nothing, so stale detection would misfire here.
  return filter_suppressed(std::move(a.lexical), a.directives,
                           /*report_stale=*/false);
}

ProjectResult lint_project(const TreeOptions& options) {
  const fs::path root =
      options.root.empty() ? fs::path(".") : fs::path(options.root);

  ProjectResult result;
  std::vector<FileAnalysis> analyses;
  for (const fs::path& p : collect_files(options, root)) {
    const std::string rel = fs::relative(p, root).generic_string();
    analyses.push_back(analyze_file(rel, read_file(p), companion_for(p),
                                    config_for(rel, options)));
  }
  result.files_analyzed = analyses.size();

  // Phase 2: assemble the project model, run the interprocedural rules,
  // then filter everything per file against that file's suppressions.
  for (FileAnalysis& a : analyses) {
    result.model.files.push_back(std::move(a.model));
  }
  const CallGraph graph(result.model);
  std::map<std::string, std::vector<Finding>> graph_findings;
  for (FileFinding& f : run_graph_rules(graph)) {
    graph_findings[f.file].push_back(std::move(f.finding));
  }

  for (std::size_t i = 0; i < analyses.size(); ++i) {
    const std::string& rel = result.model.files[i].path;
    FileAnalysis& a = analyses[i];
    std::vector<Finding> merged = std::move(a.lexical);
    merged.insert(merged.end(), a.diagnostics.begin(), a.diagnostics.end());
    const auto gi = graph_findings.find(rel);
    if (gi != graph_findings.end()) {
      merged.insert(merged.end(), gi->second.begin(), gi->second.end());
    }
    for (Finding& f : filter_suppressed(std::move(merged), a.directives,
                                        /*report_stale=*/true)) {
      result.findings.push_back(FileFinding{rel, std::move(f)});
    }
  }
  return result;
}

std::size_t prune_stale_suppressions(const std::string& root,
                                     const std::vector<FileFinding>& stale) {
  // Group line numbers per file, highest first, so earlier deletions never
  // shift the lines later ones target.
  std::map<std::string, std::vector<int>> by_file;
  for (const FileFinding& f : stale) {
    if (f.finding.rule == "stale-suppression") {
      by_file[f.file].push_back(f.finding.line);
    }
  }
  std::size_t removed = 0;
  for (auto& [rel, lines] : by_file) {
    const fs::path path = fs::path(root.empty() ? "." : root) / rel;
    std::string content = read_file(path);
    std::vector<std::string> file_lines;
    std::size_t start = 0;
    while (start <= content.size()) {
      const std::size_t nl = content.find('\n', start);
      if (nl == std::string::npos) {
        file_lines.push_back(content.substr(start));
        break;
      }
      file_lines.push_back(content.substr(start, nl - start));
      start = nl + 1;
    }
    std::sort(lines.begin(), lines.end());
    lines.erase(std::unique(lines.begin(), lines.end()), lines.end());
    bool changed = false;
    for (auto it = lines.rbegin(); it != lines.rend(); ++it) {
      const std::size_t idx = static_cast<std::size_t>(*it) - 1;
      if (idx >= file_lines.size()) continue;
      std::string& line = file_lines[idx];
      const std::size_t comment = line.find("// aegis-lint:");
      if (comment == std::string::npos) continue;
      std::string head = line.substr(0, comment);
      while (!head.empty() && (head.back() == ' ' || head.back() == '\t')) {
        head.pop_back();
      }
      if (head.empty()) {
        file_lines.erase(file_lines.begin() + static_cast<long>(idx));
      } else {
        line = head;
      }
      ++removed;
      changed = true;
    }
    if (!changed) continue;
    std::string rebuilt;
    for (std::size_t i = 0; i < file_lines.size(); ++i) {
      rebuilt += file_lines[i];
      if (i + 1 < file_lines.size()) rebuilt += "\n";
    }
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << rebuilt;
  }
  return removed;
}

std::string format_finding(const FileFinding& f) {
  std::string s = f.file + ":" + std::to_string(f.finding.line) + ": [" +
                  f.finding.rule + "] " + f.finding.message;
  if (!f.finding.suppress_tag.empty()) {
    s += "\n    suppress with: // aegis-lint: " + f.finding.suppress_tag +
         "(<reason>)";
  }
  return s;
}

std::string format_suppression_hint(const FileFinding& f) {
  if (f.finding.suppress_tag.empty()) {
    return f.file + ":" + std::to_string(f.finding.line) +
           ": not suppressible; fix the finding: " + f.finding.message;
  }
  return f.file + ":" + std::to_string(f.finding.line) +
         ": // aegis-lint: " + f.finding.suppress_tag + "(<reason>)";
}

}  // namespace aegis::lint
