#include "lint.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <regex>
#include <sstream>

namespace scishuffle::lint {

namespace fs = std::filesystem;

namespace {

struct SourceFile {
  std::string relPath;
  std::vector<std::string> lines;
};

bool readLines(const fs::path& root, const std::string& relPath, std::vector<std::string>& out,
               std::vector<Diagnostic>& diags) {
  std::ifstream in(root / relPath);
  if (!in.good()) {
    diags.push_back({relPath, 0, "cannot read file (required by this lint check)"});
    return false;
  }
  std::string line;
  while (std::getline(in, line)) out.push_back(std::move(line));
  return true;
}

std::string joinLines(const std::vector<std::string>& lines) {
  std::ostringstream os;
  for (const auto& l : lines) os << l << '\n';
  return os.str();
}

std::string readAll(const fs::path& root, const std::string& relPath,
                    std::vector<Diagnostic>& diags) {
  std::vector<std::string> lines;
  if (!readLines(root, relPath, lines, diags)) return {};
  return joinLines(lines);
}

/// Every .h/.cc under root/src, with repo-relative paths, sorted for
/// deterministic diagnostics.
std::vector<SourceFile> loadSources(const fs::path& root, std::vector<Diagnostic>& diags) {
  std::vector<SourceFile> files;
  const fs::path srcDir = root / "src";
  if (!fs::is_directory(srcDir)) {
    diags.push_back({"src", 0, "source directory missing under lint root"});
    return files;
  }
  for (const auto& entry : fs::recursive_directory_iterator(srcDir)) {
    if (!entry.is_regular_file()) continue;
    const std::string ext = entry.path().extension().string();
    if (ext != ".h" && ext != ".cc") continue;
    SourceFile f;
    f.relPath = fs::relative(entry.path(), root).generic_string();
    std::ifstream in(entry.path());
    std::string line;
    while (std::getline(in, line)) f.lines.push_back(std::move(line));
    files.push_back(std::move(f));
  }
  std::sort(files.begin(), files.end(),
            [](const SourceFile& a, const SourceFile& b) { return a.relPath < b.relPath; });
  return files;
}

struct NamedConstant {
  std::string ident;  // kFooBar
  std::string value;  // the string literal
  int line = 0;
};

/// Parses `inline constexpr const char* kIdent = "value";` declarations.
std::vector<NamedConstant> parseStringConstants(const std::vector<std::string>& lines) {
  static const std::regex re(
      R"re(inline\s+constexpr\s+const\s+char\*\s+(k\w+)\s*=\s*"([^"]+)"\s*;)re");
  std::vector<NamedConstant> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lines[i], m, re)) {
      out.push_back({m[1].str(), m[2].str(), static_cast<int>(i + 1)});
    }
  }
  return out;
}

struct TableName {
  std::string name;
  int line = 0;
};

/// Backticked names in cell `cell` (0-based) of every row of the markdown
/// table whose header line starts with `header`. This is the docs -> code
/// direction of the doc-table checks: a name listed here must still exist in
/// code, so a deletion cannot leave its row behind.
std::vector<TableName> tableCellNames(const std::vector<std::string>& docLines,
                                      const std::string& header, std::size_t cell) {
  static const std::regex nameRe(R"(`([\w.]+)`)");
  std::vector<TableName> out;
  bool inTable = false;
  for (std::size_t i = 0; i < docLines.size(); ++i) {
    const std::string& line = docLines[i];
    if (line.rfind(header, 0) == 0) {
      inTable = true;
      continue;
    }
    if (!inTable) continue;
    if (line.empty() || line[0] != '|') {
      inTable = false;
      continue;
    }
    std::size_t start = 0;  // the '|' that opens the cell
    for (std::size_t k = 0; k < cell && start != std::string::npos; ++k) {
      start = line.find('|', start + 1);
    }
    if (start == std::string::npos) continue;
    const std::size_t end = line.find('|', start + 1);
    const std::string text =
        line.substr(start + 1, end == std::string::npos ? std::string::npos : end - start - 1);
    for (auto it = std::sregex_iterator(text.begin(), text.end(), nameRe);
         it != std::sregex_iterator(); ++it) {
      out.push_back({(*it)[1].str(), static_cast<int>(i + 1)});
    }
  }
  return out;
}

}  // namespace

std::string formatDiagnostic(const Diagnostic& d) {
  std::ostringstream os;
  os << d.file;
  if (d.line > 0) os << ":" << d.line;
  os << ": error: " << d.message;
  return os.str();
}

std::vector<Diagnostic> checkCounters(const fs::path& root) {
  std::vector<Diagnostic> diags;
  const std::string countersHeader = "src/hadoop/counters.h";
  std::vector<std::string> lines;
  if (!readLines(root, countersHeader, lines, diags)) return diags;
  const std::string docs = readAll(root, "docs/OBSERVABILITY.md", diags);
  if (docs.empty()) return diags;

  const std::vector<NamedConstant> counters = parseStringConstants(lines);
  if (counters.empty()) {
    diags.push_back({countersHeader, 0,
                     "no counter constants parsed; declaration syntax changed under the linter?"});
    return diags;
  }

  // Exactly one report-name mapping: two constants must never share a string.
  std::map<std::string, const NamedConstant*> byValue;
  for (const auto& c : counters) {
    const auto [it, inserted] = byValue.emplace(c.value, &c);
    if (!inserted) {
      diags.push_back({countersHeader, c.line,
                       "counter name \"" + c.value + "\" is mapped by both " + it->second->ident +
                           " and " + c.ident + " (report names must be unique)"});
    }
  }

  const std::vector<SourceFile> sources = loadSources(root, diags);
  for (const auto& c : counters) {
    if (docs.find(c.value) == std::string::npos) {
      diags.push_back({countersHeader, c.line,
                       "counter " + c.ident + " (\"" + c.value +
                           "\") is not documented in docs/OBSERVABILITY.md"});
    }
    bool referenced = false;
    for (const auto& f : sources) {
      if (f.relPath == countersHeader) continue;
      for (const auto& l : f.lines) {
        if (l.find(c.ident) != std::string::npos) {
          referenced = true;
          break;
        }
      }
      if (referenced) break;
    }
    if (!referenced) {
      diags.push_back({countersHeader, c.line,
                       "counter " + c.ident + " (\"" + c.value +
                           "\") is never referenced outside counters.h (dead counter; wire it "
                           "up or remove it)"});
    }
  }
  return diags;
}

std::vector<Diagnostic> checkFormats(const fs::path& root) {
  std::vector<Diagnostic> diags;
  const std::string header = "src/compress/block_format.h";
  std::vector<std::string> lines;
  if (!readLines(root, header, lines, diags)) return diags;

  // The authoritative constants.
  static const std::regex magicRe(
      R"(kBlockFrameMagic\[4\]\s*=\s*\{'(\w)',\s*'(\w)',\s*'(\w)',\s*'(\w)'\})");
  static const std::regex versionRe(R"(kBlockFrameVersion\s*=\s*(\d+))");
  std::string magic;
  int version = -1;
  int magicLine = 0;
  int versionLine = 0;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (magic.empty() && std::regex_search(lines[i], m, magicRe)) {
      magic = m[1].str() + m[2].str() + m[3].str() + m[4].str();
      magicLine = static_cast<int>(i + 1);
    }
    if (version < 0 && std::regex_search(lines[i], m, versionRe)) {
      version = std::stoi(m[1].str());
      versionLine = static_cast<int>(i + 1);
    }
  }
  if (magic.empty()) {
    diags.push_back({header, 0, "kBlockFrameMagic not found; grammar check cannot run"});
    return diags;
  }
  if (version < 0) {
    diags.push_back({header, 0, "kBlockFrameVersion not found; grammar check cannot run"});
    return diags;
  }
  const std::string expected = "\"" + magic + "\" u8(version=" + std::to_string(version) + ")";

  // Every grammar line mentioning the container — in docs/FORMATS.md and in
  // the header's own file comment — must agree with the constants.
  static const std::regex grammarRe(R"(("[A-Z0-9]{4}")\s+u8\(version=(\d+)\))");
  const auto checkFile = [&](const std::string& relPath, const std::vector<std::string>& fileLines) {
    int matches = 0;
    for (std::size_t i = 0; i < fileLines.size(); ++i) {
      std::smatch m;
      if (!std::regex_search(fileLines[i], m, grammarRe)) continue;
      ++matches;
      const std::string found = m[1].str() + " u8(version=" + m[2].str() + ")";
      if (found != expected) {
        diags.push_back(
            {relPath, static_cast<int>(i + 1),
             "stream grammar says " + found + " but " + header + ":" +
                 std::to_string(m[1].str() != "\"" + magic + "\"" ? magicLine : versionLine) +
                 " defines " + expected});
      }
    }
    if (matches == 0) {
      diags.push_back({relPath, 0,
                       "no `\"MAGC\" u8(version=N)` grammar line found; the SBF1 container must "
                       "stay documented here"});
    }
  };

  checkFile(header, lines);
  std::vector<std::string> docLines;
  if (!readLines(root, "docs/FORMATS.md", docLines, diags)) return diags;
  checkFile("docs/FORMATS.md", docLines);

  // SNF1 frame types, in both directions: every net::FrameType enumerator
  // has a row carrying its value in the doc's frame-type table, and every
  // row names an enumerator. Trees without the transport layer skip this.
  const std::string frameHeader = "src/net/frame.h";
  if (!fs::exists(root / frameHeader)) return diags;
  std::vector<std::string> frameLines;
  if (!readLines(root, frameHeader, frameLines, diags)) return diags;
  struct FrameTypeEntry {
    std::string name;
    std::string value;
    int line = 0;
  };
  static const std::regex enumeratorRe(R"(^\s*(k\w+)\s*=\s*(\d+)\b)");
  std::vector<FrameTypeEntry> types;
  bool inEnum = false;
  for (std::size_t i = 0; i < frameLines.size(); ++i) {
    if (frameLines[i].find("enum class FrameType") != std::string::npos) {
      inEnum = true;
      continue;
    }
    if (!inEnum) continue;
    if (frameLines[i].find("};") != std::string::npos) break;
    std::smatch m;
    if (std::regex_search(frameLines[i], m, enumeratorRe)) {
      types.push_back({m[1].str(), m[2].str(), static_cast<int>(i + 1)});
    }
  }
  if (types.empty()) {
    diags.push_back({frameHeader, 0,
                     "no FrameType enumerators parsed; declaration syntax changed under the "
                     "linter?"});
    return diags;
  }
  static const std::regex rowRe(R"(^\|\s*`(\w+)`\s*\|\s*(\d+)\s*\|)");
  std::map<std::string, FrameTypeEntry> rows;  // enumerator name -> documented value + row line
  bool inTable = false;
  for (std::size_t i = 0; i < docLines.size(); ++i) {
    const std::string& line = docLines[i];
    if (line.rfind("| Frame type", 0) == 0) {
      inTable = true;
      continue;
    }
    if (!inTable) continue;
    if (line.empty() || line[0] != '|') {
      inTable = false;
      continue;
    }
    std::smatch m;
    if (!std::regex_search(line, m, rowRe)) continue;  // the |---| separator
    const FrameTypeEntry row{m[1].str(), m[2].str(), static_cast<int>(i + 1)};
    const bool declared =
        std::any_of(types.begin(), types.end(),
                    [&row](const FrameTypeEntry& t) { return t.name == row.name; });
    if (!declared) {
      diags.push_back({"docs/FORMATS.md", row.line,
                       "frame-type row `" + row.name + "` names no FrameType enumerator in " +
                           frameHeader});
    }
    rows.emplace(row.name, row);
  }
  for (const FrameTypeEntry& t : types) {
    const auto it = rows.find(t.name);
    if (it == rows.end()) {
      diags.push_back({frameHeader, t.line,
                       "FrameType::" + t.name + " (= " + t.value +
                           ") has no row in docs/FORMATS.md's SNF1 frame-type table"});
    } else if (it->second.value != t.value) {
      diags.push_back({"docs/FORMATS.md", it->second.line,
                       "frame-type row `" + t.name + "` says " + it->second.value + " but " +
                           frameHeader + ":" + std::to_string(t.line) + " defines " + t.value});
    }
  }
  return diags;
}

std::vector<Diagnostic> checkSpans(const fs::path& root) {
  std::vector<Diagnostic> diags;
  const std::string docPath = "docs/OBSERVABILITY.md";
  std::vector<std::string> docLines;
  if (!readLines(root, docPath, docLines, diags)) return diags;
  const std::string docs = joinLines(docLines);
  const std::vector<SourceFile> sources = loadSources(root, diags);

  // Instrumentation sites: `ScopedSpan span("name", ...)` (optionally through
  // a named variable). The obs/ implementation files declare the class
  // itself, so they are excluded.
  static const std::regex spanRe(R"re(ScopedSpan(?:\s+\w+)?\s*\(\s*"([^"]+)")re");
  std::map<std::string, bool> emitted;
  for (const auto& f : sources) {
    if (f.relPath == "src/obs/trace.h" || f.relPath == "src/obs/trace.cc") continue;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      std::smatch m;
      std::string rest = f.lines[i];
      while (std::regex_search(rest, m, spanRe)) {
        const std::string name = m[1].str();
        emitted[name] = true;
        if (docs.find("`" + name + "`") == std::string::npos) {
          diags.push_back({f.relPath, static_cast<int>(i + 1),
                           "span \"" + name +
                               "\" is not documented in docs/OBSERVABILITY.md's span taxonomy"});
        }
        rest = m.suffix();
      }
    }
  }

  // The reverse direction: every span named in the taxonomy table (the table
  // whose header starts `| category | span |`) must be opened by a ScopedSpan
  // literal under src/, so a deleted span cannot leave its row behind. A row
  // may name several spans in its span cell (`a` / `b`); each is checked.
  for (const TableName& row : tableCellNames(docLines, "| category | span |", 1)) {
    if (emitted.count(row.name) == 0) {
      diags.push_back({docPath, row.line,
                       "span taxonomy row `" + row.name +
                           "` names no ScopedSpan under src/ (remove the row together with its "
                           "span)"});
    }
  }
  return diags;
}

std::vector<Diagnostic> checkFaultSites(const fs::path& root) {
  std::vector<Diagnostic> diags;
  const std::string header = "src/testing/fault_injector.h";
  std::vector<std::string> lines;
  if (!readLines(root, header, lines, diags)) return diags;
  const std::string docs = readAll(root, "docs/FAULTS.md", diags);
  if (docs.empty()) return diags;

  const auto checkHeader = [&](const std::string& relPath,
                               const std::vector<std::string>& headerLines) {
    const std::vector<NamedConstant> sites = parseStringConstants(headerLines);
    if (sites.empty()) {
      diags.push_back({relPath, 0,
                       "no injection-site constants parsed; declaration syntax changed under the "
                       "linter?"});
      return;
    }
    for (const auto& s : sites) {
      if (docs.find(s.value) == std::string::npos) {
        diags.push_back({relPath, s.line,
                         "injection site " + s.ident + " (\"" + s.value +
                             "\") is not documented in docs/FAULTS.md"});
      }
    }
  };
  checkHeader(header, lines);

  // The transport layer declares its own sites (net.connect / net.frame.* /
  // net.fetch); same contract, same doc. Optional so fixture trees without a
  // net/ layer still lint.
  const std::string netHeader = "src/net/socket.h";
  if (fs::exists(root / netHeader)) {
    std::vector<std::string> netLines;
    if (readLines(root, netHeader, netLines, diags)) checkHeader(netHeader, netLines);
  }
  return diags;
}

std::vector<Diagnostic> checkSimdKernels(const fs::path& root) {
  std::vector<Diagnostic> diags;
  const std::string docPath = "docs/PERFORMANCE.md";
  std::vector<std::string> docLines;
  if (!readLines(root, docPath, docLines, diags)) return diags;
  const std::string docs = joinLines(docLines);
  const std::vector<SourceFile> sources = loadSources(root, diags);

  // Registration sites: SCISHUFFLE_SIMD_KERNEL(kernel, scalarRef). The macro
  // definition itself and comments mentioning the macro are not
  // registrations.
  static const std::regex kernelRe(R"(SCISHUFFLE_SIMD_KERNEL\(\s*(\w+)\s*,\s*(\w+)\s*\))");
  std::map<std::string, bool> registered;
  for (const auto& f : sources) {
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      const std::string& line = f.lines[i];
      const std::size_t firstNonSpace = line.find_first_not_of(" \t");
      if (firstNonSpace == std::string::npos) continue;
      if (line.compare(firstNonSpace, 2, "//") == 0) continue;
      if (line.find("#define") != std::string::npos) continue;
      std::smatch m;
      if (!std::regex_search(line, m, kernelRe)) continue;
      const std::string kernel = m[1].str();
      registered[kernel] = true;
      const std::string scalar = m[2].str();

      // The scalar reference must live in the same file as the kernel it
      // vouches for (the equivalence property is meaningless otherwise).
      bool scalarDefined = false;
      for (std::size_t j = 0; j < f.lines.size(); ++j) {
        if (j != i && f.lines[j].find(scalar) != std::string::npos) {
          scalarDefined = true;
          break;
        }
      }
      if (!scalarDefined) {
        diags.push_back({f.relPath, static_cast<int>(i + 1),
                         "SIMD kernel " + kernel + " registers scalar reference " + scalar +
                             ", which does not appear elsewhere in this file (the reference "
                             "must be defined next to the kernel)"});
      }
      if (docs.find("`" + kernel + "`") == std::string::npos) {
        diags.push_back({f.relPath, static_cast<int>(i + 1),
                         "SIMD kernel " + kernel +
                             " is not documented in docs/PERFORMANCE.md's kernel table"});
      }
    }
  }
  if (registered.empty()) {
    diags.push_back({"src/io/simd.h", 0,
                     "no SCISHUFFLE_SIMD_KERNEL registrations found; the kernel layer must "
                     "register every dispatched kernel with its scalar reference"});
  }

  // The reverse direction: every row of the doc's kernel table (the table
  // whose header starts `| kernel |`) must name a registered kernel, so a
  // deleted kernel cannot leave its row behind.
  for (const TableName& row : tableCellNames(docLines, "| kernel |", 0)) {
    if (!registered.count(row.name)) {
      diags.push_back({docPath, row.line,
                       "kernel table row `" + row.name +
                           "` has no SCISHUFFLE_SIMD_KERNEL registration under src/ (remove the "
                           "row together with its kernel)"});
    }
  }
  return diags;
}

std::vector<Diagnostic> checkGauges(const fs::path& root) {
  std::vector<Diagnostic> diags;
  const std::string header = "src/obs/sampler.h";
  const std::string docPath = "docs/OBSERVABILITY.md";
  std::vector<std::string> lines;
  if (!readLines(root, header, lines, diags)) return diags;
  std::vector<std::string> docLines;
  if (!readLines(root, docPath, docLines, diags)) return diags;
  const std::string docs = joinLines(docLines);

  // Gauge names and structured-event names share one contract (both are wire
  // names in the metrics.v1 stream), so both namespaces lint together.
  const std::vector<NamedConstant> names = parseStringConstants(lines);
  if (names.empty()) {
    diags.push_back({header, 0,
                     "no gauge/event constants parsed; declaration syntax changed under the "
                     "linter?"});
    return diags;
  }

  std::map<std::string, const NamedConstant*> byValue;
  for (const auto& c : names) {
    const auto [it, inserted] = byValue.emplace(c.value, &c);
    if (!inserted) {
      diags.push_back({header, c.line,
                       "telemetry name \"" + c.value + "\" is mapped by both " +
                           it->second->ident + " and " + c.ident +
                           " (wire names must be unique)"});
    }
  }

  const std::vector<SourceFile> sources = loadSources(root, diags);
  for (const auto& c : names) {
    if (docs.find("`" + c.value + "`") == std::string::npos) {
      diags.push_back({header, c.line,
                       "telemetry name " + c.ident + " (\"" + c.value +
                           "\") is not documented in docs/OBSERVABILITY.md's gauge/event "
                           "tables"});
    }
    // Referenced outside the declaring subsystem: the sampler injecting its
    // own gauge does not keep the name alive — a component (or the stat
    // renderer) must consume it.
    bool referenced = false;
    for (const auto& f : sources) {
      if (f.relPath == header || f.relPath == "src/obs/sampler.cc") continue;
      for (const auto& l : f.lines) {
        if (l.find(c.ident) != std::string::npos) {
          referenced = true;
          break;
        }
      }
      if (referenced) break;
    }
    if (!referenced) {
      diags.push_back({header, c.line,
                       "telemetry name " + c.ident + " (\"" + c.value +
                           "\") is never referenced outside the sampler subsystem (dead gauge; "
                           "register a source or remove it)"});
    }
  }

  // The reverse direction: every name in the first cell of the gauge and
  // event tables must be the value of a constant here, so a deleted gauge
  // cannot leave its row behind.
  for (const char* table : {"| gauge |", "| event |"}) {
    for (const TableName& row : tableCellNames(docLines, table, 0)) {
      if (!byValue.count(row.name)) {
        diags.push_back({docPath, row.line,
                         "gauge/event table row `" + row.name + "` names no constant in " +
                             header + " (remove the row together with its gauge or event)"});
      }
    }
  }
  return diags;
}

namespace {

/// Files allowed to touch raw std synchronization primitives: the annotated
/// wrappers themselves plus the lock-order checker and the model-check
/// scheduler they are built on (which must not recurse into themselves).
bool isSyncLayerFile(const std::string& relPath) {
  static const char* const kAllow[] = {
      "src/io/annotations.h",  "src/io/lock_order.h",    "src/io/lock_order.cc",
      "src/io/model_sched.h",  "src/io/model_sched.cc",  "src/io/thread.h",
      "src/testing/schedule.h", "src/testing/schedule.cc"};
  for (const char* a : kAllow) {
    if (relPath == a) return true;
  }
  return false;
}

/// Code text of a line: everything before any // comment.
std::string stripLineComment(const std::string& line) {
  const std::size_t pos = line.find("//");
  return pos == std::string::npos ? line : line.substr(0, pos);
}

struct LockLevelDecl {
  std::string ident;  // kFooBar
  int rank = 0;
  std::string name;  // "subsystem.lock"
  int line = 0;
};

std::vector<LockLevelDecl> parseLockLevels(const std::vector<std::string>& lines) {
  static const std::regex re(
      R"re(inline\s+constexpr\s+LockLevel\s+(k\w+)\{(\d+),\s*"([^"]+)"\};)re");
  std::vector<LockLevelDecl> out;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    std::smatch m;
    if (std::regex_search(lines[i], m, re)) {
      out.push_back({m[1].str(), std::stoi(m[2].str()), m[3].str(), static_cast<int>(i + 1)});
    }
  }
  return out;
}

/// True when the wait at lines[waitIdx] (receiver match ending at `col`) sits
/// inside a while/for/do loop: either the same statement (`while (!x)
/// cv.wait(lock);`) or any enclosing brace whose opener is a loop header.
/// Walks every enclosing level, so `if (...) cv.wait_for(...)` inside a
/// `for (;;)` poll loop — a legal shape — is accepted.
bool waitIsInsideLoop(const std::vector<std::string>& lines, std::size_t waitIdx,
                      std::size_t col) {
  static const std::regex loopRe(R"re((^|[^\w])(while|for)\s*\(|(^|[^\w])do\s*\{)re");
  const auto hasLoop = [](const std::string& text) {
    return std::regex_search(text, loopRe);
  };
  if (hasLoop(stripLineComment(lines[waitIdx]).substr(0, col))) return true;
  int depth = 0;
  for (std::size_t i = waitIdx + 1; i-- > 0;) {
    std::string text = stripLineComment(lines[i]);
    if (i == waitIdx) text = text.substr(0, col);
    for (std::size_t j = text.size(); j-- > 0;) {
      if (text[j] == '}') {
        ++depth;
      } else if (text[j] == '{') {
        if (depth > 0) {
          --depth;
          continue;
        }
        // Unmatched opener: an enclosing scope. Loop headers may span lines
        // (`while (cond &&\n  more) {`), so include a little leading context.
        std::string header = text.substr(0, j);
        std::size_t pulled = 0;
        for (std::size_t k = i; k-- > 0 && pulled < 3; ++pulled) {
          header = stripLineComment(lines[k]) + " " + header;
        }
        if (hasLoop(header)) return true;
      }
    }
  }
  return false;
}

}  // namespace

std::vector<Diagnostic> checkSyncPrimitives(const fs::path& root) {
  std::vector<Diagnostic> diags;
  static const std::regex bannedRe(
      R"re(std::(recursive_mutex|timed_mutex|shared_mutex|mutex|lock_guard|scoped_lock|unique_lock|condition_variable_any|condition_variable)\b)re");
  for (const SourceFile& f : loadSources(root, diags)) {
    if (isSyncLayerFile(f.relPath)) continue;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      std::smatch m;
      const std::string code = stripLineComment(f.lines[i]);
      if (std::regex_search(code, m, bannedRe)) {
        diags.push_back(
            {f.relPath, static_cast<int>(i + 1),
             "raw std::" + m[1].str() +
                 " outside io/annotations.h; use the annotated Mutex/MutexLock/CondVar so the "
                 "lock-order checker, thread-safety analysis and model-check scheduler see it"});
      }
    }
  }
  return diags;
}

std::vector<Diagnostic> checkLockHierarchy(const fs::path& root) {
  std::vector<Diagnostic> diags;
  const std::string header = "src/io/lock_order.h";
  std::vector<std::string> lines;
  if (!readLines(root, header, lines, diags)) return diags;
  const std::vector<LockLevelDecl> levels = parseLockLevels(lines);
  const std::string docPath = "docs/LOCK_ORDER.md";
  std::vector<std::string> docLines;
  readLines(root, docPath, docLines, diags);
  const std::string docs = joinLines(docLines);

  std::map<std::string, std::string> rankOwner;  // rank (as text) -> ident
  std::map<std::string, std::string> nameOwner;
  std::map<std::string, bool> known;  // ident -> declared
  for (const LockLevelDecl& l : levels) {
    known[l.ident] = true;
    const std::string rankText = std::to_string(l.rank);
    if (const auto [it, fresh] = rankOwner.emplace(rankText, l.ident); !fresh) {
      diags.push_back({header, l.line,
                       "lock rank " + rankText + " assigned to both " + it->second + " and " +
                           l.ident + "; ranks must be a total order"});
    }
    if (const auto [it, fresh] = nameOwner.emplace(l.name, l.ident); !fresh) {
      diags.push_back({header, l.line,
                       "lock name \"" + l.name + "\" declared by both " + it->second + " and " +
                           l.ident});
    }
    if (!docs.empty() && docs.find(l.name) == std::string::npos) {
      diags.push_back({header, l.line,
                       "lock level " + l.ident + " (\"" + l.name +
                           "\") is not documented in docs/LOCK_ORDER.md; every level needs a row "
                           "in the hierarchy table"});
    }
  }
  // The reverse direction: every Name in the hierarchy table is declared.
  for (const TableName& row : tableCellNames(docLines, "| Rank | Name |", 1)) {
    if (!nameOwner.count(row.name)) {
      diags.push_back({docPath, row.line,
                       "lock hierarchy row `" + row.name + "` names no level declared in " +
                           header + " (remove the row together with its lock)"});
    }
  }

  // Every Mutex member/variable in src/ must name a level from the
  // hierarchy — an unranked production mutex is invisible to the checker.
  static const std::regex declRe(R"re((^|[^:\w<])Mutex\s+(\w+)\s*([;{]))re");
  static const std::regex rankRefRe(R"re(lock_rank::(k\w+))re");
  for (const SourceFile& f : loadSources(root, diags)) {
    if (isSyncLayerFile(f.relPath)) continue;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      const std::string code = stripLineComment(f.lines[i]);
      std::smatch m;
      if (!std::regex_search(code, m, declRe)) continue;
      if (m[3].str() == ";") {
        diags.push_back({f.relPath, static_cast<int>(i + 1),
                         "Mutex " + m[2].str() +
                             " has no declared lock level; construct it with a lock_rank:: "
                             "constant from src/io/lock_order.h (docs/LOCK_ORDER.md)"});
        continue;
      }
      std::smatch r;
      if (!std::regex_search(code, r, rankRefRe)) {
        diags.push_back({f.relPath, static_cast<int>(i + 1),
                         "Mutex " + m[2].str() +
                             " is initialized without a lock_rank:: level from "
                             "src/io/lock_order.h"});
      } else if (!known.count(r[1].str())) {
        diags.push_back({f.relPath, static_cast<int>(i + 1),
                         "Mutex " + m[2].str() + " names lock_rank::" + r[1].str() +
                             ", which is not declared in src/io/lock_order.h"});
      }
    }
  }
  return diags;
}

std::vector<Diagnostic> checkCondVarWaits(const fs::path& root) {
  std::vector<Diagnostic> diags;
  const std::vector<SourceFile> sources = loadSources(root, diags);

  // Pass 1: every identifier declared as a CondVar anywhere under src/.
  // Receiver names are matched globally — cheap, and ThreadPool::wait /
  // RetryBackoff::wait style methods never collide with member cv names.
  static const std::regex declRe(R"re((^|[^\w])CondVar\s+(\w+)\s*;)re");
  std::map<std::string, bool> condVars;
  for (const SourceFile& f : sources) {
    for (const std::string& line : f.lines) {
      std::smatch m;
      const std::string code = stripLineComment(line);
      if (std::regex_search(code, m, declRe)) condVars[m[2].str()] = true;
    }
  }

  // Pass 2: every wait on one of those names must sit in a re-check loop —
  // a bare `cv.wait(lock)` after a one-shot predicate check is the classic
  // lost-wakeup / spurious-wakeup bug (the model checker finds the former;
  // this check refuses both shapes before any schedule runs).
  static const std::regex waitRe(R"re((\w+)\.wait(_for)?\s*\()re");
  for (const SourceFile& f : sources) {
    if (isSyncLayerFile(f.relPath)) continue;
    for (std::size_t i = 0; i < f.lines.size(); ++i) {
      const std::string code = stripLineComment(f.lines[i]);
      for (auto it = std::sregex_iterator(code.begin(), code.end(), waitRe);
           it != std::sregex_iterator(); ++it) {
        const std::smatch& m = *it;
        if (!condVars.count(m[1].str())) continue;
        if (!waitIsInsideLoop(f.lines, i, static_cast<std::size_t>(m.position(0)))) {
          diags.push_back({f.relPath, static_cast<int>(i + 1),
                           "CondVar " + m[1].str() + ".wait" + m[2].str() +
                               " is not inside a while/for re-check loop; wrap it as `while "
                               "(!cond) wait(...)` (spurious wakeups and lost notifies otherwise "
                               "pass silently)"});
        }
      }
    }
  }
  return diags;
}

int runAllChecks(const fs::path& root, std::ostream& os) {
  std::vector<Diagnostic> all;
  for (const auto& check :
       {checkCounters, checkFormats, checkSpans, checkFaultSites, checkSimdKernels,
        checkGauges, checkSyncPrimitives, checkLockHierarchy, checkCondVarWaits}) {
    auto diags = check(root);
    all.insert(all.end(), diags.begin(), diags.end());
  }
  for (const auto& d : all) os << formatDiagnostic(d) << "\n";
  return static_cast<int>(all.size());
}

}  // namespace scishuffle::lint
