#include "model_rules.hpp"

#include <algorithm>
#include <map>
#include <string>

namespace asfsim_lint {
namespace {

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// Role suffixes: where each model file lives relative to its tree root.
constexpr const char* kCountersSuffix = "stats/counters.hpp";
constexpr const char* kSerializeSuffix = "stats/serialize.cpp";

struct ModelGroup {
  const ParsedFile* counters = nullptr;   // stats/counters.hpp
  const ParsedFile* serialize = nullptr;  // stats/serialize.cpp
};

/// Does `name` occur in [begin, end) of the file's tokens — as an exact
/// identifier, or inside a string literal (serializers often spell field
/// names as the key string only)?
bool name_in_range(const LexedFile& f, std::size_t begin, std::size_t end,
                   const std::string& name) {
  for (std::size_t k = begin; k < end && k < f.tokens.size(); ++k) {
    const Token& t = f.tokens[k];
    if (t.kind == TokKind::kIdent && t.text == name) return true;
    if (t.kind == TokKind::kString &&
        t.text.find(name) != std::string::npos) {
      return true;
    }
  }
  return false;
}

/// stats-blob-completeness: every Stats field in both serializer bodies.
void check_stats(const ParsedFile& counters, const ParsedFile& serialize,
                 std::vector<Diagnostic>& out) {
  const StructDecl* stats = counters.ast.find_struct("Stats");
  if (stats == nullptr) return;
  const FunctionDecl* ser = serialize.ast.find_function("serialize_stats");
  const FunctionDecl* de = serialize.ast.find_function("deserialize_stats");
  if (ser == nullptr || de == nullptr) return;
  for (const FieldDecl& f : stats->fields) {
    const bool in_ser =
        name_in_range(serialize.file, ser->body_open, ser->body_close + 1,
                      f.name);
    const bool in_de =
        name_in_range(serialize.file, de->body_open, de->body_close + 1,
                      f.name);
    if ((in_ser && in_de) || counters.file.suppressions.allows(
                                  kRuleStatsBlobCompleteness, f.line)) {
      continue;
    }
    const char* where = (!in_ser && !in_de) ? "serialize_stats and "
                                              "deserialize_stats"
                        : !in_ser           ? "serialize_stats"
                                            : "deserialize_stats";
    out.push_back(
        {counters.file.path, f.line, kRuleStatsBlobCompleteness,
         "Stats counter '" + f.name + "' is missing from " + where + " (" +
             serialize.file.path +
             ") — the stats blob round-trip silently drops it and every "
             "archived/cached result loses the value",
         "serialize it with put(out, \"" + f.name + "\", s." + f.name +
             ") and parse it back in deserialize_stats",
         {}});
  }
}

}  // namespace

std::vector<Diagnostic> check_model(const std::vector<ParsedFile>& files) {
  // Group role files by the path prefix before their role suffix, so
  // src/... and each fixture directory check internally.
  std::map<std::string, ModelGroup> groups;
  for (const ParsedFile& pf : files) {
    const std::string& p = pf.file.path;
    auto claim = [&](const char* suffix, const ParsedFile* ModelGroup::*slot) {
      if (!ends_with(p, suffix)) return;
      const std::string key = p.substr(0, p.size() - std::string(suffix).size());
      groups[key].*slot = &pf;
    };
    claim(kCountersSuffix, &ModelGroup::counters);
    claim(kSerializeSuffix, &ModelGroup::serialize);
  }

  std::vector<Diagnostic> out;
  for (const auto& [key, g] : groups) {
    if (g.counters != nullptr && g.serialize != nullptr) {
      check_stats(*g.counters, *g.serialize, out);
    }
  }
  return out;
}

}  // namespace asfsim_lint
