#include "server/result_encoder.hpp"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>

#include "rdf/term.hpp"

namespace turbo::server {
namespace {

using sparql::StopCause;

class JsonEncoder final : public ResultEncoder {
 public:
  const char* content_type() const override {
    return "application/sparql-results+json";
  }

  void AppendRows(const sparql::RowRange& rows, const rdf::Dictionary& dict,
                  const sparql::LocalVocab* local, std::string* out) override {
    const size_t width = std::min(rows.width, prefix_.size());
    for (size_t r = 0; r < rows.rows; ++r) {
      if (first_)
        first_ = false;
      else
        out->append(",\n", 2);
      out->push_back('{');
      const TermId* row = rows.row(r);
      bool any = false;
      for (size_t i = 0; i < width; ++i) {
        if (row[i] == kInvalidId) continue;  // unbound: the var is omitted
        const rdf::Term* t = sparql::ResolveTerm(dict, local, row[i]);
        if (!t) continue;
        if (any) out->push_back(',');
        any = true;
        out->append(prefix_[i]);
        switch (t->kind) {
          case rdf::TermKind::kIri: out->append("uri\",\"value\":\""); break;
          case rdf::TermKind::kLiteral: out->append("literal\",\"value\":\""); break;
          case rdf::TermKind::kBlank: out->append("bnode\",\"value\":\""); break;
        }
        AppendJsonEscaped(t->lexical, out);
        out->push_back('"');
        if (!t->datatype.empty()) {
          out->append(",\"datatype\":\"");
          AppendJsonEscaped(t->datatype, out);
          out->push_back('"');
        }
        if (!t->lang.empty()) {
          out->append(",\"xml:lang\":\"");
          AppendJsonEscaped(t->lang, out);
          out->push_back('"');
        }
        out->push_back('}');
      }
      out->push_back('}');
    }
  }

  std::string Footer(StopCause cause) override {
    std::string out = "\n]}";
    if (cause != StopCause::kNone)
      out += ",\"stopped\":\"" + std::string(sparql::ToString(cause)) + '"';
    out += "}\n";
    return out;
  }

 protected:
  std::string SetColumns(const std::vector<std::string>& vars) override {
    // Each binding opens with `"<var>":{"type":"`; escape it once here.
    prefix_.assign(vars.size(), "\"");
    std::string out = "{\"head\":{\"vars\":[";
    for (size_t i = 0; i < vars.size(); ++i) {
      AppendJsonEscaped(vars[i], &prefix_[i]);
      prefix_[i] += '"';
      if (i) out += ',';
      out += prefix_[i];
      prefix_[i] += ":{\"type\":\"";
    }
    out += "]},\"results\":{\"bindings\":[\n";
    return out;
  }

 private:
  std::vector<std::string> prefix_;
  bool first_ = true;
};

class TsvEncoder final : public ResultEncoder {
 public:
  const char* content_type() const override { return "text/tab-separated-values"; }

  void AppendRows(const sparql::RowRange& rows, const rdf::Dictionary& dict,
                  const sparql::LocalVocab* local, std::string* out) override {
    const size_t width = std::min(rows.width, columns_);
    for (size_t r = 0; r < rows.rows; ++r) {
      const TermId* row = rows.row(r);
      for (size_t i = 0; i < width; ++i) {
        if (i) out->push_back('\t');
        if (row[i] == kInvalidId) continue;  // unbound: empty field
        if (const rdf::Term* t = sparql::ResolveTerm(dict, local, row[i]))
          t->AppendNTriples(out);
      }
      out->push_back('\n');
    }
  }

  std::string Footer(StopCause cause) override {
    if (cause == StopCause::kNone) return {};
    return std::string("# stopped: ") + sparql::ToString(cause) + '\n';
  }

 protected:
  std::string SetColumns(const std::vector<std::string>& vars) override {
    columns_ = vars.size();
    std::string out;
    for (size_t i = 0; i < vars.size(); ++i) {
      if (i) out += '\t';
      out += '?' + vars[i];
    }
    out += '\n';
    return out;
  }

 private:
  size_t columns_ = 0;
};

}  // namespace

std::string ResultEncoder::Header(const std::vector<std::string>& vars) {
  columns_ = vars;
  return SetColumns(vars);
}

std::string ResultEncoder::EncodeRow(const std::vector<std::string>& vars,
                                     const sparql::Row& row, const rdf::Dictionary& dict,
                                     const sparql::LocalVocab* local) {
  if (vars != columns_) Header(vars);
  row_.clear();
  AppendRows(sparql::RowRange::Of(row), dict, local, &row_);
  return row_;
}

namespace {

/// True if any byte of `w` is below 0x20, '"' or '\\' — the bytes JSON
/// strings must escape. Word-at-a-time (SWAR) tests, exact for presence.
bool NeedsJsonEscape(uint64_t w) {
  constexpr uint64_t kOnes = 0x0101010101010101ull;
  constexpr uint64_t kHigh = 0x8080808080808080ull;
  auto has_zero = [](uint64_t v) { return (v - kOnes) & ~v & kHigh; };
  const uint64_t below_space = (w - kOnes * 0x20) & ~w & kHigh;
  return below_space | has_zero(w ^ (kOnes * '"')) | has_zero(w ^ (kOnes * '\\'));
}

}  // namespace

void AppendJsonEscaped(std::string_view s, std::string* out) {
  size_t run = 0;  // start of the pending unescaped run
  size_t i = 0;
  // Skip clean 8-byte words whole; IRIs and most literals have no escapes.
  for (uint64_t w; i + 8 <= s.size(); i += 8) {
    std::memcpy(&w, s.data() + i, 8);
    if (NeedsJsonEscape(w)) break;
  }
  for (; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default: {
        char buf[8];
        int n = std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out->append(buf, static_cast<size_t>(n));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  AppendJsonEscaped(s, &out);
  return out;
}

std::unique_ptr<ResultEncoder> MakeResultEncoder(const std::string& format) {
  if (format == "json") return std::make_unique<JsonEncoder>();
  if (format == "tsv") return std::make_unique<TsvEncoder>();
  return nullptr;
}

}  // namespace turbo::server
