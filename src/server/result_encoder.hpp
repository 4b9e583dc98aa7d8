// Streamed SPARQL result encoders: Header, then rows appended block by
// block into a caller-owned buffer, then Footer — the server hands the
// buffer to the chunked response writer whenever it fills, so a result is
// encoded as the cursor delivers it, never materialized.
//
// Two formats: SPARQL 1.1 JSON results (application/sparql-results+json) and
// TSV (text/tab-separated-values). When the stream stops early (deadline,
// row budget, cancel) the footer carries an in-body marker — a "stopped"
// member in JSON, a "# stopped: <cause>" comment line in TSV — because the
// status line and headers are long gone by then.
//
// AppendRows is the encoding path: Header fixes the columns and escapes the
// per-column JSON prefixes once, and every row then appends into the one
// buffer with no temporary strings. EncodeRow is a thin wrapper over the
// same code for callers that want one row as its own string; its output is
// byte-identical to AppendRows over that row, so concatenated EncodeRow
// results equal one AppendRows over all of them (JSON rows after the first
// start with ",\n" either way).
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "rdf/dictionary.hpp"
#include "sparql/local_vocab.hpp"
#include "sparql/row_block.hpp"
#include "sparql/solver.hpp"

namespace turbo::server {

class ResultEncoder {
 public:
  virtual ~ResultEncoder() = default;

  virtual const char* content_type() const = 0;
  /// The result preamble; also fixes the columns AppendRows encodes.
  std::string Header(const std::vector<std::string>& vars);
  /// Appends every row of `rows` (cells in Header's column order) to `*out`.
  virtual void AppendRows(const sparql::RowRange& rows, const rdf::Dictionary& dict,
                          const sparql::LocalVocab* local, std::string* out) = 0;
  /// One row as its own string, encoded against `vars` (re-fixing the
  /// columns only when they differ from the current ones).
  std::string EncodeRow(const std::vector<std::string>& vars, const sparql::Row& row,
                        const rdf::Dictionary& dict, const sparql::LocalVocab* local);
  /// `cause` is kNone for a clean end of stream.
  virtual std::string Footer(sparql::StopCause cause) = 0;

 protected:
  /// Precomputes what the format derives from the column names and returns
  /// its header for them.
  virtual std::string SetColumns(const std::vector<std::string>& vars) = 0;

 private:
  std::vector<std::string> columns_;  ///< what SetColumns last saw
  std::string row_;                   ///< EncodeRow's reused scratch
};

/// `format` is "json" or "tsv"; anything else returns null.
std::unique_ptr<ResultEncoder> MakeResultEncoder(const std::string& format);

/// Escapes for a JSON string literal (no surrounding quotes).
std::string JsonEscape(const std::string& s);
/// Appends JsonEscape(s) to `*out`, copying unescaped runs whole.
void AppendJsonEscaped(std::string_view s, std::string* out);

}  // namespace turbo::server
