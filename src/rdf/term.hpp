// RDF term model: IRIs, literals (with optional datatype / language tag),
// and blank nodes.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace turbo::rdf {

/// Kind of an RDF term.
enum class TermKind : uint8_t { kIri, kLiteral, kBlank };

/// One RDF term. Literals carry lexical form plus optional datatype IRI and
/// language tag (at most one of the two is set).
struct Term {
  TermKind kind = TermKind::kIri;
  std::string lexical;   ///< IRI string, literal lexical form, or blank label.
  std::string datatype;  ///< Datatype IRI for typed literals; empty otherwise.
  std::string lang;      ///< Language tag for lang literals; empty otherwise.

  static Term Iri(std::string iri) { return {TermKind::kIri, std::move(iri), {}, {}}; }
  static Term Literal(std::string lex) { return {TermKind::kLiteral, std::move(lex), {}, {}}; }
  static Term TypedLiteral(std::string lex, std::string dt) {
    return {TermKind::kLiteral, std::move(lex), std::move(dt), {}};
  }
  static Term LangLiteral(std::string lex, std::string language) {
    return {TermKind::kLiteral, std::move(lex), {}, std::move(language)};
  }
  static Term Blank(std::string label) { return {TermKind::kBlank, std::move(label), {}, {}}; }

  bool is_iri() const { return kind == TermKind::kIri; }
  bool is_literal() const { return kind == TermKind::kLiteral; }
  bool is_blank() const { return kind == TermKind::kBlank; }

  bool operator==(const Term& o) const {
    return kind == o.kind && lexical == o.lexical && datatype == o.datatype && lang == o.lang;
  }

  /// Canonical N-Triples serialization; also the dictionary key.
  std::string ToNTriples() const;
  /// Appends ToNTriples() to `*out`.
  void AppendNTriples(std::string* out) const;

  /// Numeric value if this is a literal with a numeric-looking lexical form
  /// (integer, decimal, double — datatype is not required, matching the
  /// permissive comparisons the BSBM queries rely on).
  std::optional<double> NumericValue() const;
};

/// Escapes a string per N-Triples literal rules.
std::string EscapeNTriples(std::string_view s);
/// Reverses EscapeNTriples.
std::string UnescapeNTriples(std::string_view s);

}  // namespace turbo::rdf
