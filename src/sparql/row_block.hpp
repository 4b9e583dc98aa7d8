// Flat row blocks: the unit the streaming cursor hands from the producer
// thread to the consumer, and the unit the result encoders consume.
//
// A RowBlock stores n rows of one fixed width as n x width TermIds in one
// vector. Clear() keeps the storage, so a block that circulates between the
// producer and the consumer (util::Channel recycles it) stops allocating
// once it has grown to its working size.
#pragma once

#include <cstddef>
#include <vector>

#include "sparql/solver.hpp"

namespace turbo::sparql {

/// A read-only run of flat rows: `rows` rows of `width` cells each. Points
/// into storage someone else owns (a RowBlock, or one Row).
struct RowRange {
  const TermId* cells = nullptr;
  size_t rows = 0;
  size_t width = 0;

  const TermId* row(size_t i) const { return cells + i * width; }
  /// Rows [begin, begin + n) of this run.
  RowRange Sub(size_t begin, size_t n) const { return {row(begin), n, width}; }
  /// A single Row viewed as a one-row run.
  static RowRange Of(const Row& r) { return {r.data(), 1, r.size()}; }
};

class RowBlock {
 public:
  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t width() const { return width_; }
  const TermId* row(size_t i) const { return cells_.data() + i * width_; }
  /// Rows [first, size()) as a run.
  RowRange Tail(size_t first) const { return {row(first), rows_ - first, width_}; }

  /// Appends one row; the first row of an empty block fixes the width, and
  /// every later row must have it (one execution delivers one projection).
  void Append(const Row& r) {
    if (rows_ == 0) width_ = r.size();
    cells_.insert(cells_.end(), r.begin(), r.end());
    ++rows_;
  }
  /// Appends a run of rows; an empty block takes the run's width.
  void Append(RowRange run) {
    if (run.rows == 0) return;
    if (rows_ == 0) width_ = run.width;
    cells_.insert(cells_.end(), run.cells, run.cells + run.rows * run.width);
    rows_ += run.rows;
  }
  /// Empties the block, keeping its storage.
  void Clear() {
    cells_.clear();
    rows_ = 0;
  }

 private:
  std::vector<TermId> cells_;
  size_t rows_ = 0;  ///< counted separately: zero-width rows occupy no cells
  size_t width_ = 0;
};

}  // namespace turbo::sparql
