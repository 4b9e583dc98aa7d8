// The endpoint benchmark's pure parts: percentile and failure accounting,
// closed-loop due times, and the seeded input streams (point texts, bulk
// cycle, live update batches). Everything here is deterministic and free of
// sockets, so the self-tests in tests/selftest.cpp exercise it directly.
#pragma once

#include <chrono>
#include <cstdint>
#include <deque>
#include <string>
#include <utility>
#include <vector>

#include "rdf/dataset.hpp"
#include "util/rng.hpp"
#include "util/status.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

// ---------------------------------------------------------------------------
// Statistics.
// ---------------------------------------------------------------------------

/// A percentile is only reported when at least this many samples lie beyond
/// the one chosen; a run with fewer is flagged instead of trusted.
inline constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value = 0;
  size_t samples = 0;  ///< sample count it was taken over
  size_t beyond = 0;   ///< samples ranked above the chosen one
  bool valid() const { return beyond >= kMinBeyond; }
};

/// Nearest-rank q-quantile (0 < q < 1) of `v`.
Percentile PercentileOf(std::vector<double> v, double q);

/// Operations attempted and failed. A refused connection, a timeout, a
/// non-200 status and a wrong body all count as attempted and failed.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Ok() { ++attempted; }
  void Fail() {
    ++attempted;
    ++failed;
  }
  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
};

/// A closed-loop connection's request clock: the first request is due at
/// the start, each later one when the previous reply has been checked, and
/// a request's latency runs from its due time.
class ClosedLoopClock {
 public:
  explicit ClosedLoopClock(Clock::time_point start) : due_(start) {}

  Clock::time_point due() const { return due_; }

  /// Marks the current reply checked at `checked`; returns its latency in ms
  /// and makes the next request due at `checked`.
  double Complete(Clock::time_point checked) {
    double ms = std::chrono::duration<double, std::milli>(checked - due_).count();
    due_ = checked;
    return ms;
  }

 private:
  Clock::time_point due_;
};

/// Derives an independent stream seed (per connection, per purpose).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

/// In-memory spans of one thread: name, start, end, parent span and the
/// request they belong to. Written out once, when the benchmark ends.
class SpanLog {
 public:
  SpanLog(Clock::time_point origin, uint32_t thread) : origin_(origin), thread_(thread) {}

  /// Records a finished span; returns its id (for children's `parent`).
  int Add(const char* name, int parent, uint64_t request, Clock::time_point start,
          Clock::time_point end);
  /// Appends this log's spans as JSON objects, comma-separated.
  void AppendJson(std::string* out) const;

 private:
  struct Span {
    const char* name;
    int parent;
    uint64_t request;
    double start_us, end_us;
  };
  Clock::time_point origin_;
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// Milliseconds between two time points.
inline double Ms(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

/// Resident set size of this process in KiB (0 when unavailable).
uint64_t ResidentKb();

/// `v` as a JSON array.
std::string JsonNumbers(const std::vector<double>& v);

/// A flat JSON object built field by field (numbers keep all their digits).
class JsonObject {
 public:
  JsonObject& Num(const char* key, double v);
  JsonObject& Raw(const char* key, const std::string& json);
  JsonObject& Str(const char* key, const std::string& s);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---------------------------------------------------------------------------
// Inputs.
// ---------------------------------------------------------------------------

/// Constants drawn from the generated LUBM data, in dataset order. IRIs are
/// kept in N-Triples form (`<...>`), literals too (`"..."`).
struct Catalog {
  std::vector<std::string> universities;
  std::vector<std::string> departments;
  std::vector<std::string> grad_courses;
  std::vector<std::string> assistant_profs;
  std::vector<std::string> associate_profs;
  /// (faculty IRI, literal) for every ub:researchInterest triple — the base
  /// predicate no read template touches, which the live batches delete and
  /// re-insert.
  std::vector<std::pair<std::string, std::string>> interests;
};

Catalog CatalogFromDataset(const turbo::rdf::Dataset& ds);
turbo::util::Status WriteCatalog(const Catalog& c, const std::string& path);
turbo::util::Result<Catalog> ReadCatalog(const std::string& path);

/// One query text of a workload; `tmpl` is its LUBM query number (1..14).
struct QueryText {
  int tmpl = 0;
  std::string text;
};

/// The point-http pool, hottest rank first. The template at each rank is
/// fixed; the seed picks which constant fills it, so every seed has the same
/// template mix. Templates Q1, Q3, Q4, Q5, Q7, Q10, Q11, Q12, Q13.
std::vector<QueryText> PointPool(const Catalog& c, uint64_t seed);

/// The bulk-http texts (Q8, Q9, Q6, Q14) and the 10-slot cycle over them
/// (4:3:2:1). The seed only picks where on the cycle a run starts.
std::vector<QueryText> BulkTexts();
inline constexpr int kBulkCycle[10] = {0, 1, 2, 0, 1, 3, 0, 2, 1, 0};
size_t BulkCycleStart(uint64_t seed);

/// Zipf(s) over ranks 0..n-1 by inverse-CDF lookup.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double s);
  size_t Draw(turbo::util::Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

inline constexpr double kZipfS = 1.0;

/// One SPARQL Update request of the live writer and the reply it must get.
struct Batch {
  uint64_t index = 0;
  std::string text;
  uint64_t inserted = 0;
  uint64_t deleted = 0;
  uint64_t delta_adds = 0;  ///< delta size after the batch
  uint64_t tombstones = 0;
};

/// The live writer's seeded batch stream. Batch j inserts kFresh fresh
/// triples and deletes the fresh triples of batch j-kLag; it deletes kBase
/// base ub:researchInterest triples and re-inserts those batch j-kLag
/// deleted. Every triple uses a predicate no read template touches, and
/// after kLag batches the delta holds exactly kLag*(kFresh+kBase) entries.
class BatchStream {
 public:
  static constexpr uint64_t kLag = 8;
  static constexpr uint64_t kFresh = 12;
  static constexpr uint64_t kBase = 4;
  static constexpr uint64_t kBand = kLag * (kFresh + kBase);
  static constexpr const char* kTagPredicate = "<http://perfbench.example/tag>";

  BatchStream(const Catalog& c, uint64_t seed);
  Batch Next();

 private:
  struct Made {
    std::vector<std::string> fresh;  ///< N-Triples statements (no trailing '.')
    std::vector<size_t> base;        ///< indexes into interests
  };

  const Catalog& c_;
  turbo::util::Rng rng_;
  uint64_t next_ = 0;
  std::deque<Made> window_;     ///< the last kLag batches, oldest first
  std::vector<bool> deleted_;   ///< base interests currently tombstoned
};

// ---------------------------------------------------------------------------
// The expected responses, built in-process by the serving side.
// ---------------------------------------------------------------------------

/// The JSON body a text must produce: header and footer exactly, rows as a
/// multiset (count + order-independent hash sum).
struct Expected {
  int tmpl = 0;
  std::string text;
  std::string header;
  std::string footer;
  uint64_t rows = 0;
  uint64_t row_hash = 0;
};

uint64_t RowHash(std::string_view row);

turbo::util::Status WriteExpected(const std::vector<Expected>& e, const std::string& path);
turbo::util::Result<std::vector<Expected>> ReadExpected(const std::string& path);

/// Splits a JSON results body into header / rows / footer and checks it
/// against `e`. Empty string when it matches, else what differs.
std::string CheckBody(const Expected& e, std::string_view body);

}  // namespace perfbench
