#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <sstream>
#include <unordered_set>

#include "rdf/vocabulary.hpp"
#include "workload/lubm.hpp"

namespace perfbench {

using turbo::util::Result;
using turbo::util::Rng;
using turbo::util::Status;

Percentile PercentileOf(std::vector<double> v, double q) {
  Percentile p;
  p.samples = v.size();
  if (v.empty()) return p;
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx), v.end());
  p.value = v[idx];
  p.beyond = v.size() - 1 - idx;
  return p;
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  Rng r(seed * 0x9e3779b97f4a7c15ULL + salt);
  r.Next();
  return r.Next();
}

int SpanLog::Add(const char* name, int parent, uint64_t request, Clock::time_point start,
                 Clock::time_point end) {
  spans_.push_back({name, parent, request, Ms(origin_, start) * 1e3, Ms(origin_, end) * 1e3});
  return static_cast<int>(spans_.size() - 1);
}

void SpanLog::AppendJson(std::string* out) const {
  char buf[256];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"thread\":%u,\"id\":%zu,\"parent\":%d,\"request\":%llu,\"name\":\"%s\","
                  "\"start_us\":%.3f,\"end_us\":%.3f}",
                  out->empty() || out->back() == '[' ? "" : ",\n", thread_, i, s.parent,
                  static_cast<unsigned long long>(s.request), s.name, s.start_us, s.end_us);
    *out += buf;
  }
}

namespace {
std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}
}  // namespace

std::string JsonNumbers(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) out += (i ? "," : "") + Number(v[i]);
  return out + "]";
}

JsonObject& JsonObject::Num(const char* key, double v) { return Raw(key, Number(v)); }

JsonObject& JsonObject::Raw(const char* key, const std::string& json) {
  if (!body_.empty()) body_ += ',';
  body_ += '"';
  body_ += key;
  body_ += "\":" + json;
  return *this;
}

JsonObject& JsonObject::Str(const char* key, const std::string& s) {
  std::string q = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') q += '\\';
    q += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return Raw(key, q + "\"");
}

uint64_t ResidentKb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.starts_with("VmRSS:")) return std::strtoull(line.c_str() + 6, nullptr, 10);
  return 0;
}

// ---------------------------------------------------------------------------
// Catalog.
// ---------------------------------------------------------------------------

Catalog CatalogFromDataset(const turbo::rdf::Dataset& ds) {
  const turbo::rdf::Dictionary& dict = ds.dict();
  auto id_of = [&](const std::string& local) {
    auto id = dict.FindIri(std::string(turbo::workload::kUbPrefix) + local);
    return id ? *id : turbo::kInvalidId;
  };
  const turbo::TermId type = dict.FindIri(turbo::rdf::vocab::kRdfType).value_or(turbo::kInvalidId);
  const turbo::TermId university = id_of("University"), department = id_of("Department"),
               grad_course = id_of("GraduateCourse"), assistant = id_of("AssistantProfessor"),
               associate = id_of("AssociateProfessor"), sub_org = id_of("subOrganizationOf"),
               interest = id_of("researchInterest");

  // Generated universities are the ones departments belong to; the degree
  // pool's other universities only ever appear as degree objects.
  std::unordered_set<turbo::TermId> parents;
  for (const turbo::rdf::Triple& t : ds.triples())
    if (t.p == sub_org) parents.insert(t.o);

  Catalog c;
  auto nt = [&](turbo::TermId id) { return dict.term(id).ToNTriples(); };
  for (const turbo::rdf::Triple& t : ds.triples()) {
    if (t.p == interest) {
      c.interests.emplace_back(nt(t.s), nt(t.o));
      continue;
    }
    if (t.p != type) continue;
    std::vector<std::string>* out = nullptr;
    if (t.o == university && parents.count(t.s)) out = &c.universities;
    else if (t.o == department) out = &c.departments;
    else if (t.o == grad_course) out = &c.grad_courses;
    else if (t.o == assistant) out = &c.assistant_profs;
    else if (t.o == associate) out = &c.associate_profs;
    if (out) out->push_back(nt(t.s));
  }
  return c;
}

namespace {

struct CatalogField {
  const char* kind;
  std::vector<std::string> Catalog::*list;
};
constexpr CatalogField kCatalogFields[] = {
    {"univ", &Catalog::universities},     {"dept", &Catalog::departments},
    {"gcourse", &Catalog::grad_courses},  {"asst", &Catalog::assistant_profs},
    {"assoc", &Catalog::associate_profs},
};

}  // namespace

Status WriteCatalog(const Catalog& c, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  for (const CatalogField& f : kCatalogFields)
    for (const std::string& v : c.*f.list) out << f.kind << '\t' << v << '\n';
  for (const auto& [s, o] : c.interests) out << "interest\t" << s << '\t' << o << '\n';
  out.flush();
  return out.good() ? Status::Ok() : Status::Error("cannot write " + path);
}

Result<Catalog> ReadCatalog(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error("cannot read " + path);
  Catalog c;
  std::string line;
  while (std::getline(in, line)) {
    size_t tab = line.find('\t');
    if (tab == std::string::npos) return Status::Error("bad catalog line: " + line);
    std::string kind = line.substr(0, tab), value = line.substr(tab + 1);
    if (kind == "interest") {
      size_t tab2 = value.find('\t');
      if (tab2 == std::string::npos) return Status::Error("bad catalog line: " + line);
      c.interests.emplace_back(value.substr(0, tab2), value.substr(tab2 + 1));
      continue;
    }
    bool known = false;
    for (const CatalogField& f : kCatalogFields)
      if (kind == f.kind) {
        (c.*f.list).push_back(value);
        known = true;
      }
    if (!known) return Status::Error("bad catalog line: " + line);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Point pool and bulk cycle.
// ---------------------------------------------------------------------------

namespace {

/// The official LUBM text of `q` (1-based) with its anchor constant
/// replaced by `constant`.
std::string Instantiate(int q, const std::string& constant) {
  static const std::vector<std::string> texts = turbo::workload::LubmQueries();
  static const char* const anchors[15] = {
      nullptr,
      "<http://www.Department0.University0.edu/GraduateCourse0>",      // Q1
      nullptr,
      "<http://www.Department0.University0.edu/AssistantProfessor0>",  // Q3
      "<http://www.Department0.University0.edu>",                      // Q4
      "<http://www.Department0.University0.edu>",                      // Q5
      nullptr,
      "<http://www.Department0.University0.edu/AssociateProfessor0>",  // Q7
      nullptr,
      nullptr,
      "<http://www.Department0.University0.edu/GraduateCourse0>",      // Q10
      "<http://www.University0.edu>",                                  // Q11
      "<http://www.University0.edu>",                                  // Q12
      "<http://www.University0.edu>",                                  // Q13
      nullptr};
  std::string text = texts[static_cast<size_t>(q - 1)];
  const std::string anchor = anchors[q];
  size_t at = text.find(anchor);
  text.replace(at, anchor.size(), constant);
  return text;
}

/// `n` distinct entries of `from` in a seeded order (all of them when n is
/// larger than the list).
std::vector<std::string> Sample(const std::vector<std::string>& from, size_t n, Rng& rng) {
  std::vector<std::string> v = from;
  n = std::min(n, v.size());
  for (size_t i = 0; i < n; ++i) std::swap(v[i], v[i + rng.Below(v.size() - i)]);
  v.resize(n);
  return v;
}

}  // namespace

std::vector<QueryText> PointPool(const Catalog& c, uint64_t seed) {
  // Measured shares of requests (Zipf mass per template): Q1/Q3/Q10 ~72%,
  // Q4/Q7/Q12/Q13 ~25%, Q5/Q11 ~3%. p50 falls inside the first band and p90
  // inside the second, away from the edges where a small share shift would
  // move them. Templates whose row count swings most with the constant
  // start further down the ranks (`from`, a fraction of the pool): Q5 and
  // Q11 return hundreds of rows, Q7 tens to a hundred. So no single seeded
  // constant of theirs carries enough traffic to move the row rate between
  // seeds.
  constexpr size_t kSampled = 290;
  struct Group {
    int tmpl;
    const std::vector<std::string>* from;
    size_t take;
    double from_rank;
  };
  const size_t depts = c.departments.size(), univs = c.universities.size();
  const Group groups[] = {
      {1, &c.grad_courses, kSampled, 0},       {3, &c.assistant_profs, kSampled, 0},
      {4, &c.departments, depts, 0},           {5, &c.departments, depts, 0.3},
      {7, &c.associate_profs, kSampled, 0.01}, {10, &c.grad_courses, kSampled, 0},
      {11, &c.universities, univs, 0.3},       {12, &c.universities, univs, 0},
      {13, &c.universities, univs, 0}};

  // Each template's k-th text sits at fractional position (k + 0.5) / count
  // of its part of the rank order, so the template at every rank depends
  // only on the catalog's sizes, never on the seed.
  struct Slot {
    double key;
    int tmpl;
    std::string text;
  };
  std::vector<Slot> slots;
  for (const Group& g : groups) {
    Rng rng(MixSeed(seed, static_cast<uint64_t>(g.tmpl)));
    std::vector<std::string> constants = Sample(*g.from, g.take, rng);
    for (size_t k = 0; k < constants.size(); ++k) {
      const double at = (static_cast<double>(k) + 0.5) / static_cast<double>(constants.size());
      const double key = g.from_rank + (1 - g.from_rank) * at;
      slots.push_back({key, g.tmpl, Instantiate(g.tmpl, constants[k])});
    }
  }
  std::stable_sort(slots.begin(), slots.end(), [](const Slot& a, const Slot& b) {
    return a.key != b.key ? a.key < b.key : a.tmpl < b.tmpl;
  });
  std::vector<QueryText> pool;
  pool.reserve(slots.size());
  for (Slot& s : slots) pool.push_back({s.tmpl, std::move(s.text)});
  return pool;
}

std::vector<QueryText> BulkTexts() {
  std::vector<std::string> q = turbo::workload::LubmQueries();
  return {{8, q[7]}, {9, q[8]}, {6, q[5]}, {14, q[13]}};
}

size_t BulkCycleStart(uint64_t seed) { return MixSeed(seed, 0xb01c) % std::size(kBulkCycle); }

ZipfSampler::ZipfSampler(size_t n, double s) : cdf_(n) {
  double sum = 0;
  for (size_t r = 0; r < n; ++r) {
    sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_[r] = sum;
  }
  for (double& x : cdf_) x /= sum;
}

size_t ZipfSampler::Draw(Rng& rng) const {
  double u = rng.Uniform();
  size_t r = static_cast<size_t>(std::upper_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
  return std::min(r, cdf_.size() - 1);
}

// ---------------------------------------------------------------------------
// Live batches.
// ---------------------------------------------------------------------------

BatchStream::BatchStream(const Catalog& c, uint64_t seed)
    : c_(c), rng_(MixSeed(seed, 0x11fe)), deleted_(c.interests.size(), false) {}

Batch BatchStream::Next() {
  const uint64_t j = next_++;
  const size_t n = c_.interests.size();
  Made made;
  const uint64_t slot = j % (kLag + 1);  // never the slot of a batch still in the delta
  for (uint64_t i = 0; i < kFresh; ++i)
    made.fresh.push_back(c_.interests[rng_.Below(n)].first + " " + kTagPredicate + " \"s" +
                         std::to_string(slot) + "-" + std::to_string(i) + "\"");
  // New base deletes are picked while batch j-kLag's are still marked, so a
  // triple is never deleted and re-inserted by the same request.
  while (made.base.size() < kBase) {
    size_t idx = rng_.Below(n);
    if (deleted_[idx]) continue;
    deleted_[idx] = true;
    made.base.push_back(idx);
  }

  auto triple = [&](size_t idx) {
    return c_.interests[idx].first + " <" + turbo::workload::kUbPrefix + "researchInterest> " +
           c_.interests[idx].second;
  };
  std::string del = "DELETE DATA { ", ins = " ; INSERT DATA { ";
  for (size_t idx : made.base) del += triple(idx) + " . ";
  for (const std::string& t : made.fresh) ins += t + " . ";

  Batch b;
  b.index = j;
  b.inserted = kFresh;
  b.deleted = kBase;
  if (window_.size() == kLag) {
    const Made& old = window_.front();
    for (const std::string& t : old.fresh) del += t + " . ";
    for (size_t idx : old.base) {
      ins += triple(idx) + " . ";
      deleted_[idx] = false;
    }
    b.inserted += kBase;
    b.deleted += kFresh;
    window_.pop_front();
  }
  window_.push_back(std::move(made));
  b.text = del + "}" + ins + "}";
  b.delta_adds = window_.size() * kFresh;
  b.tombstones = window_.size() * kBase;
  return b;
}

// ---------------------------------------------------------------------------
// Expected bodies.
// ---------------------------------------------------------------------------

uint64_t RowHash(std::string_view row) {
  uint64_t z = std::hash<std::string_view>{}(row) + 0x9e3779b97f4a7c15ULL * row.size();
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status WriteExpected(const std::vector<Expected>& e, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  for (const Expected& x : e) {
    out << x.tmpl << ' ' << x.rows << ' ' << x.row_hash << ' ' << x.text.size() << ' '
        << x.header.size() << ' ' << x.footer.size() << '\n'
        << x.text << x.header << x.footer;
  }
  out.flush();
  return out.good() ? Status::Ok() : Status::Error("cannot write " + path);
}

Result<std::vector<Expected>> ReadExpected(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::Error("cannot read " + path);
  std::vector<Expected> all;
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream fields(line);
    Expected x;
    size_t nt = 0, nh = 0, nf = 0;
    if (!(fields >> x.tmpl >> x.rows >> x.row_hash >> nt >> nh >> nf))
      return Status::Error("bad expected-body record in " + path);
    for (auto [s, n] : {std::pair{&x.text, nt}, {&x.header, nh}, {&x.footer, nf}}) {
      s->resize(n);
      if (!in.read(s->data(), static_cast<std::streamsize>(n)))
        return Status::Error("truncated expected-body record in " + path);
    }
    all.push_back(std::move(x));
  }
  return all;
}

std::string CheckBody(const Expected& e, std::string_view body) {
  if (body.size() < e.header.size() + e.footer.size() || !body.starts_with(e.header))
    return "header differs";
  if (!body.ends_with(e.footer)) return "footer differs";
  std::string_view mid =
      body.substr(e.header.size(), body.size() - e.header.size() - e.footer.size());
  uint64_t rows = 0, hash = 0;
  while (!mid.empty()) {
    size_t nl = mid.find('\n');
    std::string_view row = mid.substr(0, nl);
    if (nl != std::string_view::npos) {
      if (!row.ends_with(',')) return "row separator missing";
      row.remove_suffix(1);
      mid.remove_prefix(nl + 1);
    } else {
      mid = {};
    }
    ++rows;
    hash += RowHash(row);
  }
  if (rows != e.rows)
    return "rows " + std::to_string(rows) + " != expected " + std::to_string(e.rows);
  if (hash != e.row_hash) return "row multiset differs";
  return {};
}

}  // namespace perfbench
