// Self-tests of the benchmark harness: the percentile rule, closed-loop due
// times, the failure denominator, seed determinism of every input stream,
// and the live batch stream's delta band (checked against a real LiveStore).
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "client.hpp"
#include "harness.hpp"
#include "store/live_store.hpp"

namespace {

using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                       \
  do {                                                                    \
    if (!(cond)) {                                                        \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__, __LINE__, #cond); \
      ++g_failures;                                                       \
    }                                                                     \
  } while (0)

std::vector<double> Iota(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));  // unsorted input
  return v;
}

void TestPercentileRule() {
  // p90 needs 100 samples (10 beyond the 90th), p50 needs 20.
  Percentile p = PercentileOf(Iota(99), 0.9);
  CHECK(p.beyond == 9 && !p.valid());
  p = PercentileOf(Iota(100), 0.9);
  CHECK(p.beyond == 10 && p.valid() && p.value == 90 && p.samples == 100);
  CHECK(!PercentileOf(Iota(19), 0.5).valid());
  p = PercentileOf(Iota(20), 0.5);
  CHECK(p.valid() && p.value == 10);
  CHECK(!PercentileOf({}, 0.5).valid());
}

void TestClosedLoopDueTimes() {
  const Clock::time_point t0 = Clock::now();
  ClosedLoopClock clock(t0);
  CHECK(clock.due() == t0);
  // The reply to request 0 is checked 5 ms after the start: request 1 is
  // due then, so a slow reply delays the next request instead of queueing.
  CHECK(clock.Complete(t0 + std::chrono::milliseconds(5)) == 5.0);
  CHECK(clock.due() == t0 + std::chrono::milliseconds(5));
  CHECK(clock.Complete(t0 + std::chrono::milliseconds(7)) == 2.0);
  CHECK(clock.due() == t0 + std::chrono::milliseconds(7));
}

void TestFailureDenominator() {
  Tally t;
  t.Ok();
  t.Ok();

  // Refused: a port nobody listens on.
  int probe = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::bind(probe, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  socklen_t len = sizeof addr;
  ::getsockname(probe, reinterpret_cast<sockaddr*>(&addr), &len);
  const uint16_t closed_port = ntohs(addr.sin_port);
  ::close(probe);
  HttpConn refused;
  std::string err;
  bool ok = refused.Dial(closed_port, Clock::now() + std::chrono::seconds(2), &err);
  CHECK(!ok && !err.empty());
  ok ? t.Ok() : t.Fail();

  // Timed out: a listener that accepts at the kernel level but never replies.
  int silent = ::socket(AF_INET, SOCK_STREAM, 0);
  addr.sin_port = 0;
  ::bind(silent, reinterpret_cast<sockaddr*>(&addr), sizeof addr);
  ::listen(silent, 4);
  len = sizeof addr;
  ::getsockname(silent, reinterpret_cast<sockaddr*>(&addr), &len);
  HttpConn stalled;
  HttpReply reply;
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline = start + std::chrono::milliseconds(200);
  ok = stalled.Dial(ntohs(addr.sin_port), deadline, &err) &&
       stalled.RoundTrip(QueryRequest("SELECT ?x WHERE { ?x ?p ?o }"), deadline, &reply, &err);
  CHECK(!ok && err == "timed out");
  CHECK(Ms(start, Clock::now()) < 2000);  // the deadline held: no hang
  ok ? t.Ok() : t.Fail();
  ::close(silent);

  CHECK(t.attempted == 4 && t.failed == 2);
  Tally sum;
  sum.Add(t);
  sum.Add(t);
  CHECK(sum.attempted == 8 && sum.failed == 4);
}

Catalog SyntheticCatalog() {
  Catalog c;
  for (int u = 0; u < 3; ++u) {
    c.universities.push_back("<http://www.University" + std::to_string(u) + ".edu>");
    for (int d = 0; d < 4; ++d) {
      std::string dept = "http://www.Department" + std::to_string(d) + ".University" +
                         std::to_string(u) + ".edu";
      c.departments.push_back("<" + dept + ">");
      for (int i = 0; i < 30; ++i) {
        c.grad_courses.push_back("<" + dept + "/GraduateCourse" + std::to_string(i) + ">");
        c.assistant_profs.push_back("<" + dept + "/AssistantProfessor" + std::to_string(i) + ">");
        c.associate_profs.push_back("<" + dept + "/AssociateProfessor" + std::to_string(i) + ">");
        c.interests.emplace_back("<" + dept + "/AssociateProfessor" + std::to_string(i) + ">",
                                 "\"Research" + std::to_string(i % 7) + "\"");
      }
    }
  }
  return c;
}

void TestSeedDeterminism() {
  const Catalog c = SyntheticCatalog();
  const std::vector<QueryText> a = PointPool(c, 7), b = PointPool(c, 7), d = PointPool(c, 8);
  CHECK(a.size() == b.size() && a.size() == d.size() && !a.empty());
  size_t same_text = 0;
  bool same_mix = true, identical = true;
  for (size_t i = 0; i < a.size(); ++i) {
    identical = identical && a[i].text == b[i].text && a[i].tmpl == b[i].tmpl;
    same_mix = same_mix && a[i].tmpl == d[i].tmpl;
    same_text += a[i].text == d[i].text;
  }
  CHECK(identical);
  CHECK(same_mix);                 // a new seed keeps the template at every rank
  CHECK(same_text < a.size() / 2);  // ... and draws new constants
  std::set<std::string> distinct;
  for (const QueryText& q : a) distinct.insert(q.text);
  CHECK(distinct.size() == a.size());

  // Request streams: the Zipf draws of a connection.
  const ZipfSampler zipf(a.size(), kZipfS);
  turbo::util::Rng r1(MixSeed(7, 100)), r2(MixSeed(7, 100)), r3(MixSeed(8, 100));
  std::vector<size_t> s1, s2, s3;
  for (int i = 0; i < 1000; ++i) {
    s1.push_back(zipf.Draw(r1));
    s2.push_back(zipf.Draw(r2));
    s3.push_back(zipf.Draw(r3));
  }
  CHECK(s1 == s2);
  CHECK(s1 != s3);
  std::vector<size_t> hits(a.size(), 0);
  for (size_t r : s1) ++hits[r];
  CHECK(hits[0] > hits[1] && hits[1] > hits[a.size() / 2]);  // Zipf: hottest first

  // Update batches.
  BatchStream x(c, 7), y(c, 7), z(c, 8);
  bool batches_same = true, batches_differ = false;
  for (int i = 0; i < 30; ++i) {
    std::string tx = x.Next().text, ty = y.Next().text, tz = z.Next().text;
    batches_same = batches_same && tx == ty;
    batches_differ = batches_differ || tx != tz;
  }
  CHECK(batches_same);
  CHECK(batches_differ);

  CHECK(BulkTexts().size() == 4);
  int per_text[4] = {0, 0, 0, 0};
  for (int slot : kBulkCycle) ++per_text[slot];
  CHECK(per_text[0] == 4 && per_text[1] == 3 && per_text[2] == 2 && per_text[3] == 1);
}

void TestLiveBand() {
  // A base holding every catalog interest triple; the stream's expected
  // counts must match what a real LiveStore reports, batch by batch.
  const Catalog c = SyntheticCatalog();
  turbo::rdf::Dataset ds;
  const std::string interest = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#researchInterest";
  for (const auto& [s, o] : c.interests)
    ds.Add(turbo::rdf::Term::Iri(s.substr(1, s.size() - 2)), turbo::rdf::Term::Iri(interest),
           turbo::rdf::Term::Literal(o.substr(1, o.size() - 2)));
  turbo::store::LiveStore store(std::move(ds));
  BatchStream stream(c, 3);
  for (uint64_t j = 0; j < 5 * BatchStream::kLag; ++j) {
    Batch b = stream.Next();
    const bool full = j >= BatchStream::kLag;
    CHECK(b.inserted == BatchStream::kFresh + (full ? BatchStream::kBase : 0));
    CHECK(b.deleted == BatchStream::kBase + (full ? BatchStream::kFresh : 0));
    const uint64_t held = std::min<uint64_t>(j + 1, BatchStream::kLag);
    CHECK(b.delta_adds == held * BatchStream::kFresh);
    CHECK(b.tombstones == held * BatchStream::kBase);
    auto r = store.Update(b.text);
    CHECK(r.ok());
    if (!r.ok()) return;
    CHECK(r.value().inserted == b.inserted && r.value().deleted == b.deleted);
    CHECK(r.value().delta_adds == b.delta_adds && r.value().tombstones == b.tombstones);
  }
  CHECK(store.stats().delta_adds + store.stats().tombstones == BatchStream::kBand);
}

void TestCheckBody() {
  Expected e;
  e.header = "{\"head\":{\"vars\":[\"x\"]},\"results\":{\"bindings\":[\n";
  e.footer = "\n]}}\n";
  const std::vector<std::string> rows = {"{\"x\":1}", "{\"x\":2}", "{\"x\":2}"};
  for (const std::string& r : rows) e.row_hash += RowHash(r);
  e.rows = rows.size();
  CHECK(CheckBody(e, e.header + rows[0] + ",\n" + rows[1] + ",\n" + rows[2] + e.footer).empty());
  // Bindings compare as a multiset: order is free, multiplicity is not.
  CHECK(CheckBody(e, e.header + rows[2] + ",\n" + rows[0] + ",\n" + rows[1] + e.footer).empty());
  CHECK(!CheckBody(e, e.header + rows[0] + ",\n" + rows[0] + ",\n" + rows[1] + e.footer).empty());
  CHECK(!CheckBody(e, e.header + rows[0] + ",\n" + rows[1] + e.footer).empty());
  CHECK(!CheckBody(e, e.header + rows[0] + ",\n" + rows[1] + ",\n" + rows[2] + "\n]}").empty());
  CHECK(!CheckBody(e, "{}").empty());
}

}  // namespace

int main() {
  TestPercentileRule();
  TestClosedLoopDueTimes();
  TestFailureDenominator();
  TestSeedDeterminism();
  TestLiveBand();
  TestCheckBody();
  if (g_failures) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench self-tests passed\n");
  return 0;
}
