// HTTP SPARQL endpoint tests, all over an in-process SparqlServer on an
// ephemeral port:
//  * protocol: JSON/TSV result encoding matches Executor::Execute row for
//    row; X-Plan-Cache miss-then-hit with identical rows; malformed queries
//    get a 400 whose body carries the parse error; per-request deadline maps
//    to 408 before the first row and an in-body stop marker after it;
//  * admission control: a saturated worker pool answers 503 immediately and
//    recovers once the pool drains;
//  * teardown: a client that disconnects mid-stream abandons the cursor and
//    stops the producer (no leaked producer thread — Stop() joins
//    everything, and the suite runs under ASan/TSan in CI);
//  * scale: 64 concurrent in-flight streaming requests over one shared
//    engine, every response row-identical to the materialized reference.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "server/http.hpp"
#include "server/result_encoder.hpp"
#include "sparql/row_block.hpp"
#include "server/sparql_server.hpp"
#include "sparql/executor.hpp"
#include "sparql/query_engine.hpp"
#include "workload/lubm.hpp"

namespace turbo::server {
namespace {

using sparql::QueryEngine;
using std::chrono::milliseconds;
using std::chrono::steady_clock;

// Every wait in this suite has a deadline, so a server regression fails a
// test instead of hanging the run.
constexpr std::chrono::seconds kDeadline{30};

/// DialLocal with send/receive timeouts: a read that would block past the
/// deadline fails.
int TimedDial(uint16_t port) {
  int fd = DialLocal(port);
  if (fd >= 0) {
    timeval tv{static_cast<time_t>(kDeadline.count()), 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
  return fd;
}

/// HttpGet over a TimedDial connection.
util::Status TimedGet(uint16_t port, const std::string& target, HttpResponse* resp) {
  int fd = TimedDial(port);
  if (fd < 0) return util::Status::Error("connect failed");
  util::Status st = WriteHttpRequest(fd, "GET", target);
  if (st.ok()) {
    std::string leftover;
    st = ReadHttpResponse(fd, resp, &leftover);
  }
  ::close(fd);
  return st;
}

const char* const kProfessorQuery =
    "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
    "SELECT ?x ?y WHERE { ?x a ub:FullProfessor . ?x ub:worksFor ?y . }";

/// One shared LUBM(1) engine + server for the protocol tests (building the
/// engine dominates the suite's runtime, so it is paid once).
class ServerProtocolTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload::LubmConfig cfg;
    cfg.num_universities = 1;
    engine_ = new QueryEngine(workload::GenerateLubmClosed(cfg));
    ServerConfig config;
    config.workers = 4;
    server_ = new SparqlServer(engine_, config);
    ASSERT_TRUE(server_->Start().ok());
  }
  static void TearDownTestSuite() {
    delete server_;
    server_ = nullptr;
    delete engine_;
    engine_ = nullptr;
  }

  static std::string UrlEncode(const std::string& s) {
    std::string out;
    char buf[8];
    for (unsigned char c : s) {
      if (std::isalnum(c)) {
        out += static_cast<char>(c);
      } else {
        std::snprintf(buf, sizeof buf, "%%%02X", c);
        out += buf;
      }
    }
    return out;
  }

  static HttpResponse Get(const std::string& target) {
    HttpResponse resp;
    auto st = TimedGet(server_->port(), target, &resp);
    EXPECT_TRUE(st.ok()) << st.message();
    return resp;
  }

  /// The materialized reference for `query`, rendered through the same
  /// encoder — byte-for-byte what a complete streamed body must equal.
  static std::string Reference(const std::string& query, const std::string& format) {
    sparql::Executor ex(&engine_->solver());
    auto rs = ex.Execute(query);
    EXPECT_TRUE(rs.ok()) << rs.message();
    auto enc = MakeResultEncoder(format);
    std::string out = enc->Header(rs.value().var_names);
    for (const auto& row : rs.value().rows)
      out += enc->EncodeRow(rs.value().var_names, row, engine_->dict(),
                            rs.value().local_vocab.get());
    out += enc->Footer(sparql::StopCause::kNone);
    return out;
  }

  static QueryEngine* engine_;
  static SparqlServer* server_;
};

QueryEngine* ServerProtocolTest::engine_ = nullptr;
SparqlServer* ServerProtocolTest::server_ = nullptr;

TEST_F(ServerProtocolTest, TsvBodyMatchesMaterializedReference) {
  HttpResponse resp = Get("/sparql?format=tsv&query=" + UrlEncode(kProfessorQuery));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers["content-type"], "text/tab-separated-values");
  EXPECT_EQ(resp.headers["x-stop-cause"], "none");
  EXPECT_EQ(resp.body, Reference(kProfessorQuery, "tsv"));
  EXPECT_GT(std::count(resp.body.begin(), resp.body.end(), '\n'), 10);
}

TEST_F(ServerProtocolTest, JsonBodyMatchesMaterializedReference) {
  HttpResponse resp = Get("/sparql?query=" + UrlEncode(kProfessorQuery));
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.headers["content-type"], "application/sparql-results+json");
  EXPECT_EQ(resp.body, Reference(kProfessorQuery, "json"));
}

TEST_F(ServerProtocolTest, PostFormAndRawBodyBothWork) {
  int fd = TimedDial(server_->port());
  ASSERT_GE(fd, 0);
  std::string leftover;
  HttpResponse resp;
  ASSERT_TRUE(WriteHttpRequest(fd, "POST", "/sparql?format=tsv",
                               {{"Content-Type", "application/x-www-form-urlencoded"}},
                               "query=" + UrlEncode(kProfessorQuery))
                  .ok());
  ASSERT_TRUE(ReadHttpResponse(fd, &resp, &leftover).ok());
  EXPECT_EQ(resp.status, 200);
  std::string form_body = resp.body;
  // Keep-alive: the raw-body POST rides the same connection.
  ASSERT_TRUE(WriteHttpRequest(fd, "POST", "/sparql?format=tsv",
                               {{"Content-Type", "application/sparql-query"}},
                               kProfessorQuery)
                  .ok());
  ASSERT_TRUE(ReadHttpResponse(fd, &resp, &leftover).ok());
  EXPECT_EQ(resp.status, 200);
  EXPECT_EQ(resp.body, form_body);
  ::close(fd);
}

TEST_F(ServerProtocolTest, PlanCacheMissThenHitWithIdenticalRows) {
  // A query text unique to this test: first sight must miss, the exact
  // reformatted text must hit (whitespace-normalized key) with equal rows.
  std::string q =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?d WHERE { ?d a ub:Department . } LIMIT 9";
  std::string reformatted =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#>\n  "
      "SELECT ?d\nWHERE  { ?d a ub:Department . }\tLIMIT 9";
  HttpResponse miss = Get("/sparql?format=tsv&query=" + UrlEncode(q));
  HttpResponse hit = Get("/sparql?format=tsv&query=" + UrlEncode(reformatted));
  EXPECT_EQ(miss.status, 200);
  EXPECT_EQ(hit.status, 200);
  EXPECT_EQ(miss.headers["x-plan-cache"], "miss");
  EXPECT_EQ(hit.headers["x-plan-cache"], "hit");
  EXPECT_EQ(miss.body, hit.body);
}

TEST_F(ServerProtocolTest, MalformedQueryGets400WithParseError) {
  HttpResponse resp = Get("/sparql?query=" + UrlEncode("SELECT WHERE {{{"));
  EXPECT_EQ(resp.status, 400);
  EXPECT_NE(resp.body.find("parse error"), std::string::npos) << resp.body;
  HttpResponse missing = Get("/sparql");
  EXPECT_EQ(missing.status, 400);
  EXPECT_NE(missing.body.find("missing query"), std::string::npos);
}

TEST_F(ServerProtocolTest, UnknownPathAndMethod) {
  HttpResponse resp = Get("/nope");
  EXPECT_EQ(resp.status, 404);
  int fd = TimedDial(server_->port());
  ASSERT_GE(fd, 0);
  std::string leftover;
  ASSERT_TRUE(WriteHttpRequest(fd, "DELETE", "/sparql").ok());
  ASSERT_TRUE(ReadHttpResponse(fd, &resp, &leftover).ok());
  EXPECT_EQ(resp.status, 405);
  ::close(fd);
}

TEST_F(ServerProtocolTest, StatsEndpointCounts) {
  HttpResponse resp = Get("/stats");
  EXPECT_EQ(resp.status, 200);
  EXPECT_NE(resp.body.find("\"plan_cache\""), std::string::npos);
  EXPECT_NE(resp.body.find("\"requests\""), std::string::npos);
}

/// Sends `target` with Connection: close and returns the raw response bytes
/// (status line, headers, chunk framing and all) up to the peer's close.
std::string RawGet(uint16_t port, const std::string& target) {
  int fd = TimedDial(port);
  EXPECT_GE(fd, 0);
  if (fd < 0) return {};
  EXPECT_TRUE(WriteHttpRequest(fd, "GET", target, {{"Connection", "close"}}).ok());
  std::string raw;
  char buf[65536];
  for (;;) {
    ssize_t n = ::recv(fd, buf, sizeof buf, 0);
    if (n <= 0) break;  // close, or the receive deadline
    raw.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return raw;
}

/// Splits a raw chunked response into its chunk payloads (trailers dropped).
std::vector<std::string> Chunks(const std::string& raw) {
  std::vector<std::string> out;
  size_t at = raw.find("\r\n\r\n");
  if (at == std::string::npos) return out;
  at += 4;
  for (;;) {
    size_t eol = raw.find("\r\n", at);
    if (eol == std::string::npos) break;
    size_t size = std::stoul(raw.substr(at, eol - at), nullptr, 16);
    if (size == 0) break;
    out.push_back(raw.substr(eol + 2, size));
    at = eol + 2 + size + 2;
  }
  return out;
}

TEST_F(ServerProtocolTest, StreamedChunksDeChunkToTheMaterializedBody) {
  const std::string q =
      "PREFIX ub: <http://swat.cse.lehigh.edu/onto/univ-bench.owl#> "
      "SELECT ?x ?c WHERE { ?x ub:takesCourse ?c . }";
  for (const char* format : {"json", "tsv"}) {
    const std::string base = std::string("/sparql?format=") + format + "&query=" + UrlEncode(q);
    std::vector<std::string> streamed = Chunks(RawGet(server_->port(), base));
    std::vector<std::string> whole = Chunks(RawGet(server_->port(), base + "&stream=0"));
    ASSERT_GT(streamed.size(), 2u) << format;  // header+row, blocks..., footer
    std::string streamed_body, whole_body;
    for (const std::string& c : streamed) streamed_body += c;
    for (const std::string& c : whole) whole_body += c;
    EXPECT_EQ(streamed_body, whole_body) << format;
    EXPECT_EQ(streamed_body, Reference(q, format)) << format;

    // The first chunk is the header plus exactly the first row.
    sparql::Executor ex(&engine_->solver());
    auto rs = ex.Execute(q);
    ASSERT_TRUE(rs.ok());
    ASSERT_FALSE(rs.value().rows.empty());
    auto enc = MakeResultEncoder(format);
    std::string first = enc->Header(rs.value().var_names) +
                        enc->EncodeRow(rs.value().var_names, rs.value().rows[0],
                                       engine_->dict(), nullptr);
    EXPECT_EQ(streamed.front(), first) << format;
  }
}

// ---------------------------------------------------------------------------
// Encoders: the block path is byte-identical to row-at-a-time EncodeRow.
// ---------------------------------------------------------------------------

TEST(ResultEncoderBytes, JsonEscapeCoversEveryEscape) {
  const std::string raw = std::string("q\"b\\n\nr\rt\tc") + '\x01' + '\x1f' + "caf\xc3\xa9 ok";
  EXPECT_EQ(JsonEscape(raw),
            std::string("q\\\"b\\\\n\\nr\\rt\\tc\\u0001\\u001fcaf\xc3\xa9 ok"));
  std::string appended = "prefix:";
  AppendJsonEscaped(raw, &appended);
  EXPECT_EQ(appended, "prefix:" + JsonEscape(raw));
  EXPECT_EQ(JsonEscape(""), "");
  EXPECT_EQ(JsonEscape("plain"), "plain");

  // Every byte value at every offset of a long clean run, so the
  // word-at-a-time skip and the byte loop both meet it: the output must be
  // what a byte-by-byte escaper produces.
  auto reference = [](const std::string& in) {
    std::string out;
    for (unsigned char c : in) {
      if (c == '"') out += "\\\"";
      else if (c == '\\') out += "\\\\";
      else if (c == '\n') out += "\\n";
      else if (c == '\r') out += "\\r";
      else if (c == '\t') out += "\\t";
      else if (c < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out += buf;
      } else {
        out += static_cast<char>(c);
      }
    }
    return out;
  };
  const std::string clean = "http://example.org/univ-bench/Dept7";
  for (int c = 0; c < 256; ++c) {
    for (size_t at = 0; at <= clean.size(); at += 5) {
      std::string in = clean;
      in.insert(at, 1, static_cast<char>(c));
      ASSERT_EQ(JsonEscape(in), reference(in)) << "byte " << c << " at " << at;
    }
  }
}

TEST(ResultEncoderBytes, AppendRowsMatchesConcatenatedEncodeRow) {
  rdf::Dataset ds;
  const std::string esc = std::string("a\"b\\c\nd\re\tf") + '\x02' + "g\xc3\xa9h";
  const rdf::Term terms[] = {
      rdf::Term::Iri("http://x/plain"),
      rdf::Term::Iri("http://x/odd\"iri"),
      rdf::Term::Literal(esc),
      rdf::Term::TypedLiteral("42", "http://www.w3.org/2001/XMLSchema#integer"),
      rdf::Term::LangLiteral("bonjour \"toi\"", "fr"),
      rdf::Term::Blank("b0"),
  };
  std::vector<TermId> ids;
  for (const rdf::Term& t : terms) ids.push_back(ds.dict().GetOrAdd(t));
  // Computed (aggregate-style) terms live above the dictionary.
  sparql::LocalVocab vocab(static_cast<TermId>(ds.dict().size()));
  ids.push_back(vocab.Intern(rdf::Term::TypedLiteral(
      "2.5", "http://www.w3.org/2001/XMLSchema#double")));
  ids.push_back(vocab.Intern(rdf::Term::Literal("local\tvalue")));

  const std::vector<std::string> vars = {"a", "b\"q", "c"};
  sparql::RowBlock block;
  std::vector<sparql::Row> rows;
  for (size_t i = 0; i < 40; ++i) {
    sparql::Row r = {ids[i % ids.size()], ids[(i * 3 + 1) % ids.size()],
                     ids[(i * 5 + 2) % ids.size()]};
    if (i % 4 == 1) r[0] = kInvalidId;  // unbound cells
    if (i % 6 == 2) r[2] = kInvalidId;
    if (i == 7) r = {kInvalidId, kInvalidId, kInvalidId};  // nothing bound
    rows.push_back(r);
    block.Append(r);
  }
  for (const char* format : {"json", "tsv"}) {
    auto by_row = MakeResultEncoder(format);
    std::string expect = by_row->Header(vars);
    for (const sparql::Row& r : rows) expect += by_row->EncodeRow(vars, r, ds.dict(), &vocab);
    expect += by_row->Footer(sparql::StopCause::kNone);

    // Same rows in uneven runs: one row, then runs of 1..5 rows.
    auto by_block = MakeResultEncoder(format);
    std::string got = by_block->Header(vars);
    sparql::RowRange all = block.Tail(0);
    size_t at = 0;
    for (size_t n = 1; at < all.rows; n = n % 5 + 1) {
      size_t take = std::min(n, all.rows - at);
      by_block->AppendRows(all.Sub(at, take), ds.dict(), &vocab, &got);
      at += take;
    }
    got += by_block->Footer(sparql::StopCause::kNone);
    EXPECT_EQ(got, expect) << format;
  }
  // Spot-check the JSON bytes of one escaped literal binding.
  auto enc = MakeResultEncoder("json");
  enc->Header(vars);
  std::string one = enc->EncodeRow(vars, {ids[2], kInvalidId, ids[4]}, ds.dict(), &vocab);
  EXPECT_EQ(one, "{\"a\":{\"type\":\"literal\",\"value\":\"" + JsonEscape(esc) +
                     "\"},\"c\":{\"type\":\"literal\",\"value\":\"bonjour \\\"toi\\\"\","
                     "\"xml:lang\":\"fr\"}}");
}

// ---------------------------------------------------------------------------
// Synthetic-solver servers: deterministic control over producer behaviour.
// ---------------------------------------------------------------------------

/// Emits `total` width-1 rows; optionally blocks at a gate until the test
/// releases it (honouring control, so abandoned cursors still terminate).
class GateSolver final : public sparql::BgpSolver {
 public:
  GateSolver(const rdf::Dictionary& dict, uint64_t total, bool gated)
      : dict_(dict), total_(total), gated_(gated) {}

  util::Status Evaluate(const std::vector<sparql::TriplePattern>&,
                        const sparql::VarRegistry&, const sparql::Row&,
                        const std::vector<const sparql::FilterExpr*>&,
                        const sparql::RowSink& emit,
                        const sparql::EvalControl& control) const override {
    util::Status st = Run(emit, control);
    finished_.fetch_add(1, std::memory_order_relaxed);
    return st;
  }
  const rdf::Dictionary& dict() const override { return dict_; }

  /// Blocks until `n` Evaluate calls are waiting at the gate; false if
  /// that does not happen within the deadline.
  bool WaitForActive(int n) const {
    std::unique_lock<std::mutex> lock(mu_);
    return entered_.wait_for(lock, kDeadline, [&] { return active_ >= n; });
  }
  void Release() const {
    std::lock_guard<std::mutex> lock(mu_);
    released_ = true;
    released_cv_.notify_all();
  }
  /// Evaluate calls that have returned — however the enumeration ended
  /// (completion, downstream kStop, abandon/cancel/deadline trip).
  uint64_t finished() const { return finished_.load(std::memory_order_relaxed); }

 private:
  util::Status Run(const sparql::RowSink& emit,
                   const sparql::EvalControl& control) const {
    {
      std::unique_lock<std::mutex> lock(mu_);
      ++active_;
      entered_.notify_all();
      while (gated_ && !released_) {
        if (auto st = control.Check(); !st.ok()) {
          --active_;
          return st;
        }
        released_cv_.wait_for(lock, milliseconds(2));
      }
      --active_;
    }
    sparql::Row r(2, 0);
    const TermId n = static_cast<TermId>(dict_.size());
    for (uint64_t i = 0; i < total_; ++i) {
      if (auto st = control.Check(); !st.ok()) return st;
      r[0] = static_cast<TermId>(i % n);
      r[1] = static_cast<TermId>((i + 1) % n);
      if (emit(r) == sparql::EmitResult::kStop) return util::Status::Ok();
    }
    return util::Status::Ok();
  }

  const rdf::Dictionary& dict_;
  const uint64_t total_;
  const bool gated_;
  mutable std::mutex mu_;
  mutable std::condition_variable entered_, released_cv_;
  mutable int active_ = 0;
  mutable bool released_ = false;
  mutable std::atomic<uint64_t> finished_{0};
};

rdf::Dataset TinyData() {
  rdf::Dataset ds;
  for (int i = 0; i < 8; ++i)
    ds.Add(rdf::Term::Iri("http://x/s" + std::to_string(i)),
           rdf::Term::Iri("http://x/p"),
           rdf::Term::Iri("http://x/o" + std::to_string(i)));
  return ds;
}

const char* const kPairQuery = "SELECT ?s ?o WHERE { ?s <http://x/p> ?o . }";

TEST(ServerAdmission, SaturatedPoolAnswers503ThenRecovers) {
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 4, /*gated=*/true);
  QueryEngine engine(&solver);
  ServerConfig config;
  config.workers = 1;
  config.queue_depth = 0;  // one in flight, zero waiting: the tightest pool
  SparqlServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  // First request occupies the only worker, held at the solver gate.
  int fd = TimedDial(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      WriteHttpRequest(fd, "GET", "/sparql?format=tsv&query=" +
                                      std::string("SELECT%20?s%20?o%20WHERE%20%7B%20"
                                                  "?s%20%3Chttp://x/p%3E%20?o%20.%20%7D"))
          .ok());
  ASSERT_TRUE(solver.WaitForActive(1));

  // Saturated: the acceptor must reject instantly, not queue.
  HttpResponse rejected;
  ASSERT_TRUE(TimedGet(server.port(), "/stats", &rejected).ok());
  EXPECT_EQ(rejected.status, 503);
  EXPECT_GE(server.stats().rejected_overload, 1u);

  solver.Release();
  HttpResponse first;
  std::string leftover;
  ASSERT_TRUE(ReadHttpResponse(fd, &first, &leftover).ok());
  EXPECT_EQ(first.status, 200);
  ::close(fd);

  // Worker freed: served again (retry while the worker re-parks).
  HttpResponse again;
  for (int i = 0; i < 200; ++i) {
    if (TimedGet(server.port(), "/stats", &again).ok() && again.status == 200) break;
    std::this_thread::sleep_for(milliseconds(5));
  }
  EXPECT_EQ(again.status, 200);
  server.Stop();
}

TEST(ServerTeardown, MidStreamDisconnectAbandonsCursor) {
  rdf::Dataset ds = TinyData();
  // Far more rows than any socket buffer holds, so the worker is guaranteed
  // to still be streaming when the client vanishes.
  GateSolver solver(ds.dict(), 50'000'000, /*gated=*/false);
  QueryEngine engine(&solver);
  SparqlServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());

  int fd = TimedDial(server.port());
  ASSERT_GE(fd, 0);
  ASSERT_TRUE(
      WriteHttpRequest(fd, "GET", "/sparql?format=tsv&capacity=4&query=" +
                                      std::string("SELECT%20?s%20?o%20WHERE%20%7B%20"
                                                  "?s%20%3Chttp://x/p%3E%20?o%20.%20%7D"))
          .ok());
  // Read a little of the stream, then vanish.
  std::string leftover;
  ASSERT_TRUE(WaitForResponseByte(fd, &leftover));
  ::close(fd);

  // The next chunk write fails, the worker abandons the cursor, and cursor
  // teardown propagates kStop / abandon into the solver enumeration — the
  // producer's Evaluate must return long before its 50M rows are done.
  steady_clock::time_point deadline = steady_clock::now() + std::chrono::seconds(30);
  while (solver.finished() == 0 && steady_clock::now() < deadline)
    std::this_thread::sleep_for(milliseconds(5));
  EXPECT_EQ(solver.finished(), 1u);
  server.Stop();  // joins acceptor + workers: nothing may still be running
}

TEST(ServerScale, SixtyFourConcurrentStreamingRequests) {
  rdf::Dataset ds = TinyData();
  constexpr int kClients = 64;
  constexpr uint64_t kRows = 300;
  GateSolver solver(ds.dict(), kRows, /*gated=*/true);
  QueryEngine engine(&solver);
  ServerConfig config;
  config.workers = kClients + 4;
  config.queue_depth = kClients;
  SparqlServer server(&engine, config);
  ASSERT_TRUE(server.Start().ok());

  const std::string target =
      "/sparql?format=tsv&capacity=2&query=SELECT%20?s%20?o%20WHERE%20%7B%20"
      "?s%20%3Chttp://x/p%3E%20?o%20.%20%7D";
  std::vector<int> fds(kClients, -1);
  for (int i = 0; i < kClients; ++i) {
    fds[i] = TimedDial(server.port());
    ASSERT_GE(fds[i], 0);
    ASSERT_TRUE(WriteHttpRequest(fds[i], "GET", target).ok());
  }
  // All 64 producers held at the gate at once: 64 streaming cursors are in
  // flight over one shared engine, each on its own worker thread.
  ASSERT_TRUE(solver.WaitForActive(kClients));
  solver.Release();

  // Row-for-row parity: every body equals the materialized reference.
  sparql::Executor ex(&engine.solver());
  auto prepared = engine.Prepare(kPairQuery);
  ASSERT_TRUE(prepared.ok());
  std::string expected;
  {
    auto enc = MakeResultEncoder("tsv");
    auto rs = ex.Execute(kPairQuery);
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().rows.size(), kRows);
    expected = enc->Header(rs.value().var_names);
    for (const auto& row : rs.value().rows)
      expected += enc->EncodeRow(rs.value().var_names, row, engine.dict(),
                                 rs.value().local_vocab.get());
    expected += enc->Footer(sparql::StopCause::kNone);
  }
  for (int i = 0; i < kClients; ++i) {
    HttpResponse resp;
    std::string leftover;
    ASSERT_TRUE(ReadHttpResponse(fds[i], &resp, &leftover).ok()) << "client " << i;
    EXPECT_EQ(resp.status, 200) << "client " << i;
    EXPECT_EQ(resp.body, expected) << "client " << i;
    ::close(fds[i]);
  }
  server.Stop();
}

TEST(ServerDeadline, DeadlineBeforeFirstRowIs408MidStreamIsMarker) {
  rdf::Dataset ds = TinyData();
  GateSolver gated(ds.dict(), 8, /*gated=*/true);  // never released: deadline wins
  QueryEngine engine(&gated);
  SparqlServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  HttpResponse resp;
  ASSERT_TRUE(TimedGet(server.port(),
                      "/sparql?timeout-ms=50&query=SELECT%20?s%20?o%20WHERE%20%7B%20"
                      "?s%20%3Chttp://x/p%3E%20?o%20.%20%7D",
                      &resp)
                  .ok());
  EXPECT_EQ(resp.status, 408);
  EXPECT_NE(resp.body.find("deadline"), std::string::npos) << resp.body;
  server.Stop();
}

TEST(ServerLimits, RowBudgetStopCarriesInBodyMarkerAndTrailer) {
  rdf::Dataset ds = TinyData();
  GateSolver solver(ds.dict(), 100'000, /*gated=*/false);
  QueryEngine engine(&solver);
  SparqlServer server(&engine, ServerConfig{});
  ASSERT_TRUE(server.Start().ok());
  HttpResponse resp;
  ASSERT_TRUE(TimedGet(server.port(),
                      "/sparql?format=tsv&budget=100&query=SELECT%20?s%20?o%20WHERE%20"
                      "%7B%20?s%20%3Chttp://x/p%3E%20?o%20.%20%7D",
                      &resp)
                  .ok());
  EXPECT_EQ(resp.status, 200);  // the stream had already begun
  EXPECT_NE(resp.body.find("# stopped: row budget"), std::string::npos) << resp.body;
  EXPECT_EQ(resp.headers["x-stop-cause"], "row budget");  // chunked trailer
  server.Stop();
}

}  // namespace
}  // namespace turbo::server
