// The serving process: loads the pre-generated LUBM file, builds a
// QueryEngine (point-http, bulk-http) or a LiveStore (live-http), serves it
// through the real SparqlServer, and writes the expected body of every text
// for the load generator to check against. Set-up runs several times and
// each one is timed until a readiness request is answered.
//
// After the ready line it takes commands on stdin, one per line:
//   report        server counters and resident memory, as one JSON line
//   trace <path>  in-process replay of every text plus the store probe, as
//                 one JSON line; spans go to <path>
//   quit          stop serving and exit
#include <malloc.h>

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "alloc_counter.hpp"
#include "client.hpp"
#include "harness.hpp"
#include "rdf/loader.hpp"
#include "server/result_encoder.hpp"
#include "server/sparql_server.hpp"
#include "sparql/query_engine.hpp"
#include "sparql/turbo_solver.hpp"
#include "store/live_store.hpp"

namespace perfbench {
namespace {

using namespace turbo;

/// Far above the live band, so no compaction runs while traffic is timed.
constexpr size_t kCompactThreshold = 16 * BatchStream::kBand;

struct ServeOptions {
  std::string nt, catalog, workload, expect;
  uint64_t seed = 1;
  int reps = 3;
  bool trace = false;
  bool live() const { return workload == "live-http"; }
};

/// What one set-up builds. The server is declared last so it stops before
/// what it serves is destroyed.
struct Service {
  std::shared_ptr<sparql::QueryEngine> engine;  // point-http, bulk-http
  std::unique_ptr<store::LiveStore> store;      // live-http
  std::unique_ptr<server::SparqlServer> server;

  std::shared_ptr<const sparql::QueryEngine> base() const {
    return engine ? engine : store->snapshot()->engine;
  }
};

struct SetupTimes {
  bool traced = false;
  double setup_s = 0, load_ms = 0, parse_ms = 0, merge_ms = 0, build_ms = 0,
         base_index_ms = 0;
  uint64_t triples = 0;
};

/// Applies `b` to `store` and checks the reply against the stream. Empty on
/// success.
std::string ApplyChecked(store::LiveStore* store, const Batch& b) {
  auto r = store->Update(b.text);
  if (!r.ok()) return "update " + std::to_string(b.index) + ": " + r.message();
  const store::LiveStore::UpdateResult& u = r.value();
  if (u.inserted != b.inserted || u.deleted != b.deleted || u.delta_adds != b.delta_adds ||
      u.tombstones != b.tombstones)
    return "update " + std::to_string(b.index) + " counts differ from the batch stream";
  return {};
}

/// One timed set-up: load, build, fill the live delta, start, readiness.
std::string SetUp(const ServeOptions& o, const Catalog& catalog, SpanLog* spans, int rep,
                  Service* svc, SetupTimes* t) {
  const Clock::time_point t0 = Clock::now();
  auto loaded = rdf::LoadNTriplesFile(o.nt);
  if (!loaded.ok()) return "load: " + loaded.message();
  const Clock::time_point t1 = Clock::now();
  t->load_ms = Ms(t0, t1);
  t->parse_ms = loaded.value().stats.parse_ms;
  t->merge_ms = loaded.value().stats.merge_ms;
  t->triples = loaded.value().dataset.size();

  if (o.live()) {
    store::LiveStore::Config cfg;
    cfg.compact_threshold = kCompactThreshold;
    svc->store = std::make_unique<store::LiveStore>(std::move(loaded.value().dataset), cfg);
  } else {
    svc->engine = std::make_shared<sparql::QueryEngine>(std::move(loaded.value().dataset));
  }
  const Clock::time_point t2 = Clock::now();
  t->build_ms = Ms(t1, t2);

  if (o.live()) {
    // The first update builds the base index lazily; it lands here, in
    // set-up, and not in the timed window.
    BatchStream batches(catalog, o.seed);
    for (uint64_t i = 0; i < BatchStream::kLag; ++i) {
      Clock::time_point b0 = Clock::now();
      if (std::string err = ApplyChecked(svc->store.get(), batches.Next()); !err.empty())
        return err;
      if (i == 0) t->base_index_ms = Ms(b0, Clock::now());
    }
  }
  const Clock::time_point t3 = Clock::now();

  server::ServerConfig config;
  svc->server = o.live() ? std::make_unique<server::SparqlServer>(svc->store.get(), config)
                         : std::make_unique<server::SparqlServer>(svc->engine.get(), config);
  if (util::Status st = svc->server->Start(); !st.ok()) return "start: " + st.message();
  HttpConn probe;
  HttpReply reply;
  std::string err;
  const Clock::time_point deadline = Clock::now() + std::chrono::seconds(10);
  if (!probe.Dial(svc->server->port(), deadline, &err) ||
      !probe.RoundTrip("GET /stats HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n",
                       deadline, &reply, &err))
    return "readiness: " + err;
  if (reply.status != 200) return "readiness: status " + std::to_string(reply.status);
  probe.Close();
  const Clock::time_point t4 = Clock::now();
  t->setup_s = Ms(t0, t4) / 1e3;

  if (t->traced) {
    int root = spans->Add("setup", -1, static_cast<uint64_t>(rep), t0, t4);
    spans->Add("rdf.load", root, static_cast<uint64_t>(rep), t0, t1);
    spans->Add(o.live() ? "store.build" : "graph.build", root, static_cast<uint64_t>(rep), t1,
               t2);
    if (o.live()) spans->Add("store.fill", root, static_cast<uint64_t>(rep), t2, t3);
    spans->Add("server.start", root, static_cast<uint64_t>(rep), t3, t4);
  }
  return {};
}

/// Drains a materialized cursor through the public JSON encoder.
std::string BuildExpected(const sparql::QueryEngine& eng, const QueryText& q, Expected* e) {
  e->tmpl = q.tmpl;
  e->text = q.text;
  auto cursor = eng.Open(q.text);
  if (!cursor.ok()) return "expected Q" + std::to_string(q.tmpl) + ": " + cursor.message();
  sparql::Cursor& cur = cursor.value();
  std::unique_ptr<server::ResultEncoder> enc = server::MakeResultEncoder("json");
  e->header = enc->Header(cur.var_names());
  std::shared_ptr<const sparql::LocalVocab> vocab = cur.local_vocab();
  sparql::Row row;
  while (cur.Next(&row)) {
    std::string s = enc->EncodeRow(cur.var_names(), row, eng.dict(), vocab.get());
    std::string_view v = s;
    if (v.starts_with(",\n")) v.remove_prefix(2);
    ++e->rows;
    e->row_hash += RowHash(v);
  }
  if (!cur.status().ok()) return "expected Q" + std::to_string(q.tmpl) + ": " + cur.status().message();
  e->footer = enc->Footer(cur.stop_cause());
  return {};
}

/// Counters and resident memory. Freed heap is returned to the system
/// first, so the figure is what the service holds, not allocator caches left
/// by the last requests.
std::string Report(const Service& svc) {
  malloc_trim(0);
  server::ServerStats s = svc.server->stats();
  JsonObject j;
  j.Num("rss_kb", static_cast<double>(ResidentKb()))
      .Num("requests", static_cast<double>(s.requests))
      .Num("rejected", static_cast<double>(s.rejected_overload))
      .Num("bad", static_cast<double>(s.bad_requests))
      .Num("hits", static_cast<double>(s.plan_cache_hits))
      .Num("misses", static_cast<double>(s.plan_cache_misses))
      .Num("revalidations", static_cast<double>(s.plan_cache_revalidations))
      .Num("updates", static_cast<double>(s.updates));
  if (svc.store) {
    store::LiveStore::Stats ls = svc.store->stats();
    j.Num("compactions", static_cast<double>(ls.compactions))
        .Num("delta_adds", static_cast<double>(ls.delta_adds))
        .Num("tombstones", static_cast<double>(ls.tombstones));
  }
  return j.str();
}

// ---------------------------------------------------------------------------
// The traced replay: each text handled in-process the way the server does.
// ---------------------------------------------------------------------------

struct Replay {
  double prepare_us = 0, open_us = 0, first_row_us = 0, replay_ms = 0, encode_ms = 0,
         drain_stream_ms = 0, drain_mat_ms = 0, store_ms = 0;
  uint64_t rows = 0, allocs = 0;
  engine::MatchStats match;
};

std::string ReplayOne(const Service& svc, const std::string& text, SpanLog* spans,
                      uint64_t request, Replay* r) {
  std::shared_ptr<const sparql::QueryEngine> eng = svc.base();
  std::shared_ptr<const store::LiveStore::Snapshot> snap;
  if (svc.store) snap = svc.store->snapshot();

  const Clock::time_point t0 = Clock::now();
  auto prepared = eng->Prepare(text);
  if (!prepared.ok()) return prepared.message();
  const Clock::time_point t1 = Clock::now();

  sparql::ExecOptions opts;
  opts.streaming = true;
  const uint64_t allocs0 = bench::AllocCount();
  auto cursor = snap ? store::LiveStore::OpenAt(snap, prepared.value(), opts)
                     : eng->Open(prepared.value(), opts);
  if (!cursor.ok()) return cursor.message();
  sparql::Cursor& cur = cursor.value();
  const Clock::time_point t2 = Clock::now();
  sparql::Row row;
  bool has = cur.Next(&row);
  const Clock::time_point t3 = Clock::now();

  std::unique_ptr<server::ResultEncoder> enc = server::MakeResultEncoder("json");
  const rdf::Dictionary& dict = snap ? snap->dict() : eng->dict();
  std::shared_ptr<const sparql::LocalVocab> vocab = cur.local_vocab();
  std::string body = enc->Header(cur.var_names());
  while (has) {
    body += enc->EncodeRow(cur.var_names(), row, dict, vocab.get());
    ++r->rows;
    has = cur.Next(&row);
  }
  if (!cur.status().ok()) return cur.status().message();
  body += enc->Footer(cur.stop_cause());
  const Clock::time_point t4 = Clock::now();
  r->allocs = bench::AllocCount() - allocs0;

  r->prepare_us = Ms(t0, t1) * 1e3;
  r->open_us = Ms(t1, t2) * 1e3;
  r->first_row_us = Ms(t2, t3) * 1e3;
  r->replay_ms = Ms(t1, t4);

  // Materialized drain on the engine, with the matcher's split.
  const sparql::TurboBgpSolver* turbo_solver = eng->turbo_solver();
  turbo_solver->ResetStats();
  const Clock::time_point t5 = Clock::now();
  auto mat = eng->Open(prepared.value());
  if (!mat.ok()) return mat.message();
  uint64_t mat_rows = 0;
  while (mat.value().Next(&row)) ++mat_rows;
  const Clock::time_point t6 = Clock::now();
  r->match = turbo_solver->last_stats();
  r->drain_mat_ms = Ms(t5, t6);
  if (mat_rows != r->rows) return "streamed and materialized row counts differ";

  // Encoding alone, over the same rows held in memory: the streamed drain
  // less this is the drain with encoding excluded (no timer inside the
  // streamed loop, so replay_ms stays the server's own pace).
  auto again = eng->Open(prepared.value());
  if (!again.ok()) return again.message();
  std::vector<sparql::Row> rows;
  while (again.value().Next(&row)) rows.push_back(row);
  std::shared_ptr<const sparql::LocalVocab> mat_vocab = again.value().local_vocab();
  std::unique_ptr<server::ResultEncoder> enc2 = server::MakeResultEncoder("json");
  std::string sink = enc2->Header(again.value().var_names());
  const Clock::time_point t7 = Clock::now();
  for (const sparql::Row& x : rows)
    sink += enc2->EncodeRow(again.value().var_names(), x, dict, mat_vocab.get());
  r->encode_ms = Ms(t7, Clock::now());
  r->drain_stream_ms = r->replay_ms - r->encode_ms;

  int root = spans->Add("replay", -1, request, t0, t6);
  spans->Add("sparql.prepare", root, request, t0, t1);
  spans->Add("sparql.open", root, request, t1, t2);
  spans->Add("sparql.first_row", root, request, t2, t3);
  spans->Add("sparql.drain_stream", root, request, t3, t4);
  spans->Add("sparql.drain_mat", root, request, t5, t6);
  return {};
}

/// Materialized drain through LiveStore::Open at the store's current epoch
/// (timed like drain_mat_ms: Open and drain, Prepare excluded).
std::string StoreDrain(const store::LiveStore& st, const std::string& text, double* ms) {
  auto prepared = st.Prepare(text);
  if (!prepared.ok()) return prepared.message();
  const Clock::time_point t0 = Clock::now();
  auto cur = st.Open(prepared.value());
  if (!cur.ok()) return cur.message();
  sparql::Row row;
  while (cur.value().Next(&row)) {
  }
  if (!cur.value().status().ok()) return cur.value().status().message();
  *ms = Ms(t0, Clock::now());
  return {};
}

std::string Trace(const ServeOptions& o, const Catalog& catalog, Service* svc,
                  const std::vector<Expected>& texts, const std::vector<SetupTimes>& setups,
                  SpanLog* spans, std::string* out) {
  // Few texts (bulk) are replayed several times; the pool once each.
  const size_t reps = std::max<size_t>(1, 12 / texts.size());
  std::vector<Replay> replays(texts.size() * reps);
  uint64_t request = 0;
  for (size_t rep = 0; rep < reps; ++rep)
    for (size_t i = 0; i < texts.size(); ++i)
      if (std::string err = ReplayOne(*svc, texts[i].text, spans, request++,
                                      &replays[rep * texts.size() + i]);
          !err.empty())
        return "replay Q" + std::to_string(texts[i].tmpl) + ": " + err;

  // The store probe: on live-http the serving store as the window left it;
  // elsewhere a LiveStore over a copy of the served dataset, filled by the
  // same batch stream.
  std::unique_ptr<store::LiveStore> probe;
  std::vector<double> update_ms;
  double base_index_ms = 0;
  store::LiveStore* st = svc->store.get();
  if (!st) {
    rdf::Dataset copy = *svc->engine->dataset();
    probe = std::make_unique<store::LiveStore>(std::move(copy));
    st = probe.get();
    BatchStream batches(catalog, o.seed);
    for (uint64_t i = 0; i < BatchStream::kLag; ++i) {
      Clock::time_point b0 = Clock::now();
      if (std::string err = ApplyChecked(st, batches.Next()); !err.empty()) return err;
      (i == 0 ? base_index_ms : update_ms.emplace_back()) = Ms(b0, Clock::now());
    }
  } else {
    // live-http: the first update of each set-up; the update latency is the
    // client-observed one.
    std::vector<double> firsts;
    for (const SetupTimes& t : setups) firsts.push_back(t.base_index_ms);
    base_index_ms = PercentileOf(firsts, 0.5).value;
  }
  for (size_t rep = 0; rep < reps; ++rep)
    for (size_t i = 0; i < texts.size(); ++i)
      if (std::string err =
              StoreDrain(*st, texts[i].text, &replays[rep * texts.size() + i].store_ms);
          !err.empty())
        return "store replay Q" + std::to_string(texts[i].tmpl) + ": " + err;
  store::LiveStore::Stats ls = st->stats();
  const Clock::time_point c0 = Clock::now();
  if (util::Status s = st->Compact(); !s.ok()) return "compact: " + s.message();
  const double compact_ms = Ms(c0, Clock::now());

  std::string records = "[";
  for (size_t k = 0; k < replays.size(); ++k) {
    const Replay& r = replays[k];
    const engine::MatchStats& m = r.match;
    JsonObject j;
    j.Num("id", static_cast<double>(k % texts.size()))
        .Num("rows", static_cast<double>(r.rows))
        .Num("allocs", static_cast<double>(r.allocs))
        .Num("prepare_us", r.prepare_us)
        .Num("open_us", r.open_us)
        .Num("first_row_us", r.first_row_us)
        .Num("replay_ms", r.replay_ms)
        .Num("encode_ms", r.encode_ms)
        .Num("drain_stream_ms", r.drain_stream_ms)
        .Num("drain_mat_ms", r.drain_mat_ms)
        .Num("store_ms", r.store_ms)
        .Num("order_ms", m.order_ms)
        .Num("explore_ms", m.explore_ms)
        .Num("search_ms", m.search_ms)
        .Num("sig_checks", static_cast<double>(m.sig_checks))
        .Num("sig_prunes", static_cast<double>(m.sig_prunes))
        .Num("regions", static_cast<double>(m.num_regions))
        .Num("starts", static_cast<double>(m.num_start_candidates));
    records += (k ? "," : "") + j.str();
  }
  records += "]";

  std::string setup_list = "[";
  for (size_t k = 0; k < setups.size(); ++k) {
    const SetupTimes& t = setups[k];
    setup_list += (k ? "," : "") + JsonObject()
                                       .Num("load_ms", t.load_ms)
                                       .Num("parse_ms", t.parse_ms)
                                       .Num("merge_ms", t.merge_ms)
                                       .Num("build_ms", t.build_ms)
                                       .str();
  }
  setup_list += "]";

  std::shared_ptr<const sparql::QueryEngine> eng = svc->base();
  const double graph_bytes = static_cast<double>(eng->data_graph()->MemoryUsage().total());
  *out = JsonObject()
             .Raw("replays", records)
             .Raw("setups", setup_list)
             .Raw("probe_update_ms", JsonNumbers(update_ms))
             .Num("bytes_per_triple", graph_bytes / static_cast<double>(setups.back().triples))
             .Num("base_index_ms", base_index_ms)
             .Num("delta_triples", static_cast<double>(ls.delta_adds + ls.tombstones))
             .Num("compact_ms", compact_ms)
             .str();
  return {};
}

}  // namespace

int RunServe(const std::map<std::string, std::string>& args) {
  ServeOptions o;
  o.nt = args.at("nt");
  o.catalog = args.at("catalog");
  o.workload = args.at("workload");
  o.expect = args.at("expect");
  o.seed = std::stoull(args.at("seed"));
  o.reps = std::stoi(args.at("reps"));
  o.trace = args.at("trace") == "1";
  if (o.workload != "point-http" && o.workload != "bulk-http" && o.workload != "live-http") {
    std::fprintf(stderr, "serve: unknown workload %s\n", o.workload.c_str());
    return 2;
  }
  auto catalog = ReadCatalog(o.catalog);
  if (!catalog.ok()) {
    std::fprintf(stderr, "serve: %s\n", catalog.message().c_str());
    return 2;
  }

  // In a traced run every other set-up records spans, so the traced and
  // untraced set-up times come from the same process.
  SpanLog spans(Clock::now(), 0);
  Service svc;
  std::vector<SetupTimes> setups;
  for (int rep = 0; rep < o.reps; ++rep) {
    if (rep > 0) {
      svc = Service();
      malloc_trim(0);
    }
    SetupTimes t;
    t.traced = o.trace && rep % 2 == 1;
    if (std::string err = SetUp(o, catalog.value(), &spans, rep, &svc, &t); !err.empty()) {
      std::fprintf(stderr, "serve: set-up failed: %s\n", err.c_str());
      return 1;
    }
    setups.push_back(t);
  }

  const std::vector<QueryText> texts = o.workload == "bulk-http"
                                           ? BulkTexts()
                                           : PointPool(catalog.value(), o.seed);
  std::vector<Expected> expected(texts.size());
  std::shared_ptr<const sparql::QueryEngine> base = svc.base();
  for (size_t i = 0; i < texts.size(); ++i)
    if (std::string err = BuildExpected(*base, texts[i], &expected[i]); !err.empty()) {
      std::fprintf(stderr, "serve: %s\n", err.c_str());
      return 1;
    }
  base.reset();
  if (util::Status st = WriteExpected(expected, o.expect); !st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.message().c_str());
    return 1;
  }

  std::string setup_list = "[";
  for (size_t k = 0; k < setups.size(); ++k)
    setup_list += (k ? "," : "") + JsonObject()
                                       .Num("traced", setups[k].traced)
                                       .Num("setup_s", setups[k].setup_s)
                                       .str();
  setup_list += "]";
  std::printf("%s\n", JsonObject()
                          .Num("port", svc.server->port())
                          .Num("texts", static_cast<double>(texts.size()))
                          .Raw("setups", setup_list)
                          .str()
                          .c_str());
  std::fflush(stdout);

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "quit") break;
    if (line == "report") {
      std::printf("%s\n", Report(svc).c_str());
    } else if (line.starts_with("trace ")) {
      std::string out;
      std::string err = Trace(o, catalog.value(), &svc, expected, setups, &spans, &out);
      if (!err.empty()) {
        std::fprintf(stderr, "serve: trace failed: %s\n", err.c_str());
        std::printf("{\"error\":1}\n");
      } else {
        std::string json = "[";
        spans.AppendJson(&json);
        json += "]\n";
        if (FILE* f = std::fopen(line.substr(6).c_str(), "w")) {
          std::fwrite(json.data(), 1, json.size(), f);
          std::fclose(f);
        }
        std::printf("%s\n", out.c_str());
      }
    } else {
      std::printf("{\"error\":1}\n");
    }
    std::fflush(stdout);
  }
  svc.server->Stop();
  return 0;
}

}  // namespace perfbench
