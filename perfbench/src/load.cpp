// The load generator: one process, a fixed set of closed-loop keep-alive
// connections (2 readers on point-http, 1 on bulk-http, 2 readers and 1
// writer on live-http). Every reply is checked against the serving side's
// expected bodies or the seeded batch stream; a wrong body, a non-200
// status, a refused connection and a timeout each count as a failed
// operation. Prints one JSON line of window figures.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "client.hpp"
#include "harness.hpp"

namespace perfbench {
namespace {

using turbo::util::Rng;

struct LoadOptions {
  uint16_t port = 0;
  std::string expect, catalog, workload, samples_out, spans_out;
  uint64_t seed = 1;
  double seconds = 10, warmup = 1;
  uint64_t first_batch = BatchStream::kLag;  ///< set-up applied the ones before
  bool trace = false;
};

/// A completed request inside the window. `text` is -1 for an update.
struct Sample {
  int text = -1;
  double latency_ms = 0, ttfb_ms = 0;
  uint64_t rows = 0, bytes = 0;
  Clock::time_point due, checked;
};

struct ConnResult {
  explicit ConnResult(Clock::time_point origin, uint32_t thread) : spans(origin, thread) {}
  Tally tally;
  std::vector<Sample> samples;
  std::vector<std::string> errors;
  SpanLog spans;
};

struct Plan {
  const LoadOptions* o = nullptr;
  const Catalog* catalog = nullptr;
  std::vector<Expected> expected;
  std::vector<std::string> requests;  ///< raw GET per expected text
  Clock::time_point start, window_start, window_end;
};

std::chrono::milliseconds Timeout(const std::string& workload) {
  return std::chrono::milliseconds(workload == "bulk-http" ? 30000 : 5000);
}

/// A closed loop of `next` requests over one connection until the window
/// closes. `next` fills the request bytes and returns a checker for the reply.
template <typename Next>
void ClosedLoop(const Plan& plan, uint32_t conn_id, ConnResult* out, Next next) {
  HttpConn conn;
  ClosedLoopClock clock(plan.start);
  const auto timeout = Timeout(plan.o->workload);
  for (uint64_t i = 0; clock.due() < plan.window_end; ++i) {
    const Clock::time_point due = clock.due();
    std::string request;
    Sample s;
    auto check = next(&request, &s);
    HttpReply reply;
    std::string err;
    const Clock::time_point deadline = Clock::now() + timeout;
    bool ok = (conn.connected() || conn.Dial(plan.o->port, deadline, &err)) &&
              conn.RoundTrip(request, deadline, &reply, &err);
    const Clock::time_point sent_done = Clock::now();
    if (ok && reply.status != 200) {
      ok = false;
      err = "status " + std::to_string(reply.status) + ": " + reply.body.substr(0, 200);
    }
    if (ok) {
      err = check(reply);
      ok = err.empty();
    }
    const Clock::time_point checked = Clock::now();
    s.latency_ms = clock.Complete(checked);
    s.due = due;
    s.checked = checked;
    if (ok) {
      out->tally.Ok();
      s.ttfb_ms = Ms(due, reply.first_byte);
      s.bytes = reply.body.size();
      if (due >= plan.window_start && checked <= plan.window_end) {
        out->samples.push_back(s);
        if (plan.o->trace) {
          const uint64_t req = (static_cast<uint64_t>(conn_id) << 32) | i;
          int root = out->spans.Add("client.request", -1, req, due, checked);
          out->spans.Add("client.first_byte", root, req, due, reply.first_byte);
          out->spans.Add("client.body", root, req, reply.first_byte, sent_done);
          out->spans.Add("client.check", root, req, sent_done, checked);
        }
      }
    } else {
      out->tally.Fail();
      if (out->errors.size() < 5) out->errors.push_back(err);
      conn.Close();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));  // no hot retry loop
    }
  }
}

void Reader(const Plan& plan, uint32_t conn_id, ConnResult* out) {
  const bool bulk = plan.o->workload == "bulk-http";
  Rng rng(MixSeed(plan.o->seed, 100 + conn_id));
  const ZipfSampler zipf(plan.expected.size(), kZipfS);
  size_t cycle = BulkCycleStart(plan.o->seed);
  ClosedLoop(plan, conn_id, out, [&](std::string* request, Sample* s) {
    const size_t id = bulk ? static_cast<size_t>(kBulkCycle[cycle++ % std::size(kBulkCycle)])
                           : zipf.Draw(rng);
    *request = plan.requests[id];
    s->text = static_cast<int>(id);
    s->rows = plan.expected[id].rows;
    return [&plan, id](const HttpReply& r) { return CheckBody(plan.expected[id], r.body); };
  });
}

uint64_t JsonField(const std::string& body, const char* key) {
  size_t at = body.find(std::string("\"") + key + "\":");
  if (at == std::string::npos) return UINT64_MAX;
  return std::strtoull(body.c_str() + at + std::strlen(key) + 3, nullptr, 10);
}

void Writer(const Plan& plan, uint32_t conn_id, ConnResult* out) {
  BatchStream batches(*plan.catalog, plan.o->seed);
  for (uint64_t i = 0; i < plan.o->first_batch; ++i) batches.Next();  // already applied
  ClosedLoop(plan, conn_id, out, [&](std::string* request, Sample*) {
    Batch b = batches.Next();
    *request = UpdateRequest(b.text);
    return [b](const HttpReply& r) -> std::string {
      if (JsonField(r.body, "inserted") != b.inserted || JsonField(r.body, "deleted") != b.deleted ||
          JsonField(r.body, "delta_adds") != b.delta_adds ||
          JsonField(r.body, "tombstones") != b.tombstones)
        return "update " + std::to_string(b.index) + " reply differs from the batch stream: " +
               r.body;
      return {};
    };
  });
}

/// A fixed CPU-bound loop; its time flags slow host periods.
double SpinProbeMs() {
  const Clock::time_point t0 = Clock::now();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (uint32_t i = 0; i < 100'000'000u; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = Ms(t0, Clock::now());
  if (x == 42) std::fprintf(stderr, "spin\n");  // keeps the loop
  return ms;
}

std::string PercentileJson(const std::vector<double>& v, double q) {
  Percentile p = PercentileOf(v, q);
  return JsonObject()
      .Num("value", p.value)
      .Num("samples", static_cast<double>(p.samples))
      .Num("beyond", static_cast<double>(p.beyond))
      .Num("valid", p.valid())
      .str();
}

/// Completed requests per second in each 1-second slice of the window.
std::string SliceRates(const std::vector<std::unique_ptr<ConnResult>>& results, const Plan& plan) {
  std::vector<double> slices(static_cast<size_t>(Ms(plan.window_start, plan.window_end) / 1e3), 0);
  for (const auto& r : results)
    for (const Sample& s : r->samples) {
      size_t k = static_cast<size_t>(Ms(plan.window_start, s.checked) / 1e3);
      if (k < slices.size()) slices[k] += 1;
    }
  return JsonNumbers(slices);
}

}  // namespace

int RunLoad(const std::map<std::string, std::string>& args) {
  LoadOptions o;
  o.port = static_cast<uint16_t>(std::stoi(args.at("port")));
  o.expect = args.at("expect");
  o.catalog = args.at("catalog");
  o.workload = args.at("workload");
  o.seed = std::stoull(args.at("seed"));
  o.seconds = std::stod(args.at("seconds"));
  o.warmup = std::stod(args.at("warmup"));
  o.trace = args.at("trace") == "1";
  if (args.count("first-batch")) o.first_batch = std::stoull(args.at("first-batch"));
  if (o.trace) {
    o.samples_out = args.at("samples");
    o.spans_out = args.at("spans");
  }

  auto catalog = ReadCatalog(o.catalog);
  auto expected = ReadExpected(o.expect);
  if (!catalog.ok() || !expected.ok() || expected.value().empty()) {
    std::fprintf(stderr, "load: cannot read inputs\n");
    return 2;
  }
  Plan plan;
  plan.o = &o;
  plan.catalog = &catalog.value();
  plan.expected = std::move(expected.value());
  for (const Expected& e : plan.expected) plan.requests.push_back(QueryRequest(e.text));

  const double spin_before = SpinProbeMs();
  plan.start = Clock::now();
  plan.window_start = plan.start + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(o.warmup));
  plan.window_end = plan.window_start + std::chrono::duration_cast<Clock::duration>(
                                            std::chrono::duration<double>(o.seconds));

  const bool live = o.workload == "live-http";
  const uint32_t readers = o.workload == "bulk-http" ? 1 : 2;
  std::vector<std::unique_ptr<ConnResult>> results;
  std::vector<std::thread> threads;
  for (uint32_t c = 0; c < readers + (live ? 1 : 0); ++c)
    results.push_back(std::make_unique<ConnResult>(plan.start, c));
  for (uint32_t c = 0; c < readers; ++c)
    threads.emplace_back(Reader, std::cref(plan), c, results[c].get());
  if (live) threads.emplace_back(Writer, std::cref(plan), readers, results[readers].get());
  for (std::thread& t : threads) t.join();
  const double spin_after = SpinProbeMs();

  // Throughput per connection over the span its window samples cover (first
  // due time to last check), so a request cut off by the window's edges
  // does not count as idle time; the rates of the connections add up.
  double qps = 0, rows_per_s = 0;
  for (const auto& r : results) {
    if (r->samples.size() < 2) continue;
    const double span_s = Ms(r->samples.front().due, r->samples.back().checked) / 1e3;
    double conn_rows = 0;
    for (const Sample& s : r->samples) conn_rows += static_cast<double>(s.rows);
    qps += static_cast<double>(r->samples.size()) / span_s;
    rows_per_s += conn_rows / span_s;
  }

  Tally tally;
  std::vector<double> all, ttfb, updates;
  std::map<int, std::vector<double>> by_class;  // LUBM query number, 0 = update
  double rows = 0, bytes = 0;
  std::vector<std::string> errors;
  for (const auto& r : results) {
    tally.Add(r->tally);
    for (const Sample& s : r->samples) {
      all.push_back(s.latency_ms);
      if (s.text < 0) {
        updates.push_back(s.latency_ms);
        by_class[0].push_back(s.latency_ms);
        continue;
      }
      ttfb.push_back(s.ttfb_ms);
      by_class[plan.expected[static_cast<size_t>(s.text)].tmpl].push_back(s.latency_ms);
      rows += static_cast<double>(s.rows);
      bytes += static_cast<double>(s.bytes);
    }
    errors.insert(errors.end(), r->errors.begin(), r->errors.end());
  }

  std::string classes = "{";
  for (const auto& [tmpl, v] : by_class) {
    classes += (classes.size() > 1 ? "," : "") + std::string("\"") +
               (tmpl ? "Q" + std::to_string(tmpl) : "update") + "\":" +
               JsonObject()
                   .Num("n", static_cast<double>(v.size()))
                   .Num("p10_ms", PercentileOf(v, 0.1).value)
                   .Num("p50_ms", PercentileOf(v, 0.5).value)
                   .Num("p90_ms", PercentileOf(v, 0.9).value)
                   .str();
  }
  classes += "}";
  std::string error_list = "[";
  for (size_t i = 0; i < errors.size(); ++i)
    error_list += (i ? "," : "") + JsonObject().Str("e", errors[i]).str();
  error_list += "]";

  if (o.trace) {
    if (FILE* f = std::fopen(o.samples_out.c_str(), "w")) {
      for (const auto& r : results)
        for (const Sample& s : r->samples)
          if (s.text >= 0) std::fprintf(f, "%d %.6f %.6f\n", s.text, s.latency_ms, s.ttfb_ms);
      std::fclose(f);
    }
    std::string json = "[";
    for (const auto& r : results) r->spans.AppendJson(&json);
    json += "]\n";
    if (FILE* f = std::fopen(o.spans_out.c_str(), "w")) {
      std::fwrite(json.data(), 1, json.size(), f);
      std::fclose(f);
    }
  }

  std::printf("%s\n",
              JsonObject()
                  .Num("attempted", static_cast<double>(tally.attempted))
                  .Num("failed", static_cast<double>(tally.failed))
                  .Num("completed", static_cast<double>(all.size()))
                  .Num("qps", qps)
                  .Num("rows_per_s", rows_per_s)
                  .Num("bytes_per_row", rows > 0 ? bytes / rows : 0)
                  .Raw("p50", PercentileJson(all, 0.5))
                  .Raw("p90", PercentileJson(all, 0.9))
                  .Raw("ttfb_p50", PercentileJson(ttfb, 0.5))
                  .Raw("update_p50", PercentileJson(updates, 0.5))
                  .Num("reads", static_cast<double>(ttfb.size()))
                  .Num("updates", static_cast<double>(updates.size()))
                  .Raw("slices", SliceRates(results, plan))
                  .Num("spin_before_ms", spin_before)
                  .Num("spin_after_ms", spin_after)
                  .Raw("classes", classes)
                  .Raw("errors", error_list)
                  .str()
                  .c_str());
  return 0;
}

}  // namespace perfbench
