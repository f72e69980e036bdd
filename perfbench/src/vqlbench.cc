// vqlbench: the end-to-end benchmark's load generator and checker.
//
//   vqlbench --workload lookup|analytics|ingest --seed N --seconds S
//            --trace 0|1 --vqlsrv PATH --workdir DIR
//            [--size toy|small|medium|large]
//            [--build-type T] [--commit C] [--record-dir DIR]
//   vqlbench --check-oracle        oracle self test (corrupted answers)
//
// One run: generate the workload's archive from the seed, start the stock
// vqlsrv on it at least kSetups times (timing each start until every
// pooled session has answered), drive the last one over loopback for
// `--seconds` with the workload's clients, scrape /metrics at both ends of
// the window, check every answer against the oracle, and print the
// end-to-end metrics. With `--trace 1` the server starts once, the window
// runs for its counters and client latencies, and then the start of its
// request stream is replayed in-process, every other request with spans
// (replay.h), for the per-layer metrics. The last stdout line is the JSON
// result; a run that cannot support its figures (too few reads beyond
// read_p99_ms, or a tracing overhead above kMaxTraceOverhead) reports
// "correct": false.

#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/src/archive.h"
#include "perfbench/src/replay.h"
#include "perfbench/src/server_proc.h"
#include "perfbench/src/workload.h"
#include "src/server/client.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace srv = vqldb::server;

// At most three client connections in one process (the load host has four
// cores, and the server uses one IO thread plus two workers).
constexpr size_t kClients = 3;

// Closed-loop browse readers in the window: never more than the server's
// two workers, since a reader beyond them only queues, and its wait
// measures the host's scheduler. With three readers, lookup's read_p99_ms
// was a read that had waited behind another, and spread 31% over ten
// seeds. `analytics` has one: with more in flight its reads, which then
// took 1-3 ms, moved about twice as much as the host's speed between runs.
// `ingest` has two beside its annotator.
size_t Browsers(WorkloadKind w) {
  return w == WorkloadKind::kAnalytics ? 1 : 2;
}

// Ingest: the annotator's fixed schedule, one new scene per slot. Each
// write costs the two workers a snapshot rebuild (~70 ms) and a session
// clone each (~240 ms). At two slots a second that was over half their
// time, so a slower host pushed them into saturation and read_p50_ms moved
// 2-3x between runs (19-44 ms in five interleaved seeds, against 18-23 ms
// at one slot a second). At one slot a second the reads that wait behind a
// clone (a few percent of reads) still hold read_p99_ms.
constexpr int64_t kWritePeriodMs = 1000;
// Traced replay: the number of pass pairs, and the share of the window
// replayed. One pass of a pair traces the stream's even requests, the other
// its odd ones, so every request is traced once per pair. Together they
// keep a traced lookup run near a minute. `analytics`, with one reader,
// replays three seconds: the same few hundred requests the other
// workloads send in one, which the tracing-overhead estimate needs (on 70
// requests it read 6.7% where 200 gave 1.7%).
constexpr int kReplayPairs = 3;
double ReplaySeconds(WorkloadKind w) {
  return w == WorkloadKind::kAnalytics ? 3.0 : 1.0;
}
// Validity: a traced run whose spans cost more than this share of request
// time is not a valid trace, and read_p99_ms needs this many reads beyond it.
constexpr double kMaxTraceOverhead = 0.05;
constexpr size_t kTailSamples = 10;
// setup_s: the median of at least kSetups starts, and of up to kMaxSetups
// while they add up to less than kSetupBudgetS (small archives start in
// milliseconds).
constexpr int kSetups = 3;
constexpr int kMaxSetups = 7;
constexpr double kSetupBudgetS = 2.0;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double Ms(int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Nearest-rank quantile of an unsorted sample (0 for an empty one).
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// The 99th percentile by nearest rank, or, in a sample of fewer than
// 100 * kTailSamples, the highest rank with kTailSamples beyond it; sets
// `beyond` to the number of samples above the rank returned.
double TailQuantile(std::vector<double> v, size_t* beyond) {
  *beyond = 0;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(0.99 * static_cast<double>(v.size())));
  if (v.size() > kTailSamples) rank = std::min(rank, v.size() - kTailSamples);
  rank = std::max<size_t>(rank, 1);
  *beyond = v.size() - rank;
  return v[rank - 1];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  vqldb::Rng rng(seed * 0x2545f4914f6cdd1dULL + salt);
  return rng.Next();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string vqlsrv;
  std::string workdir = ".bench_work";
  std::string size;  // default: the workload's own
  std::string build_type = "unknown";
  std::string commit = "unknown";
  std::string record_dir;
  bool check_oracle = false;
};

// ------------------------------------------------------------------ load

struct ReadSample {
  Op op;
  int64_t sent = 0, recv = 0;
  bool status_ok = false;
  bool parsed = false;
  Digest digest;
  std::string body;  // ingest only: checked against the write log
  bool fresh = false;
};

struct WriteSample {
  uint32_t scene = 0;
  int64_t due = 0, sent = 0, acked = 0;
  bool ok = false;
};

struct LoadResult {
  std::vector<double> setup_s;
  std::vector<ReadSample> warm;
  std::vector<ReadSample> reads;  // browse reads and ingest read-backs
  std::vector<WriteSample> writes;
  int64_t window_start = 0, window_end = 0;
  std::map<std::string, double> m0, m1;  // /metrics at window start / end
  double peak_rss_mb = 0;
  std::string drain;
};

ReadSample DoRead(srv::Client* client, Op op, bool keep_body) {
  ReadSample s;
  s.sent = NowNs();
  auto resp = client->Query(op.text);
  s.recv = NowNs();
  s.op = std::move(op);
  if (resp.ok() && resp->ok()) {
    s.status_ok = true;
    s.parsed = DigestBody(resp->body, &s.digest);
    if (keep_body) s.body = std::move(resp->body);
  }
  return s;
}

srv::Client Connect(uint16_t port) {
  srv::Client::Options o;
  o.port = port;
  o.io_timeout_ms = 120'000;
  srv::Client c(o);
  (void)c.Connect();
  return c;
}

// Warm-up: two rounds of kClients concurrent reads. The first round makes
// the server build its snapshot and one session clone per worker that
// picks a read up; the second lets every session answer once more.
void Warm(uint16_t port, const std::vector<Op>& ops, bool keep_body,
          std::vector<ReadSample>* out) {
  std::vector<std::vector<ReadSample>> per(kClients);
  std::barrier sync(static_cast<std::ptrdiff_t>(kClients));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      srv::Client client = Connect(port);
      for (size_t round = 0; round < 2; ++round) {
        sync.arrive_and_wait();
        per[c].push_back(DoRead(&client, ops[round * kClients + c], keep_body));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (auto& v : per) {
    for (auto& s : v) out->push_back(std::move(s));
  }
}

// Warm-up reads are point lookups on every workload: each builds and
// exercises a session without folding a class's cold cost (a first report
// goal can take half a second) into setup_s.
std::vector<Op> WarmOps(const Archive& ar, uint64_t seed) {
  vqldb::Rng rng(SubSeed(seed, 7));
  std::vector<Op> ops;
  for (size_t i = 0; i < 2 * kClients; ++i) {
    ops.push_back(PointLookup(static_cast<uint32_t>(rng.UniformU64(ar.actors()))));
  }
  return ops;
}

bool RunLoad(const Options& opt, const Archive& ar, WorkloadKind w,
             const std::string& archive_path,
             const std::vector<uint32_t>& ingest_scenes, int setups,
             LoadResult* out, std::string* error) {
  const bool ingest = w == WorkloadKind::kIngest;
  const std::vector<Op> warm_ops = WarmOps(ar, opt.seed);
  // At least `setups` starts; when that is more than one, small archives
  // (which start in milliseconds) get more, up to kMaxSetups within
  // kSetupBudgetS, for a steadier median. The last server runs the window.
  ServerProc proc;
  double setup_total = 0;
  for (int i = 0; i < setups || (setups > 1 && i < kMaxSetups &&
                                 setup_total < kSetupBudgetS);
       ++i) {
    if (i > 0) proc.Stop();
    auto t0 = NowNs();
    if (!proc.Start(opt.vqlsrv, archive_path, opt.workdir + "/vqlsrv.log",
                    error)) {
      return false;
    }
    out->warm.clear();
    Warm(proc.port(), warm_ops, ingest, &out->warm);
    out->setup_s.push_back(static_cast<double>(NowNs() - t0) / 1e9);
    setup_total += out->setup_s.back();
  }

  const size_t browsers = Browsers(w);
  const size_t conns = browsers + (ingest ? 1 : 0);
  std::vector<srv::Client> clients;
  for (size_t c = 0; c < conns; ++c) clients.push_back(Connect(proc.port()));
  if (!proc.ScrapeMetrics(&out->m0)) {
    *error = "cannot scrape /metrics";
    return false;
  }

  std::vector<std::vector<ReadSample>> per(conns);
  std::vector<WriteSample> writes;
  const int64_t start = NowNs();
  const int64_t end = start + static_cast<int64_t>(opt.seconds * 1e9);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < browsers; ++c) {
    threads.emplace_back([&, c] {
      vqldb::Rng rng(SubSeed(opt.seed, 100 + c));
      while (NowNs() < end) {
        per[c].push_back(DoRead(&clients[c], DrawRead(ar, w, &rng), ingest));
      }
    });
  }
  if (ingest) {
    // Open loop: slot i is due at start + i * period whether or not the
    // previous slot finished; latency counts from the due time.
    threads.emplace_back([&] {
      srv::Client& client = clients[browsers];
      for (size_t i = 0; i < ingest_scenes.size(); ++i) {
        WriteSample ws;
        ws.scene = ingest_scenes[i];
        ws.due = start + static_cast<int64_t>(i) * kWritePeriodMs * 1'000'000;
        if (ws.due >= end) break;
        int64_t now = NowNs();
        if (now < ws.due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(ws.due - now));
        }
        ws.sent = NowNs();
        auto resp = client.Statement(ar.SceneStatement(ws.scene));
        ws.acked = NowNs();
        ws.ok = resp.ok() && resp->ok();
        writes.push_back(ws);
        ReadSample rs = DoRead(&client, FreshRead(ws.scene), true);
        rs.fresh = true;
        per[browsers].push_back(std::move(rs));
      }
    });
  }
  for (std::thread& t : threads) t.join();
  out->window_start = start;
  out->window_end = NowNs();
  bool scraped = proc.ScrapeMetrics(&out->m1);
  out->peak_rss_mb = proc.PeakRssMb();
  clients.clear();
  out->drain = proc.Stop();
  if (!scraped) {
    *error = "cannot scrape /metrics";
    return false;
  }
  for (auto& v : per) {
    for (auto& s : v) out->reads.push_back(std::move(s));
  }
  out->writes = std::move(writes);
  return true;
}

// Checks every answer; returns the number of failed operations.
size_t Verify(const Archive& ar, bool ingest, LoadResult* r) {
  Oracle oracle(&ar);
  std::map<uint32_t, int64_t> written, acked;
  size_t failed = 0;
  for (const WriteSample& ws : r->writes) {
    written[ws.scene] = ws.sent;
    if (ws.ok) {
      acked[ws.scene] = ws.acked;
    } else {
      ++failed;
    }
  }
  std::vector<std::string_view> rows;
  auto check = [&](const ReadSample& s) {
    if (!s.status_ok || !s.parsed) return false;
    if (!ingest) return oracle.Check(s.op, s.digest);
    return ParseRows(s.body, &rows) &&
           oracle.CheckWindow(s.op, rows, s.sent, s.recv, written, acked);
  };
  for (const ReadSample& s : r->warm) failed += check(s) ? 0 : 1;
  for (const ReadSample& s : r->reads) failed += check(s) ? 0 : 1;
  return failed;
}

// --------------------------------------------------------------- output

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string MetricsJson(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (size_t i = 0; i < ms.size(); ++i) {
    out += (i ? ", " : "") + std::string("\"") + ms[i].name +
           "\": {\"value\": " + Num(ms[i].value) + ", \"unit\": \"" +
           ms[i].unit + "\"}";
  }
  return out + "}";
}

double Delta(const LoadResult& r, const std::string& name) {
  auto a = r.m0.find(name);
  auto b = r.m1.find(name);
  double v0 = a == r.m0.end() ? 0 : a->second;
  double v1 = b == r.m1.end() ? 0 : b->second;
  return v1 - v0;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

struct ClientFigures {
  size_t reads = 0;  // browse reads in the window
  size_t tail_beyond = 0;  // reads slower than read_p99_ms
  double read_p50_ms = 0, read_p99_ms = 0, read_qps = 0;
  double write_p50_ms = 0, fresh_read_p50_ms = 0, gen_late_ms = 0;
};

ClientFigures Figures(const LoadResult& r) {
  ClientFigures f;
  std::vector<double> lat, fresh, write, late;
  for (const ReadSample& s : r.reads) {
    (s.fresh ? fresh : lat).push_back(Ms(s.recv - s.sent));
  }
  for (const WriteSample& w : r.writes) {
    write.push_back(Ms(w.acked - w.due));
    late.push_back(Ms(w.sent - w.due));
  }
  f.reads = lat.size();
  f.read_p50_ms = Median(lat);
  f.read_p99_ms = TailQuantile(lat, &f.tail_beyond);
  f.read_qps = static_cast<double>(lat.size()) /
               (static_cast<double>(r.window_end - r.window_start) / 1e9);
  f.write_p50_ms = Median(write);
  f.fresh_read_p50_ms = Median(fresh);
  f.gen_late_ms = Median(late);
  return f;
}

// Tracing overhead, from a crossover within each pass pair. The two passes
// of a pair replay the same stream, and each request is traced in one and
// timed untraced in the other, so its traced time over its untraced time
// is (1 + overhead) times the speed ratio of the host between the passes.
// The median of those ratios over the requests one pass traces, times the
// median over those the other pass traces, is (1 + overhead)^2: the host's
// drift between the passes cancels, and every ratio compares a request
// with itself, whatever the mix of cheap and dear requests. Median over
// the pairs.
double TraceOverhead(const std::vector<ReplayPass>& passes) {
  auto ratio = [](const ReplayPass& traced, const ReplayPass& untraced) {
    std::vector<double> r;
    for (size_t i = 0; i < traced.spans.size() && i < untraced.spans.size();
         ++i) {
      const RequestSpans& t = traced.spans[i];
      const RequestSpans& u = untraced.spans[i];
      if (t.traced && !u.traced && u.total > 0) {
        r.push_back(static_cast<double>(t.total) / static_cast<double>(u.total));
      }
    }
    return Median(r);
  };
  std::vector<double> estimates;
  for (size_t i = 0; i + 1 < passes.size(); i += 2) {
    estimates.push_back(std::sqrt(ratio(passes[i], passes[i + 1]) *
                                  ratio(passes[i + 1], passes[i])) -
                        1);
  }
  return Median(estimates);
}

// Per-layer figures from the traced replay plus /metrics deltas.
std::vector<Metric> LayerMetrics(const LoadResult& r, const ClientFigures& f,
                                 size_t failed, size_t attempted,
                                 const std::vector<ReplayPass>& passes,
                                 double load_s, double overhead) {
  std::vector<double> total, wire, parse, run, render, admit, apply, build,
      clone;
  std::map<QueryClass, std::vector<double>> by_class;
  double lease_sum = 0, run_sum = 0, total_sum = 0;
  size_t leases = 0, clones = 0, evaluated = 0;
  double rows = 0, probes = 0, hash_probes = 0, derived = 0, checks = 0;
  std::map<std::string, size_t> strategies;
  for (const ReplayPass& p : passes) {
    for (const RequestSpans& s : p.spans) {
      if (!s.traced) continue;
      wire.push_back(s.wire / 1e3);
      admit.push_back(s.admit / 1e6);
      if (s.write) {
        apply.push_back(s.apply / 1e6);
        continue;
      }
      total.push_back(s.total / 1e6);
      total_sum += static_cast<double>(s.total);
      parse.push_back(s.parse / 1e3);
      run.push_back(s.run / 1e6);
      run_sum += static_cast<double>(s.run);
      render.push_back(s.render / 1e3);
      by_class[s.cls].push_back(s.run / 1e6);
      if (s.rebuilt) build.push_back(s.current / 1e6);
      if (s.cloned) clone.push_back(s.lease / 1e6);
      lease_sum += static_cast<double>(s.lease);
      ++leases;
      clones += s.cloned ? 1 : 0;
      if (!s.cache_hit) {
        ++evaluated;
        ++strategies[s.strategy];
        rows += static_cast<double>(s.rows);
        probes += static_cast<double>(s.join_probes);
        hash_probes += static_cast<double>(s.hash_join_probes);
        derived += static_cast<double>(s.derived_facts);
        checks += static_cast<double>(s.constraint_checks);
      }
    }
  }
  const double reads = static_cast<double>(f.reads);
  const double writes = static_cast<double>(r.writes.size());
  const double hits = Delta(r, "vqldb_query_cache_hits_total");
  const double misses = Delta(r, "vqldb_query_cache_misses_total");

  std::vector<Metric> m = {
      {"lang.parse_us", Median(parse), "us"},
      {"server.wire_us", Median(wire), "us"},
      {"server.transport_ms", f.read_p50_ms - Median(total), "ms"},
      {"server.bytes_out_per_read",
       Ratio(Delta(r, "vqldb_server_bytes_written_total"), reads), "bytes"},
      {"server.sheds", Delta(r, "vqldb_server_sheds_total"), "count"},
      {"server.snapshot_build_ms", Median(build), "ms"},
      {"server.snapshot_builds_per_write",
       Ratio(Delta(r, "healthz.snapshots_built"), writes), "ratio"},
      {"server.lease_ms", Ratio(lease_sum, static_cast<double>(leases)) / 1e6,
       "ms"},
      {"server.clone_ms", Median(clone), "ms"},
      {"server.lease_clone_ratio",
       Ratio(static_cast<double>(clones), static_cast<double>(leases)), "ratio"},
      {"server.apply_ms", Median(apply), "ms"},
      {"storage.image_bytes",
       passes.empty() ? 0 : static_cast<double>(passes.back().image_bytes),
       "bytes"},
      {"storage.load_s", load_s, "s"},
      {"engine.admit_wait_ms", Quantile(admit, 0.99), "ms"},
      {"engine.run_ms", Median(run), "ms"},
      {"engine.run_share", Ratio(run_sum, total_sum), "ratio"},
  };
  for (int c = 0; c < static_cast<int>(QueryClass::kCount); ++c) {
    auto cls = static_cast<QueryClass>(c);
    m.push_back({std::string("engine.class_p50_ms.") + ClassName(cls),
                 Median(by_class[cls]), "ms"});
  }
  const double ev = static_cast<double>(evaluated);
  std::vector<Metric> rest = {
      {"engine.cache_hit_ratio", Ratio(hits, hits + misses), "ratio"},
      {"engine.strategy_share.qsqr",
       Ratio(static_cast<double>(strategies["qsqr"]), ev), "ratio"},
      {"engine.strategy_share.magic",
       Ratio(static_cast<double>(strategies["magic"]), ev), "ratio"},
      {"engine.strategy_share.fixpoint",
       Ratio(static_cast<double>(strategies["fixpoint"]), ev), "ratio"},
      {"engine.derived_per_row", Ratio(derived, rows), "ratio"},
      {"engine.hash_probe_share", Ratio(hash_probes, probes), "ratio"},
      {"engine.join_probes_per_read", Ratio(probes, ev), "count"},
      {"engine.render_us", Median(render), "us"},
      {"engine.pool_idle_us_per_task",
       Ratio(Delta(r, "vqldb_pool_worker_idle_micros_total"),
             Delta(r, "vqldb_pool_tasks_executed_total")),
       "us"},
      {"engine.pool_tasks_per_read",
       Ratio(Delta(r, "vqldb_pool_tasks_executed_total"), reads), "count"},
      {"constraint.checks_per_read", Ratio(checks, ev), "count"},
      {"model.facts_start",
       passes.empty() ? 0 : static_cast<double>(passes.back().facts_start),
       "count"},
      {"model.facts_end",
       passes.empty() ? 0 : static_cast<double>(passes.back().facts_end),
       "count"},
      {"model.temporal_index_rebuilds",
       Delta(r, "vqldb_temporal_index_rebuilds_total"), "count"},
      {"harness.gen_late_ms", f.gen_late_ms, "ms"},
      {"harness.trace_overhead", overhead, "ratio"},
      {"client.read_p50_ms", f.read_p50_ms, "ms"},
      {"client.read_qps", f.read_qps, "reads/s"},
      {"client.write_p50_ms", f.write_p50_ms, "ms"},
      {"client.fresh_read_p50_ms", f.fresh_read_p50_ms, "ms"},
      {"client.error_frac",
       Ratio(static_cast<double>(failed), static_cast<double>(attempted)),
       "fraction"},
  };
  m.insert(m.end(), rest.begin(), rest.end());
  return m;
}

std::string Hostname() {
  char buf[256] = {0};
  if (::gethostname(buf, sizeof(buf) - 1) != 0) return "unknown";
  return buf;
}

// ----------------------------------------------------------- oracle test

// Feeds both checkers correct answers and deliberately corrupted ones (a
// row renamed, a row dropped, a row duplicated; rows of an unwritten
// ingest scene; a read missing an acknowledged scene; a bad header) and
// expects exactly the corrupted ones flagged.
int CheckOracle() {
  ArchiveSize size;
  SizeByName("toy", &size);
  Archive plain = Archive::Generate(size, 11);
  Archive grown = plain;
  uint32_t unwritten = grown.AddScene(0, 100, {0, 1});
  Oracle digest_oracle(&plain), window_oracle(&grown);
  auto render = [](const std::vector<std::string>& rows) {
    std::string body = "(" + std::to_string(rows.size()) + " answers)\n";
    for (const std::string& r : rows) body += "  " + r + "\n";
    return body;
  };
  // Both checkers, as the read-only workloads and ingest use them.
  auto accepts = [&](const Op& op, const std::string& body) {
    Digest d;
    std::vector<std::string_view> rows;
    bool by_digest = DigestBody(body, &d) && digest_oracle.Check(op, d);
    bool by_window = ParseRows(body, &rows) &&
                     window_oracle.CheckWindow(op, rows, 0, 0, {}, {});
    return std::make_pair(by_digest, by_window);
  };
  int bad = 0;
  auto expect = [&](bool ok, const std::string& what) {
    if (!ok) {
      std::cerr << "oracle self test: " << what << "\n";
      ++bad;
    }
  };
  vqldb::Rng rng(5);
  int checked = 0;
  for (int i = 0; i < 400 && checked < 40; ++i) {
    Op op = DrawRead(plain, i % 2 ? WorkloadKind::kAnalytics
                                  : WorkloadKind::kLookup, &rng);
    std::vector<std::string> rows;
    for (const ExpectedRow& r : ExpectedRows(plain, op)) rows.push_back(r.text);
    std::sort(rows.begin(), rows.end());
    rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
    if (rows.size() < 2) continue;
    ++checked;
    std::reverse(rows.begin(), rows.end());  // order must not matter
    auto [d_ok, w_ok] = accepts(op, render(rows));
    expect(d_ok && w_ok, "rejected a correct answer to " + op.text);
    std::vector<std::vector<std::string>> corrupt(3, rows);
    corrupt[0][0] += "x";
    corrupt[1].pop_back();
    corrupt[2].push_back(rows[0]);
    for (const auto& c : corrupt) {
      auto [d_bad, w_bad] = accepts(op, render(c));
      expect(!d_bad && !w_bad, "accepted a corrupted answer to " + op.text);
    }
  }
  Op fresh = FreshRead(unwritten);
  std::vector<std::string_view> rows;
  expect(ParseRows("(2 answers) [O]\n  a0\n  a1\n", &rows) &&
             !window_oracle.CheckWindow(fresh, rows, 0, 0, {}, {}),
         "accepted rows of an unwritten scene");
  std::map<uint32_t, int64_t> written{{unwritten, 1}}, acked{{unwritten, 2}};
  expect(window_oracle.CheckWindow(fresh, rows, 3, 4, written, acked),
         "rejected a read-back of an acknowledged scene");
  expect(!window_oracle.CheckWindow(fresh, {}, 3, 4, written, acked),
         "accepted a read missing an acknowledged scene");
  Digest d;
  expect(!DigestBody("(3 answers) [G]\n  sc1\n", &d),
         "accepted a row count disagreeing with the header");
  std::cout << "oracle self test: " << checked << " queries, "
            << (bad == 0 ? "ok" : "FAILED") << "\n";
  return bad == 0 && checked > 0 ? 0 : 1;
}

// ---------------------------------------------------------------- main

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--check-oracle") {
      o->check_oracle = true;
    } else if (a == "--workload" && value(&v)) {
      o->workload = v;
    } else if (a == "--seed" && value(&v)) {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace" && value(&v)) {
      o->trace = v == "1";
    } else if (a == "--vqlsrv" && value(&v)) {
      o->vqlsrv = v;
    } else if (a == "--workdir" && value(&v)) {
      o->workdir = v;
    } else if (a == "--size" && value(&v)) {
      o->size = v;
    } else if (a == "--build-type" && value(&v)) {
      o->build_type = v;
    } else if (a == "--commit" && value(&v)) {
      o->commit = v;
    } else if (a == "--record-dir" && value(&v)) {
      o->record_dir = v;
    } else {
      std::cerr << "vqlbench: bad argument " << a << "\n";
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  Options opt;
  if (!ParseArgs(argc, argv, &opt)) return 2;
  if (opt.check_oracle) return CheckOracle();

  WorkloadKind w;
  ArchiveSize size;
  if (!WorkloadByName(opt.workload, &w)) {
    std::cerr << "vqlbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  if (opt.size.empty()) opt.size = WorkloadSize(w);
  if (!SizeByName(opt.size, &size) || opt.vqlsrv.empty() || opt.seconds <= 0) {
    std::cerr << "vqlbench: need --vqlsrv, --seconds > 0 and a known --size\n";
    return 2;
  }
  const bool ingest = w == WorkloadKind::kIngest;

  Archive ar = Archive::Generate(size, opt.seed);
  std::vector<uint32_t> ingest_scenes;
  if (ingest) {
    // Every slot the window can hold, planned up front so the oracle knows
    // each scene's rows; slots past the window are never written.
    vqldb::Rng rng(SubSeed(opt.seed, 3));
    size_t slots = static_cast<size_t>(opt.seconds * 1000 / kWritePeriodMs) + 1;
    for (size_t i = 0; i < slots; ++i) {
      std::vector<uint32_t> cast;
      while (cast.size() < 2) {
        uint32_t a = static_cast<uint32_t>(rng.UniformU64(ar.actors()));
        if (cast.empty() || cast[0] != a) cast.push_back(a);
      }
      int64_t begin = rng.UniformInt(0, 4000);
      ingest_scenes.push_back(
          ar.AddScene(begin, begin + rng.UniformInt(40, 120), cast));
    }
  }
  const std::string archive_path = opt.workdir + "/" + opt.workload + "-" +
                                   opt.size + "-" + std::to_string(opt.seed) +
                                   ".vql";
  {
    std::ofstream f(archive_path, std::ios::binary | std::ios::trunc);
    f << ar.ToVql();
    if (!f.good()) {
      std::cerr << "vqlbench: cannot write " << archive_path << "\n";
      return 1;
    }
  }

  LoadResult load;
  std::string error;
  if (!RunLoad(opt, ar, w, archive_path, ingest_scenes,
               opt.trace ? 1 : kSetups, &load, &error)) {
    std::cerr << "vqlbench: " << error << "\n";
    return 1;
  }
  size_t attempted = load.warm.size() + load.reads.size() + load.writes.size();
  size_t failed = Verify(ar, ingest, &load);
  const ClientFigures f = Figures(load);

  std::vector<Metric> metrics;
  std::vector<Metric> shown;  // human-readable extras
  double trace_overhead = 0;
  if (!opt.trace) {
    metrics = {
        {"setup_s", Median(load.setup_s), "s"},
        {"read_p50_ms", f.read_p50_ms, "ms"},
        {"read_p99_ms", f.read_p99_ms, "ms"},
        {"peak_rss_mb", load.peak_rss_mb, "MB"},
    };
    shown = metrics;
    shown.push_back({"read_qps", f.read_qps, "reads/s"});
    if (ingest) {
      shown.push_back({"write_p50_ms", f.write_p50_ms, "ms"});
      shown.push_back({"fresh_read_p50_ms", f.fresh_read_p50_ms, "ms"});
    }
    shown.push_back({"error_frac",
                     Ratio(static_cast<double>(failed),
                           static_cast<double>(attempted)),
                     "fraction"});
  } else {
    // The replayed stream: every request sent in the first ReplaySeconds(w)
    // of the window, in send order.
    struct Sent {
      int64_t at;
      ReplayRequest rq;
    };
    std::vector<Sent> sent;
    const int64_t cut =
        load.window_start +
        static_cast<int64_t>(std::min(ReplaySeconds(w), opt.seconds) * 1e9);
    for (const ReadSample& s : load.reads) {
      if (s.sent < cut) sent.push_back({s.sent, {false, s.op.cls, s.op.text}});
    }
    for (const WriteSample& ws : load.writes) {
      if (ws.sent < cut) {
        sent.push_back({ws.sent, {true, QueryClass::kCount,
                                  ar.SceneStatement(ws.scene)}});
      }
    }
    std::sort(sent.begin(), sent.end(),
              [](const Sent& a, const Sent& b) { return a.at < b.at; });
    std::vector<ReplayRequest> stream, warm;
    for (Sent& s : sent) stream.push_back(std::move(s.rq));
    for (const Op& op : WarmOps(ar, opt.seed)) {
      warm.push_back({false, op.cls, op.text});
    }
    std::vector<ReplayPass> passes;
    // Pass 0, untraced, is discarded: it starts from a colder process (the
    // archive just loaded, the stream's constants not yet interned). The
    // pairs then trace the even requests first, the odd ones first, and so
    // on alternately.
    Replayer replayer(archive_path);
    std::vector<double> loads;
    for (int i = 0; i <= 2 * kReplayPairs; ++i) {
      int parity = i == 0 ? -1 : (i - 1) / 2 % 2 == (i - 1) % 2 ? 0 : 1;
      ReplayPass pass;
      if (!replayer.RunPass(warm, stream, parity, &pass, &error)) {
        std::cerr << "vqlbench: " << error << "\n";
        return 1;
      }
      std::cout << "replay pass " << i
                << (i == 0 ? " (discarded)" : parity == 0 ? " (even traced)"
                                                          : " (odd traced)")
                << ": " << stream.size() << " requests in " << Num(pass.wall_s)
                << " s\n";
      // A replayed request that gets no OK answer is a failed operation too.
      attempted += stream.size();
      failed += pass.failed;
      if (pass.load_s > 0) loads.push_back(pass.load_s);
      if (i > 0) passes.push_back(std::move(pass));
    }
    trace_overhead = TraceOverhead(passes);
    metrics = LayerMetrics(load, f, failed, attempted, passes, Median(loads),
                           trace_overhead);
    shown = metrics;
  }

  // Run record: the inputs that identify this run, then its figures.
  std::ostringstream rec;
  rec << "{\"workload\": \"" << opt.workload << "\", \"seed\": " << opt.seed
      << ", \"trace\": " << (opt.trace ? 1 : 0) << ", \"size\": \"" << opt.size
      << "\", \"seconds\": " << Num(opt.seconds) << ", \"archive\": {\"actors\": "
      << ar.actors() << ", \"scenes\": " << ar.base_scenes()
      << ", \"speaks\": " << ar.speaks_facts() << ", \"holds\": "
      << ar.holds_facts() << ", \"next\": " << ar.next_facts()
      << ", \"relation_facts\": " << ar.relation_facts() << "}, \"host\": \""
      << JsonEscape(Hostname()) << "\", \"nproc\": "
      << std::thread::hardware_concurrency() << ", \"build_type\": \""
      << JsonEscape(opt.build_type) << "\", \"commit\": \""
      << JsonEscape(opt.commit) << "\", \"reads\": " << f.reads
      << ", \"writes\": " << load.writes.size() << ", \"attempted\": "
      << attempted << ", \"failed\": " << failed << ", \"setup_s\": [";
  for (size_t i = 0; i < load.setup_s.size(); ++i) {
    rec << (i ? ", " : "") << Num(load.setup_s[i]);
  }
  rec << "], \"drain\": \"" << JsonEscape(load.drain)
      << "\", \"metrics\": " << MetricsJson(shown) << "}";
  if (!opt.record_dir.empty()) {
    std::ofstream(opt.record_dir + "/" + opt.workload + "-seed" +
                  std::to_string(opt.seed) + "-trace" +
                  (opt.trace ? "1" : "0") + ".json")
        << rec.str() << "\n";
  }

  std::cout << "workload " << opt.workload << " (" << opt.size << " archive: "
            << ar.relation_facts() << " relation facts, " << ar.base_scenes()
            << " scenes, " << ar.actors() << " actors), seed " << opt.seed
            << ", " << opt.seconds << " s\n";
  std::cout << "reads " << f.reads << " (" << f.tail_beyond
            << " beyond read_p99_ms), writes " << load.writes.size()
            << ", failed " << failed << " of " << attempted << "\n";
  for (const Metric& m : shown) {
    std::cout << "  " << m.name << " = " << Num(m.value) << " " << m.unit
              << "\n";
  }
  // A run that cannot support its figures is not a valid measurement.
  bool valid = true;
  if (f.tail_beyond < kTailSamples) {
    std::cout << "invalid: only " << f.tail_beyond
              << " reads beyond read_p99_ms\n";
    valid = false;
  }
  if (trace_overhead > kMaxTraceOverhead) {
    std::cout << "invalid: tracing overhead " << Num(trace_overhead)
              << " exceeds " << Num(kMaxTraceOverhead) << "\n";
    valid = false;
  }
  std::cout << "{\"correct\": " << (failed == 0 && valid ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << MetricsJson(metrics) << "}" << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
