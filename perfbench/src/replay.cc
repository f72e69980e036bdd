#include "perfbench/src/replay.h"

#include <algorithm>
#include <chrono>

#include "src/engine/query_gate.h"
#include "src/lang/parser.h"
#include "src/obs/stats.h"
#include "src/server/server.h"
#include "src/server/snapshot.h"
#include "src/server/wire.h"
#include "src/storage/text_format.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
namespace srv = vqldb::server;

int64_t Ns(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count();
}

struct Pipeline {
  srv::SnapshotManager* snapshots;
  vqldb::QueryGate* gate;
};

srv::Response ErrorResponse(const vqldb::Status& st) {
  return srv::Response{st.code(), 0, std::string(st.message())};
}

// One request through the same calls the server makes for it, in the same
// order. With `traced` false only the request's total time (t0 to t8) is
// taken.
bool Execute(const Pipeline& p, const ReplayRequest& rq, bool traced,
             RequestSpans* sp) {
  auto now = [traced] { return traced ? Clock::now() : Clock::time_point{}; };
  srv::Request req;
  req.type = rq.write ? srv::MsgType::kStatement : srv::MsgType::kQuery;
  req.text = rq.text;

  const auto t0 = Clock::now();
  std::string frame = srv::EncodeRequest(req);
  std::string payload;
  size_t consumed = 0;
  srv::Request decoded;
  bool ok = srv::DecodeFrame(frame, 0, &payload, &consumed) ==
                srv::DecodeResult::kOk &&
            srv::ParseRequest(payload, &decoded).ok();
  auto t1 = now();

  srv::Response response;
  int64_t admit = 0, current = 0, lease_ns = 0, parse = 0, run = 0, render = 0,
          apply = 0;
  bool rebuilt = false, cloned = false, cache_hit = false;
  std::string strategy;
  {
    auto ticket = p.gate->Acquire();
    auto t2 = now();
    admit = Ns(t1, t2);
    if (!ticket.ok()) {
      response = ErrorResponse(ticket.status());
    } else if (rq.write) {
      vqldb::Status st = p.snapshots->Apply(decoded.text);
      apply = Ns(t2, now());
      response = st.ok() ? srv::Response{vqldb::StatusCode::kOk, 0,
                                         "ok epoch=" + std::to_string(
                                                           p.snapshots->live_epoch())}
                         : ErrorResponse(st);
    } else {
      uint64_t builds = p.snapshots->snapshots_built();
      auto snapshot = p.snapshots->Current();
      auto t3 = now();
      current = Ns(t2, t3);
      rebuilt = p.snapshots->snapshots_built() != builds;
      if (!snapshot.ok()) {
        response = ErrorResponse(snapshot.status());
      } else {
        size_t clones = (*snapshot)->sessions_built();
        auto lease = (*snapshot)->Acquire();
        auto t4 = now();
        lease_ns = Ns(t3, t4);
        cloned = (*snapshot)->sessions_built() != clones;
        if (!lease.ok()) {
          response = ErrorResponse(lease.status());
        } else {
          auto query = vqldb::Parser::ParseQuery(decoded.text);
          auto t5 = now();
          parse = Ns(t4, t5);
          if (!query.ok()) {
            response = ErrorResponse(query.status());
          } else {
            auto result = lease->session()->Run(
                *query, static_cast<uint64_t>(parse / 1000));
            auto t6 = now();
            run = Ns(t5, t6);
            if (!result.ok()) {
              response = ErrorResponse(result.status());
            } else {
              response = srv::Response{vqldb::StatusCode::kOk, 0,
                                       result->ToString(lease->db())};
              render = Ns(t6, now());
              const vqldb::QueryExecInfo& info =
                  lease->session()->last_exec_info();
              cache_hit = info.cache_hit;
              strategy = info.strategy;
              // A cache hit leaves last_stats() at the previous evaluation.
              if (traced && !cache_hit) {
                const vqldb::EvalStats& st = lease->session()->last_stats();
                sp->rows = result->rows.size();
                sp->join_probes = st.join_probes;
                sp->hash_join_probes = st.hash_join_probes;
                sp->derived_facts = st.derived_facts;
                sp->constraint_checks = st.constraint_checks;
              }
            }
          }
        }
      }
    }
  }

  auto t7 = now();
  std::string out = srv::EncodeResponse(response);
  srv::Response parsed;
  ok = ok &&
       srv::DecodeFrame(out, 0, &payload, &consumed) == srv::DecodeResult::kOk &&
       srv::ParseResponse(payload, &parsed).ok() && parsed.ok();
  const auto t8 = Clock::now();
  sp->write = rq.write;
  sp->cls = rq.cls;
  sp->traced = traced;
  sp->total = Ns(t0, t8);
  if (traced) {
    sp->wire = Ns(t0, t1) + Ns(t7, t8);
    sp->admit = admit;
    sp->current = current;
    sp->lease = lease_ns;
    sp->parse = parse;
    sp->run = run;
    sp->render = render;
    sp->apply = apply;
    sp->rebuilt = rebuilt;
    sp->cloned = cloned;
    sp->cache_hit = cache_hit;
    sp->strategy = std::move(strategy);
  }
  return ok;
}

// Runs `stream` in order on one thread. A second thread would race the
// replay against itself (after an ingest write, whether one or two session
// clones get built depends on who reaches the new snapshot first), which
// makes passes incomparable; the loopback run already measures contention.
size_t RunStream(const Pipeline& p, const std::vector<ReplayRequest>& stream,
                 int traced_parity, std::vector<RequestSpans>* spans) {
  spans->assign(stream.size(), RequestSpans{});
  size_t failed = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    bool traced = static_cast<int>(i % 2) == traced_parity;
    if (!Execute(p, stream[i], traced, &(*spans)[i])) ++failed;
  }
  return failed;
}

}  // namespace

bool Replayer::RunPass(const std::vector<ReplayRequest>& warm,
                       const std::vector<ReplayRequest>& stream,
                       int traced_parity, ReplayPass* out,
                       std::string* error) {
  // The server's own defaults: a change to one shows here as it does in
  // the loopback run.
  const srv::ServerOptions defaults;
  const size_t sessions = defaults.snapshot_sessions != 0
                              ? defaults.snapshot_sessions
                              : defaults.gate.max_concurrent;

  if (db_ == nullptr) {
    db_ = std::make_unique<vqldb::VideoDatabase>();
    auto load_start = Clock::now();
    auto loaded = vqldb::TextFormat::LoadFromFile(path_, db_.get());
    out->load_s = Ns(load_start, Clock::now()) / 1e9;
    if (!loaded.ok()) {
      *error = "replay load: " + loaded.status().ToString();
      return false;
    }
    rules_ = loaded->rules;
  }
  {
    // The planner reads the process-wide statistics collector; a pass starts
    // from an empty one, as a freshly started server does, so passes do not
    // inherit each other's statistics.
    vqldb::obs::StatsCollector::Global().Reset();
    srv::SnapshotManager snapshots(db_.get(), defaults.eval_options, sessions);
    for (const vqldb::Rule& rule : rules_) {
      vqldb::Status st = snapshots.Apply(rule.ToString());
      if (!st.ok()) {
        *error = "replay rule: " + st.ToString();
        return false;
      }
    }
    vqldb::QueryGate gate(defaults.gate);
    Pipeline p{&snapshots, &gate};

    std::vector<RequestSpans> unused;
    RunStream(p, warm, -1, &unused);
    out->facts_start = db_->fact_count();
    auto start = Clock::now();
    out->failed = RunStream(p, stream, traced_parity, &out->spans);
    out->wall_s = Ns(start, Clock::now()) / 1e9;
    out->facts_end = db_->fact_count();
    auto snapshot = snapshots.Current();
    out->image_bytes = snapshot.ok() ? (*snapshot)->bytes().size() : 0;
  }
  // A stream that wrote leaves the database changed: reload it next pass.
  if (std::any_of(stream.begin(), stream.end(),
                  [](const ReplayRequest& rq) { return rq.write; })) {
    db_.reset();
  }
  return true;
}

}  // namespace perfbench
