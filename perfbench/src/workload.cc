#include "perfbench/src/workload.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

namespace perfbench {
namespace {

struct Weighted {
  QueryClass cls;
  uint32_t weight;
};

// Lookup: bound-goal lookups whose answers are a handful of rows, so the
// per-query cost is dominated by data access, not derivation.
const std::vector<Weighted> kLookupMix = {
    {QueryClass::kSpeaksFwd, 20}, {QueryClass::kSpeaksRev, 15},
    {QueryClass::kHoldsRev, 15},  {QueryClass::kAppears, 20},
    {QueryClass::kCooccurPair, 15}, {QueryClass::kLaterFwd, 15},
};

// Analytics: derivation-heavy goals on a small archive, plus repeated free
// report goals the query cache can hold. The weights put read_p50_ms among
// the reads that derive for milliseconds — reverse closures (~8 ms) and
// the cached later(X, Y) report, whose 2.5e4 rows take ~7 ms to render and
// send — so it measures derivation: when the cheap goals (1-2 ms, mostly
// thread hand-offs) held the median, it moved twice as much as the host's
// speed. No class has half the run's time (reverse closures ~45%,
// same_object_in ~25%). same_object_in (~35 ms a call) is 6% of reads, so
// read_p99_ms falls in the flat upper part of its population; at 2% it
// sat on the class's lower edge and moved with the run's share of it.
const std::vector<Weighted> kAnalyticsMix = {
    {QueryClass::kLaterRev, 40},       {QueryClass::kSameObjectIn, 6},
    {QueryClass::kContains, 12},       {QueryClass::kCooccurOne, 11},
    {QueryClass::kLaterFwd, 11},       {QueryClass::kReportCooccur, 3},
    {QueryClass::kReportLater, 14},    {QueryClass::kReportContains, 3},
};

std::string A(uint32_t a) { return Archive::ActorName(a); }
std::string S(uint32_t s) { return Archive::SceneName(s); }

Op MakeOp(QueryClass cls, uint32_t x, uint32_t y) {
  Op op;
  op.cls = cls;
  op.x = x;
  op.y = y;
  switch (cls) {
    case QueryClass::kSpeaksFwd:
      op.text = "?- speaks(" + A(x) + ", G).";
      break;
    case QueryClass::kSpeaksRev:
    case QueryClass::kFreshRead:
      op.text = "?- speaks(O, " + S(x) + ").";
      break;
    case QueryClass::kHoldsRev:
      op.text = "?- holds(O, " + A(x) + ", G).";
      break;
    case QueryClass::kAppears:
      op.text = "?- appears(" + A(x) + ", G).";
      break;
    case QueryClass::kCooccurPair:
      op.text = "?- cooccur(" + A(x) + ", " + A(y) + ", G).";
      break;
    case QueryClass::kLaterFwd:
      op.text = "?- later(" + S(x) + ", G).";
      break;
    case QueryClass::kLaterRev:
      op.text = "?- later(G, " + S(x) + ").";
      break;
    case QueryClass::kSameObjectIn:
      op.text = "?- same_object_in(" + S(x) + ", G, O).";
      break;
    case QueryClass::kContains:
      op.text = "?- contains(" + S(x) + ", G).";
      break;
    case QueryClass::kCooccurOne:
      op.text = "?- cooccur(" + A(x) + ", O, G).";
      break;
    case QueryClass::kReportCooccur:
      op.text = "?- cooccur(X, Y, G).";
      break;
    case QueryClass::kReportLater:
      op.text = "?- later(X, Y).";
      break;
    case QueryClass::kReportContains:
      op.text = "?- contains(X, Y).";
      break;
    case QueryClass::kCount:
      break;
  }
  return op;
}

QueryClass DrawClass(const std::vector<Weighted>& mix, vqldb::Rng* rng) {
  uint32_t total = 0;
  for (const Weighted& w : mix) total += w.weight;
  uint32_t r = static_cast<uint32_t>(rng->UniformU64(total));
  for (const Weighted& w : mix) {
    if (r < w.weight) return w.cls;
    r -= w.weight;
  }
  return mix.back().cls;
}

int64_t Dep(const Archive& ar, uint32_t scene) {
  return scene >= ar.base_scenes() ? static_cast<int64_t>(scene) : -1;
}

bool HasActor(const Scene& scene, uint32_t a) {
  return std::binary_search(scene.actors.begin(), scene.actors.end(), a);
}

}  // namespace

const char* ClassName(QueryClass c) {
  switch (c) {
    case QueryClass::kSpeaksFwd: return "speaks_fwd";
    case QueryClass::kSpeaksRev: return "speaks_rev";
    case QueryClass::kHoldsRev: return "holds_rev";
    case QueryClass::kAppears: return "appears";
    case QueryClass::kCooccurPair: return "cooccur_pair";
    case QueryClass::kLaterFwd: return "later_fwd";
    case QueryClass::kLaterRev: return "later_rev";
    case QueryClass::kSameObjectIn: return "same_object_in";
    case QueryClass::kContains: return "contains";
    case QueryClass::kCooccurOne: return "cooccur_one";
    case QueryClass::kReportCooccur: return "report_cooccur";
    case QueryClass::kReportLater: return "report_later";
    case QueryClass::kReportContains: return "report_contains";
    case QueryClass::kFreshRead: return "fresh_read";
    case QueryClass::kCount: break;
  }
  return "?";
}

bool WorkloadByName(const std::string& name, WorkloadKind* out) {
  if (name == "lookup") {
    *out = WorkloadKind::kLookup;
  } else if (name == "analytics") {
    *out = WorkloadKind::kAnalytics;
  } else if (name == "ingest") {
    *out = WorkloadKind::kIngest;
  } else {
    return false;
  }
  return true;
}

const char* WorkloadSize(WorkloadKind w) {
  switch (w) {
    case WorkloadKind::kLookup: return "large";
    case WorkloadKind::kAnalytics: return "small";
    case WorkloadKind::kIngest: return "medium";
  }
  return "small";
}

Op DrawRead(const Archive& ar, WorkloadKind w, vqldb::Rng* rng) {
  const std::vector<Weighted>& mix =
      w == WorkloadKind::kAnalytics ? kAnalyticsMix : kLookupMix;
  QueryClass cls = DrawClass(mix, rng);
  auto actor = [&] { return static_cast<uint32_t>(rng->UniformU64(ar.actors())); };
  auto scene = [&] {
    return static_cast<uint32_t>(rng->UniformU64(ar.base_scenes()));
  };
  switch (cls) {
    case QueryClass::kSpeaksFwd:
    case QueryClass::kHoldsRev:
    case QueryClass::kAppears:
    case QueryClass::kCooccurOne:
      return MakeOp(cls, actor(), 0);
    case QueryClass::kCooccurPair: {
      // A pair that shares at least one scene, so the answer is not empty.
      for (;;) {
        const Scene& sc = ar.scenes()[scene()];
        if (sc.actors.size() < 2) continue;
        size_t i = rng->UniformU64(sc.actors.size());
        size_t j = rng->UniformU64(sc.actors.size() - 1);
        if (j >= i) ++j;
        return MakeOp(cls, sc.actors[i], sc.actors[j]);
      }
    }
    default:
      return MakeOp(cls, scene(), 0);
  }
}

Op FreshRead(uint32_t scene) { return MakeOp(QueryClass::kFreshRead, scene, 0); }

Op PointLookup(uint32_t actor) {
  return MakeOp(QueryClass::kSpeaksFwd, actor, 0);
}

std::vector<ExpectedRow> ExpectedRows(const Archive& ar, const Op& op) {
  std::vector<ExpectedRow> out;
  const std::vector<Scene>& scenes = ar.scenes();
  auto later_range = [&](uint32_t k, bool forward) {
    uint32_t lo = k, hi = k;
    while (lo > 0 && !ar.is_last_of_video(lo - 1)) --lo;
    while (!ar.is_last_of_video(hi)) ++hi;
    if (forward) {
      for (uint32_t g = k + 1; g <= hi; ++g) out.push_back({S(g), -1});
    } else {
      for (uint32_t g = lo; g < k; ++g) out.push_back({S(g), -1});
    }
  };
  auto contains = [&](uint32_t k) {
    for (uint32_t g = 0; g < scenes.size(); ++g) {
      if (scenes[g].begin >= scenes[k].begin && scenes[g].end <= scenes[k].end) {
        out.push_back({(op.cls == QueryClass::kReportContains ? S(k) + ", " : "") + S(g),
                       Dep(ar, g)});
      }
    }
  };
  switch (op.cls) {
    case QueryClass::kSpeaksFwd:
      for (uint32_t g : ar.speaks_of_actor(op.x)) out.push_back({S(g), Dep(ar, g)});
      break;
    case QueryClass::kSpeaksRev:
    case QueryClass::kFreshRead:
      for (uint32_t a : ar.speakers_of_scene(op.x)) out.push_back({A(a), Dep(ar, op.x)});
      break;
    case QueryClass::kHoldsRev:
      for (const auto& [o, g] : ar.holders_of(op.x)) {
        out.push_back({A(o) + ", " + S(g), -1});
      }
      break;
    case QueryClass::kAppears:
      for (uint32_t g : ar.scenes_of_actor(op.x)) out.push_back({S(g), Dep(ar, g)});
      break;
    case QueryClass::kCooccurPair:
      for (uint32_t g : ar.scenes_of_actor(op.x)) {
        if (HasActor(scenes[g], op.y)) out.push_back({S(g), Dep(ar, g)});
      }
      break;
    case QueryClass::kLaterFwd:
      later_range(op.x, true);
      break;
    case QueryClass::kLaterRev:
      later_range(op.x, false);
      break;
    case QueryClass::kSameObjectIn:
      for (uint32_t o : scenes[op.x].actors) {
        for (uint32_t g : ar.scenes_of_actor(o)) {
          out.push_back({S(g) + ", " + A(o), Dep(ar, g)});
        }
      }
      break;
    case QueryClass::kContains:
      contains(op.x);
      break;
    case QueryClass::kCooccurOne:
      for (uint32_t g : ar.scenes_of_actor(op.x)) {
        for (uint32_t o : scenes[g].actors) {
          if (o != op.x) out.push_back({A(o) + ", " + S(g), Dep(ar, g)});
        }
      }
      break;
    case QueryClass::kReportCooccur:
      for (uint32_t g = 0; g < scenes.size(); ++g) {
        for (uint32_t o1 : scenes[g].actors) {
          for (uint32_t o2 : scenes[g].actors) {
            if (o1 != o2) out.push_back({A(o1) + ", " + A(o2) + ", " + S(g), Dep(ar, g)});
          }
        }
      }
      break;
    case QueryClass::kReportLater:
      for (uint32_t k = 0; k < ar.base_scenes(); ++k) {
        size_t before = out.size();
        later_range(k, true);
        for (size_t i = before; i < out.size(); ++i) out[i].text = S(k) + ", " + out[i].text;
      }
      break;
    case QueryClass::kReportContains:
      for (uint32_t k = 0; k < scenes.size(); ++k) contains(k);
      break;
    case QueryClass::kCount:
      break;
  }
  return out;
}

uint64_t RowHash(std::string_view row) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : row) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  // Finalize (splitmix64) so sums of near-identical rows do not cancel.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

bool ParseRows(std::string_view body, std::vector<std::string_view>* rows) {
  rows->clear();
  // Header: "(N answer[s])[ [cols]]\n".
  if (body.empty() || body[0] != '(') return false;
  size_t i = 1;
  uint64_t n = 0;
  if (i >= body.size() || body[i] < '0' || body[i] > '9') return false;
  while (i < body.size() && body[i] >= '0' && body[i] <= '9') {
    n = n * 10 + static_cast<uint64_t>(body[i] - '0');
    ++i;
  }
  size_t eol = body.find('\n', i);
  if (eol == std::string_view::npos) return false;
  size_t pos = eol + 1;
  while (pos < body.size()) {
    size_t end = body.find('\n', pos);
    if (end == std::string_view::npos) return false;
    std::string_view line = body.substr(pos, end - pos);
    if (line.size() < 2 || line[0] != ' ' || line[1] != ' ') return false;
    rows->push_back(line.substr(2));
    pos = end + 1;
  }
  return rows->size() == n;
}

bool DigestBody(std::string_view body, Digest* out) {
  std::vector<std::string_view> rows;
  if (!ParseRows(body, &rows)) return false;
  Digest d;
  d.rows = rows.size();
  for (std::string_view r : rows) d.sum += RowHash(r);
  *out = d;
  return true;
}

bool Oracle::Check(const Op& op, const Digest& got) {
  auto it = memo_.find(op.text);
  if (it == memo_.end()) {
    Digest d;
    std::unordered_set<std::string> seen;
    for (const ExpectedRow& r : ExpectedRows(*ar_, op)) {
      if (!seen.insert(r.text).second) continue;
      ++d.rows;
      d.sum += RowHash(r.text);
    }
    it = memo_.emplace(op.text, d).first;
  }
  return it->second == got;
}

bool Oracle::CheckWindow(const Op& op, const std::vector<std::string_view>& rows,
                         int64_t sent_ns, int64_t recv_ns,
                         const std::map<uint32_t, int64_t>& written_ns,
                         const std::map<uint32_t, int64_t>& acked_ns) const {
  std::unordered_set<std::string> required, allowed;
  for (ExpectedRow& r : ExpectedRows(*ar_, op)) {
    if (r.scene >= 0) {
      uint32_t s = static_cast<uint32_t>(r.scene);
      auto acked = acked_ns.find(s);
      if (acked != acked_ns.end() && acked->second <= sent_ns) {
        required.insert(r.text);
      }
      auto written = written_ns.find(s);
      if (written == written_ns.end() || written->second > recv_ns) continue;
    } else {
      required.insert(r.text);
    }
    allowed.insert(std::move(r.text));
  }
  std::unordered_set<std::string_view> got;
  for (std::string_view row : rows) {
    if (!got.insert(row).second) return false;  // duplicate row
    if (allowed.count(std::string(row)) == 0) return false;
  }
  for (const std::string& r : required) {
    if (got.count(r) == 0) return false;
  }
  return true;
}

}  // namespace perfbench
