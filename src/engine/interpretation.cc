#include "src/engine/interpretation.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/common/string_util.h"
#include "src/model/database.h"
#include "src/obs/metrics.h"
#include "src/obs/stats.h"

namespace vqldb {

namespace {
// Join-index build/extension work happens in single-threaded phases (the
// evaluator pre-builds before fan-out), so a process-global counter here is
// uncontended; per-probe counting lives in the evaluator's per-task
// EvalStats blocks to keep the parallel hot path free of shared atomics.
obs::Counter* JoinIndexBuilds() {
  static obs::Counter* counter = obs::MetricsRegistry::Global().GetCounter(
      "vqldb_join_index_builds_total",
      "Multi-column join-index builds or incremental extensions");
  return counter;
}

// A store compacts its per-arity runs once more than this many accumulate,
// bounding both probe fan-out (one binary search per run) and the k of the
// merge.
constexpr size_t kMaxRunsPerArity = 8;
}  // namespace

Interpretation::Interpretation(const Interpretation& other)
    : stores_(other.stores_),
      total_(other.total_),
      generation_(other.generation_),
      budget_(other.budget_),
      accounted_bytes_(other.accounted_bytes_) {
  ChargeAccounted();
}

Interpretation& Interpretation::operator=(const Interpretation& other) {
  if (this == &other) return *this;
  ReleaseAccounted();
  stores_ = other.stores_;
  total_ = other.total_;
  generation_ = other.generation_;
  frozen_ = false;
  budget_ = other.budget_;
  accounted_bytes_ = other.accounted_bytes_;
  ChargeAccounted();
  return *this;
}

Interpretation::Interpretation(Interpretation&& other) noexcept
    : stores_(std::move(other.stores_)),
      total_(other.total_),
      generation_(other.generation_),
      frozen_(other.frozen_),
      observed_(other.observed_),
      budget_(std::move(other.budget_)),
      accounted_bytes_(other.accounted_bytes_),
      scratch_(std::move(other.scratch_)) {
  other.stores_.clear();
  other.total_ = 0;
  other.observed_ = false;
  other.generation_ = 0;
  other.frozen_ = false;
  other.budget_.reset();
  other.accounted_bytes_ = 0;
}

Interpretation& Interpretation::operator=(Interpretation&& other) noexcept {
  if (this == &other) return *this;
  ReleaseAccounted();
  stores_ = std::move(other.stores_);
  total_ = other.total_;
  generation_ = other.generation_;
  frozen_ = other.frozen_;
  observed_ = other.observed_;
  budget_ = std::move(other.budget_);
  accounted_bytes_ = other.accounted_bytes_;
  scratch_ = std::move(other.scratch_);
  other.stores_.clear();
  other.total_ = 0;
  other.generation_ = 0;
  other.frozen_ = false;
  other.observed_ = false;
  other.budget_.reset();
  other.accounted_bytes_ = 0;
  return *this;
}

void Interpretation::ReleaseAccounted() {
  if (budget_ != nullptr && accounted_bytes_ != 0) {
    budget_->ReleaseBytes(accounted_bytes_);
  }
  accounted_bytes_ = 0;
}

void Interpretation::ChargeAccounted() {
  if (budget_ != nullptr && accounted_bytes_ != 0) {
    budget_->ChargeBytes(accounted_bytes_);
  }
}

void Interpretation::set_budget(std::shared_ptr<ResourceBudget> budget) {
  if (budget_ == budget) return;
  ReleaseAccounted();
  budget_ = std::move(budget);
  if (budget_ == nullptr) return;
  // Account rows inserted before the budget was attached: the exact
  // RowBytes sum (16*rows + 8*ids). Dictionary amortization is charged only
  // once, by the Add() that interned each term.
  size_t bytes = 0;
  for (const auto& [name, store] : stores_) {
    (void)name;
    bytes += 16 * store.rows() + 8 * store.ids.size();
  }
  accounted_bytes_ = bytes;
  ChargeAccounted();
}

size_t Interpretation::HashRow(const uint32_t* row, uint32_t arity) {
  size_t seed = arity;
  for (uint32_t c = 0; c < arity; ++c) HashCombine(&seed, row[c]);
  return seed;
}

size_t Interpretation::FindSlot(const PredicateStore& store,
                                const uint32_t* row, uint32_t arity,
                                size_t hash) const {
  size_t cap = store.slots.size();
  size_t slot = hash & (cap - 1);
  while (true) {
    uint32_t pos1 = store.slots[slot];
    if (pos1 == 0) return slot;
    size_t pos = pos1 - 1;
    uint32_t begin = store.starts[pos];
    if (store.starts[pos + 1] - begin == arity &&
        std::equal(row, row + arity, store.ids.data() + begin)) {
      return slot;
    }
    slot = (slot + 1) & (cap - 1);
  }
}

void Interpretation::GrowSlots(PredicateStore* store) {
  size_t cap = store->slots.empty() ? 16 : store->slots.size();
  // Keep the table below ~70% load after the pending insert.
  while (cap * 7 <= (store->rows() + 1) * 10) cap *= 2;
  store->slots.assign(cap, 0);
  for (size_t pos = 0, n = store->rows(); pos < n; ++pos) {
    const uint32_t* r = store->ids.data() + store->starts[pos];
    uint32_t a = store->starts[pos + 1] - store->starts[pos];
    store->slots[FindSlot(*store, r, a, HashRow(r, a))] =
        static_cast<uint32_t>(pos) + 1;
  }
}

bool Interpretation::InsertRow(const std::string& predicate,
                               const uint32_t* row, uint32_t arity,
                               size_t dict_bytes) {
  VQLDB_CHECK(!frozen_) << "Interpretation::Add(" << predicate
                        << "/...) while frozen — insert-while-iterating "
                           "would invalidate live index references";
  PredicateStore& store = stores_[predicate];
  if (store.slots.empty()) GrowSlots(&store);
  size_t hash = HashRow(row, arity);
  size_t slot = FindSlot(store, row, arity, hash);
  if (store.slots[slot] != 0) return false;
  if (budget_ != nullptr) {
    // Meter before the insert; a trip is sticky in the budget and surfaces
    // at the engine's next cooperative poll — the insert itself still
    // happens, keeping every index consistent.
    size_t bytes = RowBytes(arity) + dict_bytes;
    accounted_bytes_ += bytes;
    budget_->ChargeBytes(bytes);
    budget_->ChargeTuples(1);
  }
  if ((store.rows() + 1) * 10 >= store.slots.size() * 7) {
    GrowSlots(&store);
    slot = FindSlot(store, row, arity, hash);
  }
  store.slots[slot] = static_cast<uint32_t>(store.rows()) + 1;
  store.ids.insert(store.ids.end(), row, row + arity);
  store.starts.push_back(static_cast<uint32_t>(store.ids.size()));
  if (arity > 64) store.has_wide = true;
  ++total_;
  ++generation_;
  if (observed_) {
    // Feed the per-column distinct-value sketches. Only the fixpoint-merge
    // interpretation is observed (single-threaded inserts), and only rows
    // that were actually new reach this point.
    obs::StatsCollector::Global().RecordRow(predicate, row, arity);
  }
  return true;
}

bool Interpretation::Add(Fact fact) {
  TermDict& dict = TermDict::Global();
  scratch_.clear();
  size_t dict_bytes = 0;
  for (const Value& v : fact.args) {
    TermDict::Interned interned = dict.Intern(v);
    scratch_.push_back(interned.id);
    dict_bytes += interned.added_bytes;
  }
  return InsertRow(fact.relation, scratch_.data(),
                   static_cast<uint32_t>(scratch_.size()), dict_bytes);
}

bool Interpretation::AddRow(const std::string& predicate, RowRef row) {
  return InsertRow(predicate, row.ids, row.arity, /*dict_bytes=*/0);
}

void Interpretation::AddStoredRelations(const VideoDatabase& db) {
  for (const auto& [predicate, rel] : db.Relations()) {
    for (size_t pos = 0; pos < rel.rows(); ++pos) {
      InsertRow(predicate, rel.row(pos), rel.arity(), /*dict_bytes=*/0);
    }
  }
}

bool Interpretation::Contains(const Fact& fact) const {
  auto it = stores_.find(fact.relation);
  if (it == stores_.end()) return false;
  const PredicateStore& store = it->second;
  if (store.slots.empty()) return false;
  TermDict& dict = TermDict::Global();
  uint32_t small[16];
  std::vector<uint32_t> big;
  uint32_t arity = static_cast<uint32_t>(fact.args.size());
  uint32_t* row = small;
  if (arity > 16) {
    big.resize(arity);
    row = big.data();
  }
  for (uint32_t i = 0; i < arity; ++i) {
    // A never-interned value cannot appear in any stored row.
    uint32_t id = dict.IdOf(fact.args[i]);
    if (id == kNoTermId) return false;
    row[i] = id;
  }
  return store.slots[FindSlot(store, row, arity, HashRow(row, arity))] != 0;
}

const std::vector<Fact>& Interpretation::FactsFor(
    const std::string& predicate) const {
  static const std::vector<Fact> kEmpty;
  auto it = stores_.find(predicate);
  if (it == stores_.end()) return kEmpty;
  const PredicateStore& store = it->second;
  size_t n = store.rows();
  if (store.decoded.size() < n) {
    TermDict& dict = TermDict::Global();
    store.decoded.reserve(n);
    for (size_t r = store.decoded.size(); r < n; ++r) {
      Fact f;
      f.relation = predicate;
      uint32_t begin = store.starts[r];
      uint32_t arity = store.starts[r + 1] - begin;
      f.args.reserve(arity);
      for (uint32_t c = 0; c < arity; ++c) {
        f.args.push_back(dict.Get(store.ids[begin + c]));
      }
      store.decoded.push_back(std::move(f));
    }
  }
  return store.decoded;
}

size_t Interpretation::CountFor(const std::string& predicate) const {
  auto it = stores_.find(predicate);
  return it == stores_.end() ? 0 : it->second.rows();
}

Interpretation::RelationView Interpretation::Relation(
    const std::string& predicate) const {
  auto it = stores_.find(predicate);
  return it == stores_.end() ? RelationView() : RelationView(&it->second);
}

const std::vector<size_t>& Interpretation::EmptyIndex() {
  static const std::vector<size_t> kEmpty;
  return kEmpty;
}

const std::vector<size_t>& Interpretation::Lookup(const std::string& predicate,
                                                  size_t pos,
                                                  const Value& value) const {
  auto it = stores_.find(predicate);
  if (it == stores_.end()) return EmptyIndex();
  const PredicateStore& store = it->second;
  auto& index = store.index[pos];
  size_t& upto = store.indexed_upto[pos];
  TermDict& dict = TermDict::Global();
  // Extend the index over rows added since the last lookup at this position.
  for (size_t n = store.rows(); upto < n; ++upto) {
    uint32_t begin = store.starts[upto];
    if (pos < store.starts[upto + 1] - begin) {
      index[dict.Get(store.ids[begin + pos])].push_back(upto);
    }
  }
  auto vit = index.find(value);
  return vit == index.end() ? EmptyIndex() : vit->second;
}

void Interpretation::ExtendMultiIndex(const PredicateStore& store,
                                      uint64_t mask, MultiIndex* mi) {
  if (mi->upto >= store.rows()) return;  // already current
  JoinIndexBuilds()->Increment();
  TermDict& dict = TermDict::Global();
  std::vector<Value> key;
  for (size_t n = store.rows(); mi->upto < n; ++mi->upto) {
    uint32_t begin = store.starts[mi->upto];
    size_t arity = store.starts[mi->upto + 1] - begin;
    key.clear();
    // Cap the walk at position 63: a uint64_t shift by >= 64 is undefined
    // behavior, and the bitmap cannot name positions beyond it anyway —
    // rows of arity > 64 are indexed by their first 64 positions, which is
    // exact for every representable mask.
    for (size_t pos = 0; pos < arity && pos < 64 && (mask >> pos) != 0;
         ++pos) {
      if (mask >> pos & 1) key.push_back(dict.Get(store.ids[begin + pos]));
    }
    // Rows too short for the mask can never match a probe at these
    // positions; leave them out of the index entirely.
    if (static_cast<size_t>(__builtin_popcountll(mask)) != key.size()) {
      continue;
    }
    mi->map[key].push_back(mi->upto);
  }
}

void Interpretation::ProbeSortedStore(const PredicateStore& store,
                                      const uint32_t* key, uint32_t key_len,
                                      uint32_t arity,
                                      std::vector<size_t>* out) {
  if (arity != 0) {
    // The common probe: one arity, one (compacted) run — search it directly
    // instead of walking the runs map.
    auto rit = store.runs.find(arity);
    if (rit != store.runs.end()) {
      for (const auto& seg : rit->second) {
        auto [lo, hi] = seg->EqualRange(key, key_len);
        for (uint32_t r = lo; r < hi; ++r) out->push_back(seg->src[r]);
      }
    }
  } else {
    for (const auto& [seg_arity, segs] : store.runs) {
      if (seg_arity < key_len) continue;
      for (const auto& seg : segs) {
        auto [lo, hi] = seg->EqualRange(key, key_len);
        for (uint32_t r = lo; r < hi; ++r) out->push_back(seg->src[r]);
      }
    }
  }
  // Linear scan of the unsealed tail.
  if (store.sealed_rows < store.rows()) {
    for (size_t r = store.sealed_rows, n = store.rows(); r < n; ++r) {
      uint32_t begin = store.starts[r];
      uint32_t a = store.starts[r + 1] - begin;
      if (arity != 0 ? a != arity : a < key_len) continue;
      if (std::equal(key, key + key_len, store.ids.data() + begin)) {
        out->push_back(r);
      }
    }
  }
  // Ascending insertion-order positions: identical candidate order to the
  // hash-index path, which appends positions as rows arrive — byte-for-byte
  // equal evaluation regardless of the chosen join strategy.
  if (out->size() > 1) std::sort(out->begin(), out->end());
}

void Interpretation::ProbeSorted(const std::string& predicate,
                                 const uint32_t* key, uint32_t key_len,
                                 uint32_t arity,
                                 std::vector<size_t>* out) const {
  out->clear();
  VQLDB_DCHECK(key_len >= 1);
  auto it = stores_.find(predicate);
  if (it == stores_.end()) return;
  ProbeSortedStore(it->second, key, key_len, arity, out);
}

void Interpretation::RelationView::ProbeSorted(const uint32_t* key,
                                               uint32_t key_len,
                                               uint32_t arity,
                                               std::vector<size_t>* out) const {
  out->clear();
  const PredicateStore& store = *store_;
  if (arity != 0) {
    if (segs_arity_ != arity) {
      auto rit = store.runs.find(arity);
      segs_ = rit == store.runs.end() ? nullptr : &rit->second;
      segs_arity_ = arity;
    }
    if (segs_ != nullptr) {
      for (const auto& seg : *segs_) {
        auto [lo, hi] = seg->EqualRange(key, key_len);
        for (uint32_t r = lo; r < hi; ++r) out->push_back(seg->src[r]);
      }
    }
    // Linear scan of the unsealed tail, then restore ascending insertion
    // order (identical candidate order to the hash-index path).
    if (store.sealed_rows < store.rows()) {
      for (size_t r = store.sealed_rows, n = store.rows(); r < n; ++r) {
        uint32_t begin = store.starts[r];
        if (store.starts[r + 1] - begin != arity) continue;
        if (std::equal(key, key + key_len, store.ids.data() + begin)) {
          out->push_back(r);
        }
      }
    }
    if (out->size() > 1) std::sort(out->begin(), out->end());
    return;
  }
  Interpretation::ProbeSortedStore(store, key, key_len, arity, out);
}

const std::vector<size_t>& Interpretation::LookupMulti(
    const std::string& predicate, uint64_t mask,
    const std::vector<Value>& key) const {
  auto it = stores_.find(predicate);
  if (it == stores_.end()) return EmptyIndex();
  const PredicateStore& store = it->second;
  if (mask == 0) {
    // Nothing bound: degrade to a full scan. Every fact trivially matches
    // the empty key, so the mask-0 index maps {} -> all positions; probe it
    // with the empty key regardless of what the caller passed.
    static const std::vector<Value> kEmptyKey;
    MultiIndex& mi = store.multi_index[0];
    ExtendMultiIndex(store, 0, &mi);
    auto vit = mi.map.find(kEmptyKey);
    return vit == mi.map.end() ? EmptyIndex() : vit->second;
  }
  if (store.has_wide && !frozen_ && (mask & (mask + 1)) == 0) {
    // Wide-row store, contiguous-prefix mask: answer by binary search over
    // the sorted runs plus a tail scan instead of materializing a hash index
    // over the wide rows. Memoized per key; any row-count change invalidates
    // the cache wholesale — the same "stable until the next Add of this
    // predicate" contract as the hash path. Skipped while frozen, because
    // frozen interpretations are probed concurrently and this path mutates.
    SortedProbeCache& cache = store.probe_cache[mask];
    if (cache.valid_rows != store.rows()) {
      cache.map.clear();
      cache.valid_rows = store.rows();
    }
    auto [cit, inserted] = cache.map.try_emplace(key);
    if (inserted && !key.empty()) {
      TermDict& dict = TermDict::Global();
      uint32_t key_len = static_cast<uint32_t>(key.size());
      uint32_t kids[64];
      bool dead = false;
      for (uint32_t i = 0; i < key_len; ++i) {
        kids[i] = dict.IdOf(key[i]);
        if (kids[i] == kNoTermId) dead = true;  // value never interned
      }
      if (!dead) {
        ProbeSortedStore(store, kids, key_len, /*arity=*/0, &cit->second);
      }
    }
    return cit->second;
  }
  auto mit = store.multi_index.find(mask);
  if (mit == store.multi_index.end() || mit->second.upto < store.rows()) {
    // Slow path: create or extend (single-threaded phases only; PrepareIndex
    // makes the hot path above mutation-free for concurrent probes).
    MultiIndex& mi = store.multi_index[mask];
    ExtendMultiIndex(store, mask, &mi);
    auto vit = mi.map.find(key);
    return vit == mi.map.end() ? EmptyIndex() : vit->second;
  }
  auto vit = mit->second.map.find(key);
  return vit == mit->second.map.end() ? EmptyIndex() : vit->second;
}

void Interpretation::PrepareIndex(const std::string& predicate,
                                  uint64_t mask) const {
  auto it = stores_.find(predicate);
  if (it == stores_.end()) return;
  const PredicateStore& store = it->second;
  MultiIndex& mi = store.multi_index[mask];
  ExtendMultiIndex(store, mask, &mi);
}

void Interpretation::SealStore(const PredicateStore& store) {
  size_t n = store.rows();
  if (store.sealed_rows == n) return;  // nothing new since the last seal
  // Gather the unsealed tail into per-arity row-major buffers.
  std::map<uint32_t, std::pair<std::vector<uint32_t>, std::vector<uint32_t>>>
      by_arity;  // arity -> (row-major ids, insertion positions)
  for (size_t r = store.sealed_rows; r < n; ++r) {
    uint32_t begin = store.starts[r];
    uint32_t arity = store.starts[r + 1] - begin;
    auto& [rows_ids, src] = by_arity[arity];
    rows_ids.insert(rows_ids.end(), store.ids.begin() + begin,
                    store.ids.begin() + begin + arity);
    src.push_back(static_cast<uint32_t>(r));
  }
  for (auto& [arity, buf] : by_arity) {
    auto& segs = store.runs[arity];
    segs.push_back(Segment::Build(buf.first.data(), buf.second.data(),
                                  buf.second.size(), arity));
    if (segs.size() > kMaxRunsPerArity) {
      auto merged = Segment::Merge(segs);
      segs.clear();
      segs.push_back(std::move(merged));
    }
  }
  store.sealed_rows = n;
}

void Interpretation::SealSegments() const {
  for (const auto& [name, store] : stores_) {
    (void)name;
    SealStore(store);
  }
}

uint64_t Interpretation::SealedDigest(const std::string& predicate) const {
  auto it = stores_.find(predicate);
  if (it == stores_.end()) return 0;
  uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  for (const auto& [arity, segs] : it->second.runs) {
    (void)arity;
    for (const auto& seg : segs) {
      mix(seg->arity);
      mix(seg->rows);
      for (uint32_t v : seg->cols) mix(v);
      for (uint32_t v : seg->src) mix(v);
    }
  }
  return h;
}

std::vector<std::string> Interpretation::Predicates() const {
  std::vector<std::string> out;
  for (const auto& [name, store] : stores_) {
    if (store.rows() != 0) out.push_back(name);
  }
  return out;
}

bool Interpretation::SubsetOf(const Interpretation& other) const {
  // Symbol ids are process-global, so inclusion is an id-level membership
  // test — no decoding.
  for (const auto& [name, store] : stores_) {
    size_t n = store.rows();
    if (n == 0) continue;
    auto oit = other.stores_.find(name);
    if (oit == other.stores_.end() || oit->second.slots.empty()) return false;
    const PredicateStore& os = oit->second;
    for (size_t r = 0; r < n; ++r) {
      const uint32_t* row = store.ids.data() + store.starts[r];
      uint32_t arity = store.starts[r + 1] - store.starts[r];
      if (os.slots[FindSlot(os, row, arity, HashRow(row, arity))] == 0) {
        return false;
      }
    }
  }
  return true;
}

std::vector<Fact> Interpretation::AllFacts() const {
  std::vector<Fact> out;
  out.reserve(total_);
  for (const auto& [name, store] : stores_) {
    (void)store;
    const std::vector<Fact>& facts = FactsFor(name);
    out.insert(out.end(), facts.begin(), facts.end());
  }
  return out;
}

std::string Interpretation::ToString() const {
  std::vector<std::string> parts;
  for (const Fact& f : AllFacts()) parts.push_back(f.ToString());
  return "{" + Join(parts, ", ") + "}";
}

Interpretation::StorageStats Interpretation::ComputeStorageStats() const {
  StorageStats s;
  TermDict& dict = TermDict::Global();
  for (const auto& [name, store] : stores_) {
    s.rows += store.rows();
    s.sealed_rows += store.sealed_rows;
    s.columnar_bytes += sizeof(PredicateStore) +
                        (store.ids.capacity() + store.starts.capacity() +
                         store.slots.capacity()) *
                            4;
    for (const auto& [arity, segs] : store.runs) {
      (void)arity;
      s.segments += segs.size();
      for (const auto& seg : segs) s.columnar_bytes += seg->ApproxBytes();
    }
    // What the replaced row-store-of-boxed-Values would hold for the same
    // rows: one Fact shell + relation name per row plus every boxed value.
    s.row_store_bytes += (sizeof(Fact) + name.size()) * store.rows();
    for (uint32_t id : store.ids) {
      s.row_store_bytes += dict.Get(id).ApproxBytes();
    }
  }
  return s;
}

std::vector<Interpretation::RelationStats> Interpretation::PerRelationStats()
    const {
  std::vector<RelationStats> out;
  out.reserve(stores_.size());
  for (const auto& [name, store] : stores_) {
    RelationStats rs;
    rs.predicate = name;
    rs.arity = store.rows() == 0 ? 0 : store.starts[1] - store.starts[0];
    rs.rows = store.rows();
    rs.sealed_rows = store.sealed_rows;
    // Same per-store accounting as ComputeStorageStats::columnar_bytes —
    // the aggregate storage line is exactly the sum of these rows.
    rs.bytes = sizeof(PredicateStore) +
               (store.ids.capacity() + store.starts.capacity() +
                store.slots.capacity()) *
                   4;
    for (const auto& [arity, segs] : store.runs) {
      (void)arity;
      rs.segments += segs.size();
      for (const auto& seg : segs) rs.bytes += seg->ApproxBytes();
    }
    out.push_back(std::move(rs));
  }
  return out;
}

size_t Interpretation::ApproxRowsBytes() const {
  size_t bytes = 0;
  for (const auto& [name, store] : stores_) {
    (void)name;
    bytes += sizeof(PredicateStore) +
             (store.ids.capacity() + store.starts.capacity() +
              store.slots.capacity()) *
                 4;
    for (const auto& [arity, segs] : store.runs) {
      (void)arity;
      for (const auto& seg : segs) bytes += seg->ApproxBytes();
    }
  }
  return bytes;
}

}  // namespace vqldb
