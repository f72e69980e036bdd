#include "src/model/stored_relation.h"

#include <algorithm>

#include "src/common/hash.h"
#include "src/model/term_dict.h"

namespace vqldb {

namespace {

size_t HashRow(const uint32_t* row, uint32_t arity) {
  size_t h = arity;
  for (uint32_t c = 0; c < arity; ++c) HashCombine(&h, row[c]);
  // Final avalanche (MurmurHash3 fmix64). Over dense ids, hash_combine
  // leaves the low bits the slot mask keeps correlated, and linear probing
  // then walks long clusters.
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdull;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ull;
  h ^= h >> 33;
  return h;
}

// Fibonacci hashing: dictionary ids are dense, so spread them over the
// high bits before masking.
size_t HashId(uint32_t id) {
  return static_cast<size_t>((uint64_t{id} * 0x9E3779B97F4A7C15ull) >> 32);
}

}  // namespace

StoredRelation::StoredRelation(uint32_t arity)
    : arity_(arity), columns_(arity) {}

std::vector<Value> StoredRelation::ArgsAt(size_t pos) const {
  TermDict& dict = TermDict::Global();
  std::vector<Value> args;
  args.reserve(arity_);
  const uint32_t* r = row(pos);
  for (uint32_t c = 0; c < arity_; ++c) args.push_back(dict.Get(r[c]));
  return args;
}

const StoredRelation::Head* StoredRelation::Column::Find(uint32_t id) const {
  if (heads.empty() || id == kNoTermId) return nullptr;
  size_t mask = heads.size() - 1;
  for (size_t slot = HashId(id) & mask;; slot = (slot + 1) & mask) {
    const Head& h = heads[slot];
    if (h.id == id) return &h;
    if (h.id == kNoTermId) return nullptr;
  }
}

void StoredRelation::Column::Append(uint32_t id, uint32_t pos) {
  if ((distinct + 1) * 2 > heads.size()) {
    // Keep the head table at most half full.
    std::vector<Head> old = std::move(heads);
    heads.assign(old.empty() ? 16 : old.size() * 2,
                 Head{kNoTermId, kNoRow, 0});
    size_t mask = heads.size() - 1;
    for (const Head& h : old) {
      if (h.id == kNoTermId) continue;
      size_t slot = HashId(h.id) & mask;
      while (heads[slot].id != kNoTermId) slot = (slot + 1) & mask;
      heads[slot] = h;
    }
  }
  size_t mask = heads.size() - 1;
  size_t slot = HashId(id) & mask;
  while (heads[slot].id != kNoTermId && heads[slot].id != id) {
    slot = (slot + 1) & mask;
  }
  Head& h = heads[slot];
  if (h.id == kNoTermId) {
    h = Head{id, kNoRow, 0};
    ++distinct;
  }
  prev.push_back(h.last);
  h.last = pos;
  ++h.count;
}

size_t StoredRelation::FindSlot(const uint32_t* row, size_t hash) const {
  size_t mask = slots_.size() - 1;
  for (size_t slot = hash & mask;; slot = (slot + 1) & mask) {
    uint32_t pos1 = slots_[slot];
    if (pos1 == 0 ||
        std::equal(row, row + arity_, ids_.data() + (pos1 - 1) * arity_)) {
      return slot;
    }
  }
}

void StoredRelation::GrowSlots() {
  size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  slots_.assign(cap, 0);
  for (size_t pos = 0; pos < rows_; ++pos) {
    const uint32_t* r = row(pos);
    slots_[FindSlot(r, HashRow(r, arity_))] = static_cast<uint32_t>(pos) + 1;
  }
}

bool StoredRelation::Contains(const uint32_t* row) const {
  if (slots_.empty()) return false;
  return slots_[FindSlot(row, HashRow(row, arity_))] != 0;
}

bool StoredRelation::Insert(const uint32_t* row) {
  if (slots_.empty()) GrowSlots();
  const size_t hash = HashRow(row, arity_);
  size_t slot = FindSlot(row, hash);
  if (slots_[slot] != 0) return false;
  // Keep the membership table below ~70% load after the insert.
  if ((rows_ + 1) * 10 >= slots_.size() * 7) {
    GrowSlots();
    slot = FindSlot(row, hash);
  }
  const uint32_t pos = static_cast<uint32_t>(rows_);
  slots_[slot] = pos + 1;
  ids_.insert(ids_.end(), row, row + arity_);
  for (uint32_t c = 0; c < arity_; ++c) columns_[c].Append(row[c], pos);
  ++rows_;
  return true;
}

size_t StoredRelation::Distinct(uint32_t col) const {
  return col < arity_ ? columns_[col].distinct : 0;
}

size_t StoredRelation::Match(uint64_t mask, const uint32_t* key,
                             std::vector<uint32_t>* out) const {
  // Pick the bound column with the fewest rows for its id; a column whose
  // id was never stored there proves the match empty.
  uint32_t best = kNoRow;
  const Head* best_head = nullptr;
  for (uint32_t c = 0; c < arity_ && c < 64; ++c) {
    if (!(mask >> c & 1)) continue;
    const Head* h = columns_[c].Find(key[c]);
    if (h == nullptr) return 0;
    if (best_head == nullptr || h->count < best_head->count) {
      best = c;
      best_head = h;
    }
  }
  const size_t first = out->size();
  if (best_head == nullptr) {
    for (size_t pos = 0; pos < rows_; ++pos) {
      out->push_back(static_cast<uint32_t>(pos));
    }
    return rows_;
  }
  const std::vector<uint32_t>& prev = columns_[best].prev;
  size_t touched = 0;
  for (uint32_t pos = best_head->last; pos != kNoRow; pos = prev[pos]) {
    ++touched;
    const uint32_t* r = row(pos);
    bool match = true;
    for (uint32_t c = 0; c < arity_ && c < 64 && match; ++c) {
      if (c != best && (mask >> c & 1)) match = r[c] == key[c];
    }
    if (match) out->push_back(pos);
  }
  // The chain runs newest-first; report assertion order.
  std::reverse(out->begin() + static_cast<std::ptrdiff_t>(first), out->end());
  return touched;
}

}  // namespace vqldb
