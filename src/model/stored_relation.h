// StoredRelation: the storage of record for one relation of R (the
// database's ground facts). Rows are held once, dictionary-encoded into
// TermDict symbol ids (the encoding Interpretation uses, so rows copy into
// an evaluator's interpretation without re-interning), in assertion order:
//
//   ids     — row r's `arity` ids occupy ids[r*arity .. (r+1)*arity);
//   slots   — open-addressed membership table of row positions + 1
//             (0 = empty), so a duplicate assertion is one probe;
//   columns — per argument position, the postings id -> row positions,
//             kept as an intrusive chain: `prev[r]` is the previous row
//             holding the same id in that column, and a small open-addressed
//             head table maps each distinct id to its last row and row
//             count. Postings are maintained eagerly on Insert, so a const
//             relation is never mutated by a read.
//
// A relation has one arity (VideoDatabase::AssertFact enforces it). Bound
// probes pick the column with the fewest rows for their ids (the counts are
// exact) and filter the remaining bound columns on raw ids.

#ifndef VQLDB_MODEL_STORED_RELATION_H_
#define VQLDB_MODEL_STORED_RELATION_H_

#include <cstdint>
#include <vector>

#include "src/model/value.h"

namespace vqldb {

class StoredRelation {
 public:
  StoredRelation() = default;
  explicit StoredRelation(uint32_t arity);

  uint32_t arity() const { return arity_; }
  size_t rows() const { return rows_; }

  /// Row `pos`'s symbol ids (`arity()` of them); stable until the next
  /// Insert.
  const uint32_t* row(size_t pos) const { return ids_.data() + pos * arity_; }

  /// Row `pos` decoded through the term dictionary.
  std::vector<Value> ArgsAt(size_t pos) const;

  /// True iff the relation holds the row of `arity()` ids.
  bool Contains(const uint32_t* row) const;

  /// Exact number of distinct ids in column `col`.
  size_t Distinct(uint32_t col) const;

  /// Appends to `out`, in ascending (assertion) order, the positions of the
  /// rows that hold `key[c]` in every column c whose bit is set in `mask`.
  /// Walks the postings of the bound column with the fewest rows and
  /// filters the other bound columns on ids; `mask` == 0 lists every row.
  /// Returns the number of rows the walk touched.
  size_t Match(uint64_t mask, const uint32_t* key,
               std::vector<uint32_t>* out) const;

  /// Inserts a row of `arity()` ids; false if it was already present.
  bool Insert(const uint32_t* row);

 private:
  static constexpr uint32_t kNoRow = 0xffffffffu;

  struct Head {
    uint32_t id;  // kNoTermId marks an empty slot
    uint32_t last;
    uint32_t count;
  };
  struct Column {
    std::vector<uint32_t> prev;  // per row: previous row with the same id
    std::vector<Head> heads;     // open-addressed, power-of-two capacity
    size_t distinct = 0;

    const Head* Find(uint32_t id) const;
    void Append(uint32_t id, uint32_t pos);
  };

  size_t FindSlot(const uint32_t* row, size_t hash) const;
  void GrowSlots();

  uint32_t arity_ = 0;
  size_t rows_ = 0;
  std::vector<uint32_t> ids_;
  std::vector<uint32_t> slots_;
  std::vector<Column> columns_;
};

}  // namespace vqldb

#endif  // VQLDB_MODEL_STORED_RELATION_H_
