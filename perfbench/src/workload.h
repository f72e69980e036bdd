// Request mixes and the independent answer oracle.
//
// Every read the benchmark sends belongs to a query class. The oracle
// computes a class's expected row set from the archive's own tables
// (archive.h) — never from the engine — and renders each row the way
// QueryResult::ToString does, so a response can be compared row by row.

#ifndef PERFBENCH_SRC_WORKLOAD_H_
#define PERFBENCH_SRC_WORKLOAD_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "perfbench/src/archive.h"
#include "src/common/rng.h"

namespace perfbench {

enum class QueryClass : uint8_t {
  kSpeaksFwd,       // speaks(aK, G)
  kSpeaksRev,       // speaks(O, scK)
  kHoldsRev,        // holds(O, aK, G)
  kAppears,         // appears(aK, G)
  kCooccurPair,     // cooccur(aI, aJ, G)
  kLaterFwd,        // later(scK, G)
  kLaterRev,        // later(G, scK)
  kSameObjectIn,    // same_object_in(scK, G, O)
  kContains,        // contains(scK, G)
  kCooccurOne,      // cooccur(aI, O, G)
  kReportCooccur,   // cooccur(X, Y, G)
  kReportLater,     // later(X, Y)
  kReportContains,  // contains(X, Y)
  kFreshRead,       // speaks(O, scK) on a scene the annotator just wrote
  kCount,
};

const char* ClassName(QueryClass c);

enum class WorkloadKind { kLookup, kAnalytics, kIngest };

/// "lookup" | "analytics" | "ingest"; false for anything else.
bool WorkloadByName(const std::string& name, WorkloadKind* out);
/// The archive size each workload runs on.
const char* WorkloadSize(WorkloadKind w);

struct Op {
  QueryClass cls = QueryClass::kSpeaksFwd;
  uint32_t x = 0;  // the bound actor or scene (first constant)
  uint32_t y = 0;  // second constant (cooccur pairs)
  std::string text;
};

/// The read a browsing client of workload `w` sends next.
Op DrawRead(const Archive& ar, WorkloadKind w, vqldb::Rng* rng);
/// The read-back of an ingest scene.
Op FreshRead(uint32_t scene);
/// speaks(aK, G): the warm-up read.
Op PointLookup(uint32_t actor);

/// One expected row, with the ingest scene it depends on (-1: base data).
struct ExpectedRow {
  std::string text;
  int64_t scene = -1;
};
std::vector<ExpectedRow> ExpectedRows(const Archive& ar, const Op& op);

/// Order-independent fingerprint of a row set: count and hash sum.
struct Digest {
  uint64_t rows = 0;
  uint64_t sum = 0;
  bool operator==(const Digest&) const = default;
};
uint64_t RowHash(std::string_view row);

/// Splits a QueryResult::ToString body into its rows. False when the body
/// is malformed (bad header, row count disagreeing with the header).
bool ParseRows(std::string_view body, std::vector<std::string_view>* rows);
/// ParseRows + Digest in one pass; false on a malformed body.
bool DigestBody(std::string_view body, Digest* out);

/// Expected digests, memoized per query text (report goals repeat).
class Oracle {
 public:
  explicit Oracle(const Archive* ar) : ar_(ar) {}
  /// Read-only workloads: the answer must equal the expected set.
  bool Check(const Op& op, const Digest& got);
  /// Ingest: `rows` must hold every row whose scene was acknowledged
  /// before the read was sent (acked_ns[scene] <= sent_ns) and no row whose
  /// scene was not yet sent when the answer came back
  /// (written_ns[scene] > recv_ns, or never written).
  bool CheckWindow(const Op& op, const std::vector<std::string_view>& rows,
                   int64_t sent_ns, int64_t recv_ns,
                   const std::map<uint32_t, int64_t>& written_ns,
                   const std::map<uint32_t, int64_t>& acked_ns) const;

 private:
  const Archive* ar_;
  std::map<std::string, Digest> memo_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOAD_H_
