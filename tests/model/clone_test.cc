// VideoDatabase::Clone(): the copy a snapshot session reads. A clone must
// answer every query exactly as its source does, under every evaluation
// strategy, and exactly as a BinaryFormat round trip of the source does.
// Once made, it must be independent: facts, attributes, derived intervals
// and the lazily rebuilt temporal index changed on one side stay invisible
// to the other.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/engine/evaluator.h"
#include "src/engine/query.h"
#include "src/model/database.h"
#include "src/storage/binary_format.h"
#include "src/storage/catalog.h"

namespace vqldb {
namespace {

// The Section 5.2 database extract (a1=0, b1=10, a2=15, b2=40).
constexpr const char* kRopeProgram = R"(
  object o1 { name: "David", role: "Victim" }.
  object o2 { name: "Philip", realname: "Farley Granger", role: "Murderer" }.
  object o3 { name: "Brandon", realname: "John Dall", role: "Murderer" }.
  object o4 { identification: "Chest" }.
  object o5 { name: "Janet", realname: "Joan Chandler" }.
  object o6 { name: "Kenneth", realname: "Douglas Dick" }.
  object o7 { name: "Mr.Kentley", realname: "Cedric Hardwicke" }.
  object o8 { name: "Mrs.Atwater", realname: "Constance Collier" }.
  object o9 { name: "Rupert Cadell", realname: "James Stewart" }.
  interval gi1 { duration: (t > 0 and t < 10),
                 entities: {o1, o2, o3, o4},
                 subject: "murder", victim: o1, murderer: {o2, o3} }.
  interval gi2 { duration: (t > 15 and t < 40),
                 entities: {o1, o2, o3, o4, o5, o6, o7, o8, o9},
                 subject: "Giving a party", host: {o2, o3},
                 guest: {o5, o6, o7, o8, o9} }.
  in(o1, o4, gi1).
  in(o1, o4, gi2).
  q1(O) <- Interval(gi1), Object(O), O in gi1.entities.
  q3(G) <- Interval(G), Object(o1), o1 in G.entities,
           G.duration => (t > 0 and t < 12).
  q4(G) <- Interval(G), {o1, o5} subset G.entities.
  q6(G1 ++ G2) <- Interval(G1), Interval(G2).
)";

const std::vector<std::string> kRopeQueries = {
    "?- q1(O).",           "?- q3(G).",          "?- q4(G).",
    "?- q6(G).",           "?- in(X, Y, gi2).",  "?- appears(o9, G).",
    "?- cooccur(o2, O, G).", "?- contains(G1, G2).",
    "?- same_object_in(gi1, gi2, O)."};

// A ~10k-fact archive shaped like the benchmark's: videos of ten scenes,
// two or three actors per scene, speaks / holds / next facts. Entities are
// declared before intervals, so a BinaryFormat round trip keeps every oid.
std::string ArchiveProgram(int scenes) {
  const int actors = scenes / 8;
  std::string out;
  for (int a = 0; a < actors; ++a) {
    out += "object a" + std::to_string(a) + " { }.\n";
  }
  auto actor = [&](int s, int k) {
    return "a" + std::to_string((s * (2 * k + 3) + k * 7) % actors);
  };
  for (int s = 0; s < scenes; ++s) {
    out += "interval s" + std::to_string(s) + " { duration: (t >= " +
           std::to_string(s * 10) + " and t <= " + std::to_string(s * 10 + 12) +
           "), entities: {" + actor(s, 0) + ", " + actor(s, 1) +
           (s % 3 == 0 ? ", " + actor(s, 2) : "") + "} }.\n";
  }
  for (int s = 0; s < scenes; ++s) {
    std::string scene = "s" + std::to_string(s);
    out += "speaks(" + actor(s, 0) + ", " + scene + ").\n";
    out += "holds(" + actor(s, 0) + ", " + actor(s, 1) + ", " + scene + ").\n";
    if (s % 10 != 9) {
      out += "next(" + scene + ", s" + std::to_string(s + 1) + ").\n";
    }
  }
  // Joins and a closure over the stored relations; the standard library's
  // interval-product rules would make the forced fixpoint quadratic here.
  out += "later(G1, G2) <- next(G1, G2).\n";
  out += "later(G1, G3) <- next(G1, G2), later(G2, G3).\n";
  out += "answers(X, Y) <- speaks(X, G), holds(X, Y, G).\n";
  out += "speaks_before(X, H) <- speaks(X, G), next(G, H).\n";
  return out;
}

const std::vector<std::string> kArchiveQueries = {
    "?- speaks(a5, G).",        "?- speaks(X, s100).",
    "?- holds(X, Y, s42).",     "?- later(s10, G).",
    "?- later(G, s19).",        "?- answers(a7, Y).",
    "?- speaks_before(X, s43).", "?- next(G1, G2)."};

const EvalStrategy kStrategies[] = {EvalStrategy::kAuto, EvalStrategy::kQsqr,
                                    EvalStrategy::kMagic,
                                    EvalStrategy::kFixpoint};

// Loads `program` into `db` and returns the rules it declared.
std::vector<Rule> LoadInto(VideoDatabase* db, const std::string& program) {
  QuerySession loader(db);
  EXPECT_TRUE(loader.Load(program).ok());
  return loader.rules();
}

std::string RopeWithLibrary() {
  return std::string(kRopeProgram) + StandardRuleLibrary();
}

// Every query's rendered rows, one string per query.
std::vector<std::string> Answers(VideoDatabase* db,
                                 const std::vector<Rule>& rules,
                                 EvalStrategy strategy,
                                 const std::vector<std::string>& queries) {
  EvalOptions options;
  options.strategy = strategy;
  QuerySession session(db, options);
  for (const Rule& rule : rules) EXPECT_TRUE(session.AddRule(rule).ok());
  std::vector<std::string> out;
  for (const std::string& q : queries) {
    auto result = session.Query(q);
    EXPECT_TRUE(result.ok()) << q << ": " << result.status();
    out.push_back(result.ok() ? result->ToString(db) : "error");
  }
  return out;
}

// The sealed-segment digest of each base relation after a rule-free
// fixpoint: equal digests mean byte-equal id segments.
std::vector<uint64_t> Digests(VideoDatabase* db) {
  auto eval = Evaluator::Make(db, {}, EvalOptions{});
  EXPECT_TRUE(eval.ok());
  if (!eval.ok()) return {};
  auto fp = eval->Fixpoint();
  EXPECT_TRUE(fp.ok());
  if (!fp.ok()) return {};
  fp->SealSegments();
  std::vector<uint64_t> out;
  for (const std::string& name : db->RelationNames()) {
    out.push_back(fp->SealedDigest(name));
  }
  return out;
}

VideoDatabase RoundTrip(const VideoDatabase& db) {
  auto bytes = BinaryFormat::Serialize(db);
  EXPECT_TRUE(bytes.ok());
  auto restored = BinaryFormat::Deserialize(*bytes);
  EXPECT_TRUE(restored.ok()) << restored.status();
  return std::move(*restored);
}

void ExpectSameAnswers(const std::string& program,
                       const std::vector<std::string>& queries) {
  for (EvalStrategy strategy : kStrategies) {
    SCOPED_TRACE("strategy " + std::to_string(static_cast<int>(strategy)));
    // Fresh databases per strategy: queries materialize derived intervals
    // and fill caches, and each strategy should start from the loaded state.
    VideoDatabase source;
    std::vector<Rule> rules = LoadInto(&source, program);
    VideoDatabase clone = source.Clone();
    VideoDatabase restored = RoundTrip(source);
    EXPECT_EQ(clone.epoch(), source.epoch());
    EXPECT_EQ(*BinaryFormat::Serialize(clone), *BinaryFormat::Serialize(source));

    std::vector<uint64_t> digests = Digests(&source);
    EXPECT_FALSE(digests.empty());
    EXPECT_EQ(Digests(&clone), digests);
    EXPECT_EQ(Digests(&restored), digests);

    std::vector<std::string> expected =
        Answers(&source, rules, strategy, queries);
    EXPECT_EQ(Answers(&clone, rules, strategy, queries), expected);
    EXPECT_EQ(Answers(&restored, rules, strategy, queries), expected);
  }
}

TEST(CloneTest, RopeDatabaseAnswersMatchSourceAndRoundTrip) {
  ExpectSameAnswers(RopeWithLibrary(), kRopeQueries);
}

TEST(CloneTest, ArchiveAnswersMatchSourceAndRoundTrip) {
  VideoDatabase probe;
  LoadInto(&probe, ArchiveProgram(3400));
  EXPECT_GE(probe.fact_count(), 9000u);
  ExpectSameAnswers(ArchiveProgram(3400), kArchiveQueries);
}

class CloneIndependenceTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadInto(&source_, RopeWithLibrary()); }

  ObjectId Id(const char* symbol) { return *source_.Resolve(symbol); }

  VideoDatabase source_;
};

TEST_F(CloneIndependenceTest, FactsStayOnTheirSide) {
  VideoDatabase clone = source_.Clone();
  Fact on_clone{"in", {Value::Oid(Id("o5")), Value::Oid(Id("o4")),
                       Value::Oid(Id("gi2"))}};
  Fact on_source{"seen", {Value::Oid(Id("o9"))}};
  ASSERT_TRUE(clone.AssertFact(on_clone).ok());
  ASSERT_TRUE(source_.AssertFact(on_source).ok());

  EXPECT_TRUE(clone.HasFact(on_clone));
  EXPECT_FALSE(source_.HasFact(on_clone));
  EXPECT_TRUE(source_.HasFact(on_source));
  EXPECT_FALSE(clone.HasFact(on_source));
  EXPECT_EQ(clone.Relation("in").rows(), 3u);
  EXPECT_EQ(source_.Relation("in").rows(), 2u);
  EXPECT_EQ(clone.Relation("seen").rows(), 0u);
  EXPECT_EQ(clone.fact_count(), source_.fact_count());
}

TEST_F(CloneIndependenceTest, AttributesAndEntityIndexStayOnTheirSide) {
  VideoDatabase clone = source_.Clone();
  ASSERT_TRUE(
      clone.SetAttribute(Id("o1"), "role", Value::String("Guest")).ok());
  ASSERT_TRUE(clone.AddEntityToInterval(Id("gi1"), Id("o9")).ok());
  ASSERT_TRUE(
      source_.SetAttribute(Id("o5"), "role", Value::String("Host")).ok());

  EXPECT_EQ(clone.GetAttribute(Id("o1"), "role")->string_value(), "Guest");
  EXPECT_EQ(source_.GetAttribute(Id("o1"), "role")->string_value(), "Victim");
  EXPECT_TRUE(clone.GetAttribute(Id("o5"), "role").status().IsNotFound());
  EXPECT_EQ(clone.IntervalsWithEntity(Id("o9")),
            (std::vector<ObjectId>{Id("gi1"), Id("gi2")}));
  EXPECT_EQ(source_.IntervalsWithEntity(Id("o9")),
            (std::vector<ObjectId>{Id("gi2")}));
  EXPECT_EQ(clone.FindByAttribute("role", Value::String("Host")).size(), 0u);
  EXPECT_EQ(source_.FindByAttribute("role", Value::String("Host")),
            (std::vector<ObjectId>{Id("o5")}));
}

TEST_F(CloneIndependenceTest, DerivedIntervalsStayOnTheirSide) {
  ObjectId on_source = *source_.Concatenate(Id("gi1"), Id("gi2"));
  VideoDatabase clone = source_.Clone();
  EXPECT_EQ(clone.derived_interval_count(), 1u);
  // The clone reuses the concatenation it inherited.
  EXPECT_EQ(*clone.Concatenate(Id("gi2"), Id("gi1")), on_source);

  ObjectId gi3 = *clone.CreateInterval("gi3", IntervalSet({TimeInterval::Open(50, 60)}));
  ObjectId on_clone = *clone.Concatenate(gi3, Id("gi1"));
  EXPECT_EQ(clone.derived_interval_count(), 2u);
  EXPECT_EQ(source_.derived_interval_count(), 1u);
  EXPECT_FALSE(source_.Exists(on_clone));

  // Rolling the clone back to nothing leaves the source's derived interval.
  clone.RollbackDerivedIntervals(0);
  EXPECT_EQ(clone.derived_interval_count(), 0u);
  EXPECT_FALSE(clone.Exists(on_source));
  EXPECT_TRUE(source_.Exists(on_source));
  EXPECT_EQ(*source_.BaseIdsOf(on_source),
            (std::vector<ObjectId>{Id("gi1"), Id("gi2")}));
  // ...and the clone can rebuild it under a fresh oid.
  ObjectId again = *clone.Concatenate(Id("gi1"), Id("gi2"));
  EXPECT_NE(again, on_source);
  EXPECT_TRUE(clone.Validate().ok());
  EXPECT_TRUE(source_.Validate().ok());
}

TEST_F(CloneIndependenceTest, DirtyTemporalIndexStaysOnItsSide) {
  EXPECT_EQ(source_.IntervalsContaining(20),
            (std::vector<ObjectId>{Id("gi2")}));
  // Dirty the source's temporal index, then clone it dirty.
  ASSERT_TRUE(source_
                  .SetAttribute(Id("gi1"), kAttrDuration,
                                Value::Temporal(IntervalSet(
                                    {TimeInterval::Open(0, 25)})))
                  .ok());
  VideoDatabase clone = source_.Clone();
  ASSERT_TRUE(clone
                  .SetAttribute(Id("gi2"), kAttrDuration,
                                Value::Temporal(IntervalSet(
                                    {TimeInterval::Open(30, 40)})))
                  .ok());
  size_t source_rebuilds = source_.temporal_index_rebuilds();

  EXPECT_EQ(clone.IntervalsContaining(20), (std::vector<ObjectId>{Id("gi1")}));
  EXPECT_EQ(source_.temporal_index_rebuilds(), source_rebuilds);
  EXPECT_EQ(source_.IntervalsContaining(20),
            (std::vector<ObjectId>{Id("gi1"), Id("gi2")}));
  EXPECT_EQ(source_.temporal_index_rebuilds(), source_rebuilds + 1);
  EXPECT_EQ(clone.IntervalsContaining(35), (std::vector<ObjectId>{Id("gi2")}));
  EXPECT_EQ(*source_.DurationOf(Id("gi2")),
            IntervalSet({TimeInterval::Open(15, 40)}));
}

}  // namespace
}  // namespace vqldb
