// Snapshot session cost across archive sizes. A read after a write leases
// a session of a new snapshot, and building that session copies the live
// database: the one O(|db|) step left on the server's read path. This
// bench times that lease (Apply + Current + Acquire), the copy on its own
// (VideoDatabase::Clone) and, for comparison, the BinaryFormat decode the
// sessions used to be built from, at about 1e3, 1e4 and 1e5 facts shaped
// like the end-to-end benchmark's archives (scenes with entities, speaks,
// holds and next facts). Report-only: no gate. Writes the series as
// BENCH_snapshot.json next to the binary for trajectory tracking.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "src/common/logging.h"
#include "src/model/database.h"
#include "src/server/snapshot.h"
#include "src/storage/binary_format.h"

namespace vqldb {
namespace {

const size_t kFactTargets[] = {1000, 10000, 100000};

// About three facts per scene: one speaks, one holds, one next.
void BuildArchive(VideoDatabase* db, size_t facts) {
  const size_t scenes = std::max<size_t>(facts / 3, 2);
  std::vector<ObjectId> actors;
  for (size_t a = 0; a < std::max<size_t>(scenes / 8, 2); ++a) {
    actors.push_back(*db->CreateEntity("a" + std::to_string(a)));
  }
  std::vector<ObjectId> shots;
  for (size_t s = 0; s < scenes; ++s) {
    double t = static_cast<double>(s) * 10;
    ObjectId gi = *db->CreateInterval(
        "s" + std::to_string(s), IntervalSet({TimeInterval::Closed(t, t + 8)}));
    ObjectId a1 = actors[s % actors.size()];
    ObjectId a2 = actors[(s * 7 + 1) % actors.size()];
    VQLDB_CHECK_OK(db->SetAttribute(
        gi, kAttrEntities, Value::Set({Value::Oid(a1), Value::Oid(a2)})));
    VQLDB_CHECK_OK(db->AssertFact("speaks", {Value::Oid(a1), Value::Oid(gi)}));
    VQLDB_CHECK_OK(db->AssertFact(
        "holds", {Value::Oid(a1), Value::Oid(a2), Value::Oid(gi)}));
    shots.push_back(gi);
  }
  for (size_t s = 0; s + 1 < scenes; ++s) {
    VQLDB_CHECK_OK(db->AssertFact(
        "next", {Value::Oid(shots[s]), Value::Oid(shots[s + 1])}));
  }
}

template <typename Fn>
double MedianMs(int reps, Fn fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    auto start = std::chrono::steady_clock::now();
    fn(i);
    ms.push_back(std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count());
  }
  std::sort(ms.begin(), ms.end());
  return ms[ms.size() / 2];
}

struct Sample {
  size_t facts = 0;
  size_t image_bytes = 0;
  double lease_after_write_ms = 0;
  double clone_ms = 0;
  double deserialize_ms = 0;
};

Sample Measure(size_t target) {
  Sample s;
  VideoDatabase db;
  BuildArchive(&db, target);
  s.facts = db.fact_count();
  const std::string image = *BinaryFormat::Serialize(db);
  s.image_bytes = image.size();
  const int reps = target >= 100000 ? 3 : target >= 10000 ? 7 : 21;

  s.clone_ms = MedianMs(reps, [&](int) {
    VideoDatabase copy = db.Clone();
    benchmark::DoNotOptimize(copy);
  });
  s.deserialize_ms = MedianMs(reps, [&](int) {
    auto restored = BinaryFormat::Deserialize(image);
    VQLDB_CHECK_OK(restored.status());
  });
  server::SnapshotManager manager(&db, EvalOptions{}, 1);
  s.lease_after_write_ms = MedianMs(reps, [&](int i) {
    std::string w = "w" + std::to_string(i);
    VQLDB_CHECK_OK(
        manager.Apply("object " + w + " { }. speaks(" + w + ", s0)."));
    auto lease = manager.AcquireSession();
    VQLDB_CHECK_OK(lease.status());
  });
  return s;
}

void PrintSeries() {
  std::printf("== snapshot session cost vs archive size (median ms) ==\n");
  std::printf("%9s %12s %18s %10s %14s\n", "facts", "image_bytes",
              "lease_after_write", "clone", "deserialize");
  std::vector<Sample> series;
  for (size_t target : kFactTargets) {
    series.push_back(Measure(target));
    const Sample& s = series.back();
    std::printf("%9zu %12zu %18.3f %10.3f %14.3f\n", s.facts, s.image_bytes,
                s.lease_after_write_ms, s.clone_ms, s.deserialize_ms);
  }
  std::printf("\n");

  FILE* f = std::fopen("BENCH_snapshot.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"bench\": \"snapshot\",\n  \"series\": [\n");
  for (size_t i = 0; i < series.size(); ++i) {
    const Sample& s = series[i];
    std::fprintf(f,
                 "    {\"facts\": %zu, \"image_bytes\": %zu, "
                 "\"lease_after_write_ms\": %.3f, \"clone_ms\": %.3f, "
                 "\"deserialize_ms\": %.3f}%s\n",
                 s.facts, s.image_bytes, s.lease_after_write_ms, s.clone_ms,
                 s.deserialize_ms, i + 1 < series.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_snapshot.json\n\n");
}

void BM_Clone(benchmark::State& state) {
  VideoDatabase db;
  BuildArchive(&db, static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    VideoDatabase copy = db.Clone();
    benchmark::DoNotOptimize(copy);
  }
  state.SetLabel("facts=" + std::to_string(db.fact_count()));
}
BENCHMARK(BM_Clone)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

void BM_Deserialize(benchmark::State& state) {
  VideoDatabase db;
  BuildArchive(&db, static_cast<size_t>(state.range(0)));
  const std::string image = *BinaryFormat::Serialize(db);
  for (auto _ : state) {
    auto restored = BinaryFormat::Deserialize(image);
    benchmark::DoNotOptimize(restored);
  }
  state.SetLabel("facts=" + std::to_string(db.fact_count()));
}
BENCHMARK(BM_Deserialize)->Arg(1000)->Arg(10000)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace vqldb

int main(int argc, char** argv) {
  vqldb::PrintSeries();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
