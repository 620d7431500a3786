// City-scale read-path benchmark, in two parts:
//
//   1. Kernel microbenches — the common/kernels.h row scans (min-plus leaf
//      scan, gather-based ascent step, row-min reduction, radius filter)
//      timed scalar vs dispatched, printing ns/element and the speedup.
//      On hardware without AVX2 both columns report the scalar path.
//   2. Query sweep MC 1.0 → City — distance / kNN / range latency p50/p99
//      through engine::QueryEngine at growing venue scale, with the City
//      tier (synth/presets.h) carrying an object set that reaches ~10^6 at
//      VIPTREE_SCALE=1.0.
//
// Env knobs (bench_common.h): VIPTREE_SCALE multiplies venue scale
// (default: MC/MC-2 at 1.0, City at 0.05 — set 1.0 for the full city),
// VIPTREE_QUERIES sets the per-type query count (default 500).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/kernels.h"
#include "common/stats.h"
#include "engine/query_engine.h"
#include "engine/venue_bundle.h"
#include "synth/presets.h"

namespace viptree {
namespace bench {
namespace {

namespace eng = ::viptree::engine;

// --------------------------------------------------------------------------
// Part 1: kernel microbenches.
// --------------------------------------------------------------------------

constexpr size_t kRow = 4096;  // elements per scanned row
constexpr int kKernelReps = 2000;

struct KernelInputs {
  std::vector<double> best;
  std::vector<double> row_f64;
  std::vector<float> row_f32;
  std::vector<int32_t> idx;
  std::vector<int32_t> out;

  KernelInputs() {
    best.resize(kRow);
    row_f64.resize(kRow);
    row_f32.resize(kRow);
    idx.resize(kRow);
    out.resize(kRow);
    Rng rng(0xC1717);
    for (size_t i = 0; i < kRow; ++i) {
      best[i] = rng.UniformReal(100.0, 1000.0);
      row_f64[i] = rng.UniformReal(0.0, 1000.0);
      row_f32[i] = static_cast<float>(rng.UniformReal(0.0, 1000.0));
      idx[i] = static_cast<int32_t>((i * 131) % kRow);  // scattered gather
    }
  }
};

using KernelFn = void (*)(KernelInputs&);

void RunMinPlusRow(KernelInputs& in) {
  kernels::MinPlusRow(in.best.data(), in.row_f64.data(), 3.5, kRow);
}
void RunGather(KernelInputs& in) {
  kernels::MinPlusGatherF32(in.best.data(), in.row_f32.data(), in.idx.data(),
                            3.5, kRow);
}
void RunRowMin(KernelInputs& in) {
  volatile double sink = kernels::RowMin(in.row_f64.data(), kRow);
  (void)sink;
}
void RunFilter(KernelInputs& in) {
  volatile size_t sink =
      kernels::FilterLeq(in.row_f64.data(), kRow, 500.0, in.out.data());
  (void)sink;
}

double TimeKernelNsPerElem(KernelFn fn, KernelInputs& in) {
  fn(in);  // warm
  Timer timer;
  for (int r = 0; r < kKernelReps; ++r) fn(in);
  return timer.ElapsedMicros() * 1000.0 /
         (static_cast<double>(kKernelReps) * static_cast<double>(kRow));
}

void PrintKernelMicrobenches() {
  std::printf("=== kernel microbenches (%zu-element rows) ===\n", kRow);
  std::printf("dispatch path: %s\n", kernels::ActivePathName());
  std::printf("%-22s %12s %12s %9s\n", "kernel", "scalar ns/el",
              "simd ns/el", "speedup");
  const struct {
    const char* name;
    KernelFn fn;
  } cases[] = {
      {"MinPlusRow (leaf scan)", RunMinPlusRow},
      {"MinPlusGatherF32", RunGather},
      {"RowMin", RunRowMin},
      {"FilterLeq (range)", RunFilter},
  };
  for (const auto& c : cases) {
    KernelInputs scalar_in;
    kernels::ForceScalarForTest(true);
    const double scalar_ns = TimeKernelNsPerElem(c.fn, scalar_in);
    KernelInputs simd_in;
    kernels::ForceScalarForTest(false);
    const double simd_ns = TimeKernelNsPerElem(c.fn, simd_in);
    std::printf("%-22s %12.3f %12.3f %8.2fx\n", c.name, scalar_ns, simd_ns,
                simd_ns > 0.0 ? scalar_ns / simd_ns : 0.0);
  }
  std::printf("\n");
}

// --------------------------------------------------------------------------
// Part 2: MC 1.0 -> City query sweep.
// --------------------------------------------------------------------------

struct SweepRow {
  std::string name;
  size_t partitions = 0;
  size_t doors = 0;
  size_t objects = 0;
  double build_ms = 0.0;
  Summary distance, knn, range;
};

// Local stand-in for benchmark::DoNotOptimize (this bench does not link
// google-benchmark; it prints its own tables).
template <typename T>
inline void KeepAlive(const T& value) {
  asm volatile("" : : "m"(value) : "memory");
}

Summary TimeQueries(const eng::QueryEngine& engine,
                    const std::vector<eng::Query>& queries) {
  std::vector<double> micros;
  micros.reserve(queries.size());
  for (const eng::Query& q : queries) {
    Timer timer;
    const eng::Result r = engine.Run(q);
    micros.push_back(timer.ElapsedMicros());
    KeepAlive(r);
  }
  return Summarize(micros);
}

SweepRow SweepDataset(synth::Dataset dataset) {
  SweepRow row;
  row.name = synth::InfoFor(dataset).name;
  Venue venue = synth::MakeDataset(dataset, ScaleFor(dataset));
  row.partitions = venue.NumPartitions();
  row.doors = venue.NumDoors();
  // Objects scale with the venue: ~3 per partition reaches ~10^6 at the
  // full City tier (372k rooms) without drowning the smaller venues.
  const size_t num_objects = 3 * venue.NumPartitions();
  row.objects = num_objects;
  Rng obj_rng(0xAB5EED ^ static_cast<uint64_t>(dataset));
  std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue, num_objects, obj_rng);

  Rng query_rng(0xF00D ^ static_cast<uint64_t>(dataset));
  const size_t n = NumQueries();
  std::vector<eng::Query> distance_q, knn_q, range_q;
  for (size_t i = 0; i < n; ++i) {
    const IndoorPoint a = synth::RandomIndoorPoint(venue, query_rng);
    const IndoorPoint b = synth::RandomIndoorPoint(venue, query_rng);
    distance_q.push_back(eng::Query::Distance(a, b));
    knn_q.push_back(eng::Query::Knn(a, 5));
    range_q.push_back(eng::Query::Range(a, 150.0));
  }

  Timer build_timer;
  eng::VenueBundle bundle =
      eng::VenueBundle::Build(std::move(venue), std::move(objects));
  row.build_ms = build_timer.ElapsedMillis();
  const eng::QueryEngine engine(std::move(bundle));
  row.distance = TimeQueries(engine, distance_q);
  row.knn = TimeQueries(engine, knn_q);
  row.range = TimeQueries(engine, range_q);
  return row;
}

void PrintSweep(const std::vector<SweepRow>& rows) {
  std::printf("=== MC 1.0 -> City query sweep (%zu queries/type, %s path) "
              "===\n",
              NumQueries(), kernels::ActivePathName());
  std::printf("%-6s %10s %8s %9s %10s | %9s %9s | %9s %9s | %9s %9s\n",
              "venue", "rooms", "doors", "objects", "build ms", "dist p50",
              "dist p99", "knn p50", "knn p99", "range p50", "range p99");
  for (const SweepRow& r : rows) {
    std::printf(
        "%-6s %10zu %8zu %9zu %10.0f | %9.1f %9.1f | %9.1f %9.1f | %9.1f "
        "%9.1f\n",
        r.name.c_str(), r.partitions, r.doors, r.objects, r.build_ms,
        r.distance.p50, r.distance.p99, r.knn.p50, r.knn.p99, r.range.p50,
        r.range.p99);
  }
  if (rows.size() >= 2) {
    const SweepRow& mc = rows.front();
    const SweepRow& city = rows.back();
    if (mc.distance.p99 > 0.0) {
      std::printf(
          "\ncity/%s distance p99 ratio: %.2fx (acceptance: within 2x "
          "across the sweep)\n",
          mc.name.c_str(), city.distance.p99 / mc.distance.p99);
    }
  }
  std::printf("\n");
}

int Main() {
  if (std::getenv("VIPTREE_FORCE_SCALAR") != nullptr) {
    std::printf("(VIPTREE_FORCE_SCALAR set: dispatch pinned to scalar)\n");
  }
  PrintKernelMicrobenches();
  std::vector<SweepRow> rows;
  for (synth::Dataset d : {synth::Dataset::kMC, synth::Dataset::kMC2,
                           synth::Dataset::kCity}) {
    rows.push_back(SweepDataset(d));
  }
  PrintSweep(rows);
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main() { return viptree::bench::Main(); }
