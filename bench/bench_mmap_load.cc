// Zero-copy arena load vs copying load: builds the MC analogue venue once,
// saves it as a snapshot, and times standing up a serving bundle from it
// three ways. The mmap path maps the file and aliases every index buffer
// into it, so the work left is framing + small-structure decoding — the
// ROADMAP target is the trusted mmap load >= 5x faster than the copying
// load at MC scale 1.0.
//
// Three load configurations are timed:
//   * copying load — the whole file read into a private heap buffer
//     (use_mmap = false) plus the per-cell validation sweep
//     (deep_validate = true), so every byte is copied and touched;
//   * mmap load, CRC verified — the safe default: one sequential CRC
//     pass over the file (~memory bandwidth), then zero-copy decode;
//   * mmap load, CRC off — the trusted-artifact fleet mode (integrity
//     verified once at build/install time, e.g. content-addressed storage):
//     pure O(touched-pages) startup, the headline zero-copy number.
// The CRC pass reads every byte, so it bounds *any* loader at checksum
// bandwidth; the trusted mode is what the >=5x target measures.
//
// Memory is measured as the *proportional* set size (PSS) growth per
// bundle while `kHeld` bundles of the same venue are held alive: the
// copying path pays a private heap copy of the whole index per bundle,
// while mappings share the page-cache folios of the snapshot file, so each
// additional bundle costs a fraction. (Plain RSS would overstate the mmap
// side: kernels with large-folio page cache round every mapped fault up
// to a 2 MiB folio, and RSS counts shared folios once per mapping.)
//
//   VIPTREE_SCALE= multiplies the venue scale (default 1.0).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/stats.h"
#include "engine/venue_bundle.h"
#include "synth/presets.h"

namespace viptree {
namespace bench {
namespace {

namespace eng = ::viptree::engine;

std::string TempPath(const char* name) {
  const char* dir = std::getenv("TMPDIR");
  if (dir == nullptr || dir[0] == '\0') dir = "/tmp";
  return std::string(dir) + "/viptree_bench_mmap_" + name + ".vipsnap";
}

long FileBytes(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return 0;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

// Current proportional set size in KiB from /proc/self/smaps_rollup
// (0 where unsupported). PSS charges shared page-cache folios 1/n-th to
// each of the n mappings sharing them — the fair per-bundle figure.
long PssKib() {
  std::FILE* f = std::fopen("/proc/self/smaps_rollup", "rb");
  if (f == nullptr) return 0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "Pss:", 4) == 0) {
      kib = std::atol(line + 4);
      break;
    }
  }
  std::fclose(f);
  return kib;
}

struct LoadStats {
  double best_ms = 0.0;
  long pss_per_bundle_kib = 0;
};

constexpr int kHeld = 4;

// Best-of-`reps` wall time; PSS growth is averaged over `kHeld` bundles
// held alive simultaneously (holding them defeats allocator reuse, so the
// copying path shows its real per-venue heap cost, and the mapped path
// shows how the shared file folios amortize).
LoadStats MeasureLoad(const std::string& path,
                      const eng::VenueBundle::LoadOptions& options,
                      int reps) {
  LoadStats stats;
  std::string error;
  for (int rep = 0; rep < reps; ++rep) {
    Timer timer;
    const auto loaded = eng::VenueBundle::TryLoad(path, &error, options);
    const double ms = timer.ElapsedMillis();
    if (!loaded.has_value()) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      std::exit(1);
    }
    stats.best_ms = rep == 0 ? ms : std::min(stats.best_ms, ms);
  }
  const long before = PssKib();
  std::vector<eng::VenueBundle> held;
  for (int i = 0; i < kHeld; ++i) {
    auto loaded = eng::VenueBundle::TryLoad(path, &error, options);
    if (loaded.has_value()) held.push_back(std::move(*loaded));
  }
  stats.pss_per_bundle_kib = (PssKib() - before) / kHeld;
  return stats;
}

int Main() {
  const double scale =
      EnvScaleOverride() > 0.0 ? EnvScaleOverride() : 1.0;
  constexpr int kReps = 5;

  Venue venue = synth::MakeDataset(synth::Dataset::kMC, scale);
  const size_t num_partitions = venue.NumPartitions();
  const size_t num_doors = venue.NumDoors();
  Rng rng(0x5EED);
  std::vector<IndoorPoint> objects = synth::PlaceObjects(venue, 64, rng);

  Timer build_timer;
  const eng::VenueBundle bundle =
      eng::VenueBundle::Build(std::move(venue), std::move(objects));
  const double build_ms = build_timer.ElapsedMillis();

  const std::string path = TempPath("snapshot");
  if (io::Status s = bundle.Save(path); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.error.c_str());
    return 1;
  }

  std::printf(
      "MC analogue venue at scale %.2f: %zu partitions, %zu doors, "
      "build %.1f ms\n",
      scale, num_partitions, num_doors, build_ms);
  std::printf("snapshot: %s\n\n",
              HumanBytes(static_cast<uint64_t>(FileBytes(path))).c_str());

  eng::VenueBundle::LoadOptions copying;  // heap read + full validation
  copying.use_mmap = false;
  copying.deep_validate = true;
  eng::VenueBundle::LoadOptions mapped;  // defaults: mmap + CRC
  eng::VenueBundle::LoadOptions mapped_nocrc = mapped;
  mapped_nocrc.verify_checksums = false;

  // Measure the mapped paths before the copying path so the copying
  // loads' heap growth cannot mask the mapped paths' RSS numbers.
  const LoadStats nocrc_stats = MeasureLoad(path, mapped_nocrc, kReps);
  const LoadStats mapped_stats = MeasureLoad(path, mapped, kReps);
  const LoadStats copying_stats = MeasureLoad(path, copying, kReps);

  std::printf("%-38s %10s %16s\n", "load path", "best ms", "PSS/bundle");
  std::printf("%-38s %10.2f %12ld KiB\n",
              "copying load (deep validate)", copying_stats.best_ms,
              copying_stats.pss_per_bundle_kib);
  std::printf("%-38s %10.2f %12ld KiB\n", "mmap load (CRC verified)",
              mapped_stats.best_ms, mapped_stats.pss_per_bundle_kib);
  std::printf("%-38s %10.2f %12ld KiB\n",
              "mmap load (CRC off, trusted)", nocrc_stats.best_ms,
              nocrc_stats.pss_per_bundle_kib);

  const double verified_speedup =
      mapped_stats.best_ms > 0.0 ? copying_stats.best_ms / mapped_stats.best_ms
                                 : 0.0;
  const double trusted_speedup =
      nocrc_stats.best_ms > 0.0 ? copying_stats.best_ms / nocrc_stats.best_ms
                                : 0.0;
  // The >=5x acceptance target is defined at MC scale 1.0 and above; at
  // toy scales the fixed per-load costs (open, TOC, venue decode) dominate
  // both paths and the ratio is not meaningful.
  const bool at_target_scale = scale >= 1.0;
  std::printf(
      "\nmmap load vs copying load: %.1fx with CRC verification, "
      "%.1fx in trusted-artifact mode\n"
      "(the CRC pass reads every byte at ~memory bandwidth and bounds any "
      "loader; the trusted mode\nis the zero-copy fleet configuration the "
      ">=5x target measures) %s\n",
      verified_speedup, trusted_speedup,
      !at_target_scale
          ? "-- toy scale, target not enforced"
          : (trusted_speedup >= 5.0 ? "-- >=5x target met"
                                    : "-- below 5x target"));

  std::remove(path.c_str());
  return (!at_target_scale || trusted_speedup >= 5.0) ? 0 : 2;
}

}  // namespace
}  // namespace bench
}  // namespace viptree

int main() { return viptree::bench::Main(); }
