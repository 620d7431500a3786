// viptree_build: construct a VIP-Tree serving bundle offline and persist it
// as a binary snapshot — the "build once" half of the build-once/load-
// anywhere workflow (viptree_query is the other half).
//
// Venue source (pick one):
//   --preset NAME     Table 2 analogue venue: MC, MC-2, Men, Men-2, CL, CL-2
//                     (scaled by --scale, default 1.0)
//   --seed N          seeded random venue (same generator as the
//                     differential test sweeps)
//
// Examples:
//   viptree_build --preset MC --scale 0.1 --objects 32 --out mc.vipsnap
//   viptree_build --seed 7 --objects 16 --keyword-tags 4 --out rand.vipsnap
//   viptree_build --preset MC --out fleet/mc.vipsnap
//       --registry fleet/registry.txt --venue-id mc-hq
//
// With --registry, the snapshot is additionally registered in (or updated
// within) the given manifest under --venue-id (derived from the preset/seed
// when omitted), ready for multi-venue serving via engine::VenueRegistry /
// `viptree_query --registry ... --venue ...`.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "engine/venue_bundle.h"
#include "engine/venue_registry.h"
#include "flags.h"
#include "synth/objects.h"
#include "synth/presets.h"
#include "synth/random_venue.h"

namespace {

using namespace viptree;

struct Args {
  std::string verify;  // snapshot to integrity-check instead of building
  std::string out;
  std::string preset;
  double scale = 1.0;
  bool has_seed = false;
  uint64_t seed = 0;
  size_t objects = 32;
  size_t keyword_tags = 0;  // 0 = no keyword index
  int min_degree = 2;
  std::string registry;   // manifest path; empty = no registration
  std::string venue_id;   // id for the manifest entry
};

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --out PATH (--preset NAME [--scale S] | --seed N)\n"
      "          [--objects N] [--keyword-tags K] [--min-degree T]\n"
      "          [--registry MANIFEST [--venue-id ID]]\n"
      "       %s --verify SNAPSHOT\n"
      "\n"
      "Builds a VIP-Tree serving bundle and writes it as a snapshot.\n"
      "  --verify SNAPSHOT   re-check every section CRC of an existing\n"
      "                      snapshot and print a verdict (install-time\n"
      "                      integrity check: fleets that pass it can load\n"
      "                      with checksum verification off)\n"
      "  --preset NAME       Table 2 analogue venue (MC, MC-2, Men, Men-2,\n"
      "                      CL, CL-2), scaled by --scale (default 1.0)\n"
      "  --seed N            seeded random venue instead of a preset\n"
      "  --objects N         indexed objects to place (default 32)\n"
      "  --keyword-tags K    tag objects round-robin with K keywords\n"
      "                      (tag-0..tag-K-1) and build the keyword index\n"
      "  --min-degree T      Algorithm 1 minimum degree t (default 2)\n"
      "  --registry MANIFEST register the snapshot in this manifest for\n"
      "                      multi-venue serving (created if missing)\n"
      "  --venue-id ID       manifest id (default: derived from the\n"
      "                      preset/seed)\n",
      argv0, argv0);
}

bool Parse(int argc, char** argv, Args* args) {
  const std::vector<tools::Flag> flags = {
      tools::StringFlag("--verify", &args->verify),
      tools::StringFlag("--out", &args->out),
      tools::StringFlag("--preset", &args->preset),
      tools::NonNegativeFlag("--scale", &args->scale),
      tools::UnsignedFlag("--seed", &args->seed,
                          std::numeric_limits<uint64_t>::max(),
                          &args->has_seed),
      tools::UnsignedFlag("--objects", &args->objects),
      tools::UnsignedFlag("--keyword-tags", &args->keyword_tags),
      tools::UnsignedFlag("--min-degree", &args->min_degree),
      tools::StringFlag("--registry", &args->registry),
      tools::StringFlag("--venue-id", &args->venue_id),
  };
  if (!tools::ParseFlags(argc, argv, flags, Usage)) return false;
  if (!args->verify.empty()) return true;  // verify mode needs nothing else
  if (args->out.empty()) {
    std::fprintf(stderr, "%s: --out is required\n", argv[0]);
    Usage(argv[0]);
    return false;
  }
  if (args->preset.empty() == !args->has_seed) {
    std::fprintf(stderr, "%s: pass exactly one of --preset / --seed\n",
                 argv[0]);
    Usage(argv[0]);
    return false;
  }
  if (args->scale <= 0.0) {
    std::fprintf(stderr, "%s: --scale must be positive\n", argv[0]);
    return false;
  }
  if (args->min_degree < 2) {
    std::fprintf(stderr, "%s: --min-degree must be at least 2\n", argv[0]);
    return false;
  }
  if (!args->venue_id.empty() && args->registry.empty()) {
    std::fprintf(stderr, "%s: --venue-id needs --registry\n", argv[0]);
    return false;
  }
  if (!args->registry.empty() && args->venue_id.empty()) {
    args->venue_id = args->has_seed
                         ? "seed-" + std::to_string(args->seed)
                         : args->preset;
  }
  return true;
}

// Install-time checksum sweep: every section CRC re-checked, per-section
// verdict printed. Exit 0 only when all sections pass — the gate a fleet
// runs before serving the artifact through the trusted (CRC-off) loader.
int VerifyMain(const std::string& path) {
  io::SnapshotVerifyReport report;
  const io::Status status = io::VerifySnapshotFile(path, &report);
  if (report.format_version != 0) {
    std::printf("verifying %s (format v%u, %s)\n", path.c_str(),
                report.format_version, HumanBytes(report.file_bytes).c_str());
    for (const io::SnapshotSectionCheck& section : report.sections) {
      std::printf("  %-4s  %12llu bytes  crc 0x%08X  %s\n",
                  section.name.c_str(),
                  static_cast<unsigned long long>(section.bytes), section.crc,
                  section.ok ? "ok" : "MISMATCH");
    }
  }
  if (!status.ok()) {
    std::printf("verify: FAILED — %s\n", status.error.c_str());
    return 1;
  }
  std::printf("verify: OK — %zu/%zu sections passed\n",
              report.sections.size(), report.sections.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!Parse(argc, argv, &args)) return 1;
  if (!args.verify.empty()) return VerifyMain(args.verify);

  Timer venue_timer;
  Venue venue = args.has_seed
                    ? synth::RandomVenue(args.seed)
                    : synth::MakeDataset(synth::DatasetFromName(args.preset),
                                         args.scale);
  std::printf("venue: %zu partitions, %zu doors (generated in %.1f ms)\n",
              venue.NumPartitions(), venue.NumDoors(),
              venue_timer.ElapsedMillis());

  Rng rng(args.has_seed ? args.seed ^ 0x0B7EC75 : 0x0B7EC75);
  std::vector<IndoorPoint> objects =
      synth::PlaceObjects(venue, args.objects, rng);

  engine::EngineOptions options;
  options.tree.min_degree = args.min_degree;
  if (args.keyword_tags > 0) {
    options.object_keywords.resize(objects.size());
    for (size_t i = 0; i < objects.size(); ++i) {
      options.object_keywords[i] = {"tag-" +
                                    std::to_string(i % args.keyword_tags)};
    }
  }

  Timer build_timer;
  const engine::VenueBundle bundle = engine::VenueBundle::Build(
      std::move(venue), std::move(objects), std::move(options));
  const double build_ms = build_timer.ElapsedMillis();
  std::printf("index built in %.1f ms (%s in memory, %zu objects%s)\n",
              build_ms, HumanBytes(bundle.IndexMemoryBytes()).c_str(),
              bundle.objects().NumObjects(),
              bundle.has_keywords() ? ", keyword index" : "");

  Timer save_timer;
  const io::Status status = bundle.Save(args.out);
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.error.c_str());
    return 1;
  }
  std::FILE* f = std::fopen(args.out.c_str(), "rb");
  long snapshot_bytes = 0;
  if (f != nullptr) {
    std::fseek(f, 0, SEEK_END);
    snapshot_bytes = std::ftell(f);
    std::fclose(f);
  }
  std::printf("snapshot written to %s in %.1f ms (%s, format v%u)\n",
              args.out.c_str(), save_timer.ElapsedMillis(),
              HumanBytes(static_cast<uint64_t>(snapshot_bytes)).c_str(),
              io::kFormatVersion);

  if (!args.registry.empty()) {
    // The registry resolves relative snapshot paths against the manifest's
    // directory (so a registry directory relocates wholesale): store the
    // path manifest-relative when the snapshot lives under that directory,
    // absolute otherwise.
    const io::Status upsert = engine::VenueRegistry::UpsertManifestEntry(
        args.registry, args.venue_id,
        engine::VenueRegistry::ManifestRelativePath(args.registry, args.out));
    if (!upsert.ok()) {
      std::fprintf(stderr, "error: %s\n", upsert.error.c_str());
      return 1;
    }
    std::printf("registered as '%s' in %s\n", args.venue_id.c_str(),
                args.registry.c_str());
  }
  return 0;
}
