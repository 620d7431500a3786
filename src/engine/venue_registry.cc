#include "engine/venue_registry.h"

#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <utility>

#if !defined(_WIN32)
#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>
#define VIPTREE_HAS_FLOCK 1
#else
#define VIPTREE_HAS_FLOCK 0
#endif

namespace viptree {
namespace engine {

namespace {

// The directory prefix of `path` including the trailing separator, empty
// for a bare filename (so Resolve degrades to the relative path itself).
std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash + 1);
}

bool IsAbsolute(const std::string& path) {
  return !path.empty() && path.front() == '/';
}

std::string Resolve(const std::string& manifest_dir, const std::string& path) {
  return IsAbsolute(path) ? path : manifest_dir + path;
}

// Lexically drops "." path segments ("./x", "a/./b") so spelling variants
// of the same path compare equal by prefix. ".." is left alone — the
// realpath fallback in ManifestRelativePath handles those.
std::string StripDotSegments(std::string p) {
  while (p.rfind("./", 0) == 0) p.erase(0, 2);
  size_t at;
  while ((at = p.find("/./")) != std::string::npos) p.erase(at, 2);
  return p;
}

std::string Trim(const std::string& s) {
  const size_t begin = s.find_first_not_of(" \t\r\n");
  if (begin == std::string::npos) return {};
  const size_t end = s.find_last_not_of(" \t\r\n");
  return s.substr(begin, end - begin + 1);
}

// Reads `path` line-by-line. A *missing* file is reported through
// `*missing` (the caller decides whether that is an error — Upsert starts
// a fresh manifest, Open reports it); any other failure is a Status error.
io::Status ReadLines(const std::string& path, std::vector<std::string>* out,
                     bool* missing = nullptr) {
  if (missing != nullptr) *missing = false;
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    if (missing != nullptr && errno == ENOENT) {
      *missing = true;
      return io::Status::Ok();
    }
    return io::Status::Error("cannot open registry manifest '" + path + "'");
  }
  std::string current;
  int c;
  while ((c = std::fgetc(f)) != EOF) {
    if (c == '\n') {
      out->push_back(current);
      current.clear();
    } else {
      current.push_back(static_cast<char>(c));
    }
  }
  if (!current.empty()) out->push_back(current);
  std::fclose(f);
  return io::Status::Ok();
}

// Serializes manifest read-modify-writes across processes via flock(2) on
// a sidecar lock file, so two concurrent `viptree_build --registry` runs
// cannot read the same old contents and drop each other's registration.
// No-op where flock is unavailable.
class ManifestLock {
 public:
  explicit ManifestLock(const std::string& manifest_path) {
#if VIPTREE_HAS_FLOCK
    fd_ = ::open((manifest_path + ".lock").c_str(), O_CREAT | O_RDWR, 0644);
    if (fd_ >= 0) ::flock(fd_, LOCK_EX);
#else
    (void)manifest_path;
#endif
  }
  ~ManifestLock() {
#if VIPTREE_HAS_FLOCK
    if (fd_ >= 0) ::close(fd_);  // also releases the flock
#endif
  }
  ManifestLock(const ManifestLock&) = delete;
  ManifestLock& operator=(const ManifestLock&) = delete;

 private:
#if VIPTREE_HAS_FLOCK
  int fd_ = -1;
#endif
};

}  // namespace

std::optional<VenueRegistry> VenueRegistry::Open(
    const std::string& manifest_path, std::string* error) {
  auto fail = [error](std::string message) -> std::optional<VenueRegistry> {
    if (error != nullptr) *error = std::move(message);
    return std::nullopt;
  };

  std::vector<std::string> lines;
  const io::Status read = ReadLines(manifest_path, &lines);
  if (!read.ok()) return fail(read.error);

  VenueRegistry registry;
  const std::string dir = DirOf(manifest_path);
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string line = Trim(lines[i]);
    if (line.empty() || line.front() == '#') continue;
    const size_t split = line.find_first_of(" \t");
    if (split == std::string::npos) {
      return fail("registry manifest line " + std::to_string(i + 1) +
                  " has no snapshot path: '" + line + "'");
    }
    const std::string id = line.substr(0, split);
    const std::string path = Trim(line.substr(split + 1));
    if (path.empty()) {
      return fail("registry manifest line " + std::to_string(i + 1) +
                  " has no snapshot path: '" + line + "'");
    }
    if (registry.entries_.count(id) != 0) {
      return fail("registry manifest lists venue '" + id + "' twice");
    }
    registry.ids_.push_back(id);
    Entry entry;
    entry.snapshot_path = Resolve(dir, path);
    registry.entries_[id] = std::move(entry);
  }
  return registry;
}

io::Status VenueRegistry::UpsertManifestEntry(
    const std::string& manifest_path, const std::string& venue_id,
    const std::string& snapshot_path) {
  if (venue_id.empty() ||
      venue_id.find_first_of(" \t\r\n#") != std::string::npos) {
    return io::Status::Error("invalid venue id '" + venue_id +
                             "' (must be non-empty, without whitespace "
                             "or '#')");
  }
  // Exclusive across processes for the whole read-modify-write.
  ManifestLock lock(manifest_path);

  // A missing manifest starts empty; any other read failure must abort —
  // rewriting from an empty `lines` would silently destroy every existing
  // registration.
  std::vector<std::string> lines;
  bool missing = false;
  const io::Status read = ReadLines(manifest_path, &lines, &missing);
  if (!read.ok()) return read;

  const std::string entry = venue_id + "\t" + snapshot_path;
  bool replaced = false;
  for (std::string& line : lines) {
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed.front() == '#') continue;
    if (trimmed.substr(0, trimmed.find_first_of(" \t")) == venue_id) {
      line = entry;
      replaced = true;
      break;
    }
  }
  if (!replaced) lines.push_back(entry);

  std::string contents;
  for (const std::string& line : lines) {
    contents += line;
    contents += '\n';
  }
  return io::WriteFileBytes(
      manifest_path,
      {reinterpret_cast<const uint8_t*>(contents.data()), contents.size()});
}

std::string VenueRegistry::ManifestRelativePath(
    const std::string& manifest_path, const std::string& snapshot_path) {
  const std::string dir = DirOf(StripDotSegments(manifest_path));
  const std::string file = StripDotSegments(snapshot_path);
  // An empty dir means the manifest lives in the current directory, so a
  // relative snapshot path is already manifest-relative.
  if (file.rfind(dir, 0) == 0) return file.substr(dir.size());
  if (IsAbsolute(file)) return file;
  char resolved[PATH_MAX];
  if (::realpath(file.c_str(), resolved) != nullptr) return resolved;
  return file;
}

std::vector<std::string> VenueRegistry::VenueIds() const { return ids_; }

bool VenueRegistry::Contains(const std::string& venue_id) const {
  return entries_.count(venue_id) != 0;
}

size_t VenueRegistry::NumVenues() const { return entries_.size(); }

std::shared_ptr<const VenueBundle> VenueRegistry::Acquire(
    const std::string& venue_id, std::string* error) {
  auto fail = [error](std::string message) {
    if (error != nullptr) *error = std::move(message);
    return std::shared_ptr<const VenueBundle>();
  };

  // Fast path: registry-wide lock for the map lookup only. The map is
  // never erased from, so `it` stays valid after unlocking.
  std::shared_ptr<std::mutex> load_mu;
  std::map<std::string, Entry>::iterator it;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    it = entries_.find(venue_id);
    if (it == entries_.end()) {
      return fail("venue '" + venue_id + "' is not in the registry");
    }
    if (it->second.bundle != nullptr) return it->second.bundle;
    load_mu = it->second.load_mu;
  }

  // Slow path: load under the *entry's* lock, so a slow load of this
  // venue never blocks Acquire of any other venue, while a second Acquire
  // of the same venue waits here instead of mapping the snapshot twice.
  std::lock_guard<std::mutex> load_lock(*load_mu);
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (it->second.bundle != nullptr) return it->second.bundle;  // loaded
  }
  std::string load_error;
  std::optional<VenueBundle> bundle =
      VenueBundle::TryLoad(it->second.snapshot_path, &load_error);
  if (!bundle.has_value()) {
    return fail("venue '" + venue_id + "': " + load_error);
  }
  std::lock_guard<std::mutex> lock(*mu_);
  it->second.bundle = std::make_shared<const VenueBundle>(std::move(*bundle));
  return it->second.bundle;
}

size_t VenueRegistry::NumResident() const {
  std::lock_guard<std::mutex> lock(*mu_);
  size_t resident = 0;
  for (const auto& [id, entry] : entries_) {
    if (entry.bundle != nullptr) ++resident;
  }
  return resident;
}

}  // namespace engine
}  // namespace viptree
