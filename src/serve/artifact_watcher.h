#ifndef DEEPOD_SERVE_ARTIFACT_WATCHER_H_
#define DEEPOD_SERVE_ARTIFACT_WATCHER_H_

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"

namespace deepod::serve {

// The one artifact-path watcher of the serving stack: a FleetRouter runs one
// over every shard's path for both cold-shard activation and hot swap (a
// single-city server is a fleet of one, so its hot swap runs here too).
//
// One thread polls each path's stat signature (size/inode/mtime; portable,
// no inotify dependency) every `poll_interval`. A changed signature must
// hold for two consecutive polls before `load(index)` runs — the guard
// against catching a writer mid-copy; a rename(2) into place never waits
// longer than that one extra poll. Every signature handed to `load` is
// remembered as attempted, success or failure, so a corrupt file is not
// re-tried every poll: only different bytes earn a fresh attempt. A missing
// file is not an error: the path keeps being watched.
//
// `load` runs on the watcher thread or a LoadNow caller, never two at once,
// and never on a request thread.
class ArtifactWatcher {
 public:
  // Attempts the file now at paths[index]; true when it was adopted.
  using LoadFn = std::function<bool(size_t index)>;

  // Outcome of a LoadNow call.
  enum class Result { kMissing, kUnchanged, kLoaded, kFailed };

  // Does not start polling (see Start). `polls`, when given, counts poll
  // rounds and must outlive the watcher.
  ArtifactWatcher(std::vector<std::string> paths,
                  std::chrono::milliseconds poll_interval, LoadFn load,
                  obs::Counter* polls = nullptr);
  ~ArtifactWatcher();

  ArtifactWatcher(const ArtifactWatcher&) = delete;
  ArtifactWatcher& operator=(const ArtifactWatcher&) = delete;

  // Starts the poll thread (once).
  void Start();
  // Stops the poll thread (idempotent; the destructor calls it).
  void Stop();

  // Records the file now at paths[index] as attempted: the bytes the
  // caller already serves, which must not trigger a load.
  void MarkAttempted(size_t index);

  // The synchronous bypass of the poll cadence and the stability guard
  // (construction-time loads, tests, SIGHUP-style nudges): stats
  // paths[index] now and hands it to `load` unless it is missing or
  // unchanged since the last attempt.
  Result LoadNow(size_t index);

 private:
  // What stat can see of a file's contents; `exists` folds ENOENT in.
  struct FileSig {
    bool exists = false;
    uint64_t size = 0;
    uint64_t inode = 0;
    int64_t mtime_ns = 0;
    bool operator==(const FileSig&) const = default;
  };

  struct Path {
    std::string path;
    std::optional<FileSig> attempted;  // guarded by load_mu_
    FileSig candidate;                 // poll thread only
    int stable_polls = 0;              // poll thread only
  };

  static FileSig Stat(const std::string& path);
  void PollLoop();
  // Remembers `sig` as attempted and runs `load`. Holds load_mu_.
  bool Attempt(size_t index, const FileSig& sig);

  std::vector<Path> paths_;
  const std::chrono::milliseconds poll_interval_;
  LoadFn load_;
  obs::Counter* polls_;

  std::mutex load_mu_;  // serialises `load` and guards Path::attempted

  std::mutex stop_mu_;
  std::condition_variable stop_cv_;
  bool stopping_ = false;
  std::thread thread_;
};

}  // namespace deepod::serve

#endif  // DEEPOD_SERVE_ARTIFACT_WATCHER_H_
