#include "serve/artifact_watcher.h"

#include <sys/stat.h>

#include <utility>

namespace deepod::serve {
namespace {

// Consecutive polls a changed signature must hold before it is loaded.
constexpr int kStablePolls = 2;

}  // namespace

ArtifactWatcher::ArtifactWatcher(std::vector<std::string> paths,
                                 std::chrono::milliseconds poll_interval,
                                 LoadFn load, obs::Counter* polls)
    : poll_interval_(poll_interval > std::chrono::milliseconds(0)
                         ? poll_interval
                         : std::chrono::milliseconds(200)),
      load_(std::move(load)),
      polls_(polls) {
  paths_.resize(paths.size());
  for (size_t i = 0; i < paths.size(); ++i) {
    paths_[i].path = std::move(paths[i]);
  }
}

ArtifactWatcher::~ArtifactWatcher() { Stop(); }

void ArtifactWatcher::Start() {
  if (!thread_.joinable()) thread_ = std::thread([this] { PollLoop(); });
}

void ArtifactWatcher::Stop() {
  StopPolling();
  if (thread_.joinable()) thread_.join();
}

void ArtifactWatcher::StopPolling() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    stopping_ = true;
  }
  stop_cv_.notify_all();
}

ArtifactWatcher::FileSig ArtifactWatcher::Stat(const std::string& path) {
  FileSig sig;
  struct stat st{};
  if (::stat(path.c_str(), &st) != 0) return sig;
  sig.exists = true;
  sig.size = static_cast<uint64_t>(st.st_size);
  sig.inode = static_cast<uint64_t>(st.st_ino);
  sig.mtime_ns = static_cast<int64_t>(st.st_mtim.tv_sec) * 1'000'000'000 +
                 static_cast<int64_t>(st.st_mtim.tv_nsec);
  return sig;
}

void ArtifactWatcher::MarkAttempted(size_t index) {
  std::lock_guard<std::mutex> lock(load_mu_);
  const FileSig sig = Stat(paths_[index].path);
  if (sig.exists) paths_[index].attempted = sig;
}

ArtifactWatcher::Result ArtifactWatcher::LoadNow(size_t index) {
  std::lock_guard<std::mutex> lock(load_mu_);
  const FileSig sig = Stat(paths_[index].path);
  if (!sig.exists) return Result::kMissing;
  if (paths_[index].attempted == sig) return Result::kUnchanged;
  return Attempt(index, sig) ? Result::kLoaded : Result::kFailed;
}

bool ArtifactWatcher::Attempt(size_t index, const FileSig& sig) {
  // Remembered up front: a failing file is not re-tried until it changes.
  paths_[index].attempted = sig;
  return load_(index);
}

void ArtifactWatcher::PollLoop() {
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(stop_mu_);
      if (stop_cv_.wait_for(lock, poll_interval_,
                            [this] { return stopping_; })) {
        return;
      }
    }
    if (polls_ != nullptr) polls_->Add();
    for (size_t i = 0; i < paths_.size(); ++i) {
      std::lock_guard<std::mutex> lock(load_mu_);
      Path& p = paths_[i];
      const FileSig sig = Stat(p.path);
      if (!sig.exists || p.attempted == sig) {
        p.stable_polls = 0;
        continue;
      }
      if (p.stable_polls > 0 && sig == p.candidate) {
        ++p.stable_polls;
      } else {
        p.candidate = sig;
        p.stable_polls = 1;
      }
      if (p.stable_polls < kStablePolls) continue;
      p.stable_polls = 0;
      Attempt(i, sig);
    }
  }
}

}  // namespace deepod::serve
