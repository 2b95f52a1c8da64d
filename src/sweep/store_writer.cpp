// StoreWriter: the group-commit append path of the result store (the
// contract is in result_store.h). Messages are composed only on failure:
// append() runs once per record of every sweep.
#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <exception>
#include <filesystem>
#include <iterator>
#include <utility>

#include "base/error.h"
#include "base/strutil.h"
#include "sweep/result_store.h"

namespace scfi::sweep {

StoreWriter::StoreWriter(std::string path, Credit credit)
    : path_(std::move(path)), credit_(std::move(credit)) {
  fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
  if (fd_ < 0 && errno == ENOENT) {
    // This open may create the file: sync the new directory entry too, or
    // a power cut could lose the whole store with every record "fsynced".
    fd_ = ::open(path_.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
    if (fd_ >= 0) sync_parent_dir(path_);
  }
  if (fd_ < 0) [[unlikely]] {
    throw ScfiError("result store: cannot append to " + path_ + ": " + std::strerror(errno));
  }
}

StoreWriter::~StoreWriter() { ::close(fd_); }

void StoreWriter::append(SweepResult result) {
  std::string line = ResultStore::to_line(result);
  line += '\n';
  std::unique_lock<std::mutex> lock(mutex_);
  if (failed_) [[unlikely]] {
    throw ScfiError("result store: append to " + path_ +
                    " refused: an earlier write or fsync failed");
  }
  for (std::size_t written = 0; written < line.size();) {
    const ssize_t n = ::write(fd_, line.data() + written, line.size() - written);
    if (n >= 0) {
      written += static_cast<std::size_t>(n);
    } else if (errno != EINTR) [[unlikely]] {
      failed_ = true;
      throw ScfiError("result store: append to " + path_ + " failed: " + std::strerror(errno));
    }
  }
  unsynced_.push_back(std::move(result));
  if (!syncing_) lead(lock);
}

void StoreWriter::sync() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return !syncing_; });
  if (unsynced_.empty()) return;
  if (failed_) [[unlikely]] {
    throw ScfiError(format("result store: %zu record(s) written to %s were never synced: an "
                           "earlier write or fsync failed",
                           unsynced_.size(), path_.c_str()));
  }
  lead(lock);
}

int StoreWriter::syncs() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return syncs_;
}

void StoreWriter::lead(std::unique_lock<std::mutex>& lock) {
  syncing_ = true;
  std::vector<SweepResult> batch;
  batch.swap(unsynced_);
  lock.unlock();
  // Every line of `batch` was written before the swap, so this fsync
  // covers it. Credits run here, before the next leader can start, which
  // keeps them serialized and in file order.
  const bool synced = ::fsync(fd_) == 0;
  const int fsync_errno = errno;
  std::exception_ptr credit_error;
  if (synced && credit_) {
    try {
      for (SweepResult& result : batch) credit_(std::move(result));
    } catch (...) {
      credit_error = std::current_exception();
    }
  }
  lock.lock();
  ++syncs_;
  syncing_ = false;
  idle_.notify_all();
  if (credit_error) std::rethrow_exception(credit_error);
  if (!synced) [[unlikely]] {
    failed_ = true;
    unsynced_.insert(unsynced_.begin(), std::make_move_iterator(batch.begin()),
                     std::make_move_iterator(batch.end()));
    throw ScfiError("result store: fsync of " + path_ + " failed: " +
                    std::strerror(fsync_errno));
  }
}

void StoreWriter::sync_parent_dir(const std::string& path) {
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) return;
  ::fsync(fd);
  ::close(fd);
}

}  // namespace scfi::sweep
