// The store's "directory": the repo's in-memory Env (storage/env.h MemEnv)
// plus the list of every path the store created, so the benchmark can sum
// the store's file sizes (log_bytes_per_op) and copy or corrupt its files
// (the checker self-test). Sync is a no-op here, as on a memory-backed
// filesystem: fsync cost stays out of the figures, the group-commit path
// does not.

#pragma once

#include <mutex>
#include <set>
#include <string>

#include "storage/env.h"

namespace gdprbench {

class StoreEnv : public gdpr::Env {
 public:
  gdpr::StatusOr<std::unique_ptr<gdpr::WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    Remember(path);
    return mem_.NewWritableFile(path, truncate);
  }
  gdpr::StatusOr<std::string> ReadFileToString(
      const std::string& path) override {
    return mem_.ReadFileToString(path);
  }
  gdpr::StatusOr<uint64_t> FileSize(const std::string& path) override {
    return mem_.FileSize(path);
  }
  gdpr::Status DeleteFile(const std::string& path) override {
    return mem_.DeleteFile(path);
  }
  bool FileExists(const std::string& path) override {
    return mem_.FileExists(path);
  }
  gdpr::Status RenameFile(const std::string& from,
                          const std::string& to) override {
    Remember(to);
    return mem_.RenameFile(from, to);
  }

  // Sum of the sizes of every file that exists.
  uint64_t TotalFileBytes() {
    uint64_t total = 0;
    for (const auto& p : Paths()) {
      auto size = mem_.FileSize(p);
      if (size.ok()) total += size.value();
    }
    return total;
  }

  // Copies every existing file into dst (a snapshot of the directory).
  void CopyTo(StoreEnv* dst) {
    for (const auto& p : Paths()) {
      auto contents = mem_.ReadFileToString(p);
      if (!contents.ok()) continue;
      auto f = dst->NewWritableFile(p, /*truncate=*/true);
      if (f.ok()) {
        f.value()->Append(contents.value()).ok();
        f.value()->Close().ok();
      }
    }
  }

 private:
  // Every path ever created here (deleted ones included; FileExists tells).
  std::set<std::string> Paths() const {
    std::lock_guard<std::mutex> l(mu_);
    return paths_;
  }
  void Remember(const std::string& path) {
    std::lock_guard<std::mutex> l(mu_);
    paths_.insert(path);
  }

  gdpr::MemEnv mem_;
  mutable std::mutex mu_;
  std::set<std::string> paths_;
};

}  // namespace gdprbench
