// Directory-entry durability: fsync of a directory makes the renames and
// creations inside it survive power loss. Shared by the engine's rebalance
// commit and the WAL's segment rotation.

#ifndef TOKRA_UTIL_FSYNC_DIR_H_
#define TOKRA_UTIL_FSYNC_DIR_H_

#include <fcntl.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace tokra {

/// Fsyncs the directory `dir` itself (not its contents). False on failure;
/// callers in durable modes treat that as a broken barrier.
[[nodiscard]] inline bool FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

/// Fsyncs the directory containing `file_path`.
[[nodiscard]] inline bool FsyncDirContaining(const std::string& file_path) {
  std::string dir = std::filesystem::path(file_path).parent_path().string();
  return FsyncDir(dir.empty() ? std::string(".") : dir);
}

}  // namespace tokra

#endif  // TOKRA_UTIL_FSYNC_DIR_H_
