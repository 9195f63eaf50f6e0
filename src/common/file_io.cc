#include "common/file_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>

#include "common/string_util.h"

namespace htapex {

namespace {

Status ErrnoError(const char* what, const std::string& path) {
  return Status::IoError(
      StrFormat("%s %s: %s", what, path.c_str(), std::strerror(errno)));
}

}  // namespace

Result<std::string> ReadFile(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (errno == ENOENT) return Status::NotFound("no such file: " + path);
    return ErrnoError("cannot open", path);
  }
  std::string data;
  struct stat st;
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    data.reserve(static_cast<size_t>(st.st_size));
  }
  char buf[1 << 16];
  for (;;) {
    ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      Status err = ErrnoError("cannot read", path);
      ::close(fd);
      return err;
    }
    if (n == 0) break;
    data.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return data;
}

Status WriteAll(int fd, std::string_view data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t n = ::write(fd, data.data() + done, data.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(
          StrFormat("write failed: %s", std::strerror(errno)));
    }
    done += static_cast<size_t>(n);
  }
  return Status::OK();
}

Status WriteFileSynced(const std::string& path, std::string_view data) {
  int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return ErrnoError("cannot open", path);
  Status st = WriteAll(fd, data);
  if (st.ok() && ::fsync(fd) != 0) st = ErrnoError("cannot fsync", path);
  ::close(fd);
  if (!st.ok()) std::remove(path.c_str());
  return st;
}

Status RenameSynced(const std::string& from, const std::string& to) {
  if (std::rename(from.c_str(), to.c_str()) != 0) {
    Status err = ErrnoError("cannot rename", from + " -> " + to);
    std::remove(from.c_str());
    return err;
  }
  // Best effort: a failed directory fsync only widens the crash window
  // for the rename, it cannot corrupt either file.
  std::string dir = std::filesystem::path(to).parent_path().string();
  int fd = ::open(dir.empty() ? "." : dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd >= 0) {
    ::fsync(fd);
    ::close(fd);
  }
  return Status::OK();
}

Status WriteFileAtomic(const std::string& path, std::string_view data) {
  const std::string tmp = path + ".tmp";
  HTAPEX_RETURN_IF_ERROR(WriteFileSynced(tmp, data));
  return RenameSynced(tmp, path);
}

}  // namespace htapex
