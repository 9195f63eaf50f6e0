#ifndef HTAPEX_COMMON_FILE_IO_H_
#define HTAPEX_COMMON_FILE_IO_H_

#include <string>
#include <string_view>

#include "common/result.h"

namespace htapex {

// Whole-file reads and writes, fsyncs and renames for every on-disk
// format: the KB export, snapshots, the MANIFEST, model checkpoints, the
// feedback log and WAL replay. The WAL writer appends through WriteAll
// and syncs its own descriptor (durable/wal.h).

/// The whole file at `path`. NotFound when it does not exist, IoError when
/// it cannot be read.
Result<std::string> ReadFile(const std::string& path);

/// write(2) loop: writes all of `data` to `fd`, retrying short writes and
/// EINTR.
Status WriteAll(int fd, std::string_view data);

/// Creates or truncates `path`, writes `data` and fsyncs the file. A failed
/// write removes the partial file.
Status WriteFileSynced(const std::string& path, std::string_view data);

/// Renames `from` over `to`, then fsyncs `to`'s directory so the rename
/// survives a crash. A failed rename removes `from`.
Status RenameSynced(const std::string& from, const std::string& to);

/// Durably replaces `path`: WriteFileSynced to `<path>.tmp`, then
/// RenameSynced over `path`. A crash at any point leaves either the old
/// file or the complete new one, never a torn mix.
Status WriteFileAtomic(const std::string& path, std::string_view data);

}  // namespace htapex

#endif  // HTAPEX_COMMON_FILE_IO_H_
