#pragma once

#include <functional>
#include <string>

namespace extradeep {

/// Replaces `path` in one step: `write` fills `<path>.tmp`, which is then
/// renamed over `path`, so a reader of `path` (a registry reload, a spool
/// scan) sees the old file or the new one, never a half-written one. If
/// `write` throws or the rename fails, the tmp file is removed, `path` is
/// left as it was, and the error propagates (a failed rename throws Error).
///
/// Rename-atomic only: nothing is fsync'ed, so the new bytes survive a
/// process crash but not a kernel crash or power loss.
void write_file_atomically(
    const std::string& path,
    const std::function<void(const std::string& tmp_path)>& write);

}  // namespace extradeep
