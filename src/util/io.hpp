// Checked POSIX I/O for the durability tier.
//
// Every syscall the journal/snapshot/recovery path makes goes through this
// layer so that (a) failures surface as one typed exception carrying the
// operation, path, and errno, (b) short writes and EINTR are handled in
// exactly one place, (c) transient errors get a bounded retry with backoff,
// and (d) each call site owns a failpoint, giving the fault-torture suite a
// complete, enumerable list of injection points.
//
// Retry policy: EINTR restarts immediately (not counted as a retry);
// EAGAIN/EWOULDBLOCK back off (1ms, doubling) for up to `io_retry_policy::
// max_retries` attempts. ENOSPC, EIO, EDQUOT and everything else are
// permanent — they propagate as io_failure on the first occurrence, because
// retrying a full or dying disk from the write path only delays the health
// transition the shard needs to make.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>

#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace spechd::util {

enum class io_op : std::uint8_t {
  open,
  write,
  fsync,
  truncate,
  rename,
  remove,
};

const char* io_op_name(io_op op) noexcept;

/// A failed I/O operation: which syscall, on which path, with which errno,
/// and how many bytes completed before the failure (writes only) so the
/// journal can roll back exactly the partial frame.
class io_failure : public spechd::io_error {
public:
  io_failure(io_op op, std::string path, int err, std::size_t bytes_completed = 0);

  io_op op() const noexcept { return op_; }
  const std::string& path() const noexcept { return path_; }
  int code() const noexcept { return errno_; }
  std::size_t bytes_completed() const noexcept { return bytes_completed_; }

private:
  io_op op_;
  std::string path_;
  int errno_;
  std::size_t bytes_completed_;
};

struct io_retry_policy {
  int max_retries = 4;  ///< transient (EAGAIN) attempts beyond the first
  std::chrono::milliseconds initial_backoff{1};  ///< doubles per retry
};

/// True for errors worth a bounded retry (EAGAIN/EWOULDBLOCK). EINTR is
/// handled by restarting immediately and never reaches this predicate.
bool io_error_is_transient(int err) noexcept;

// Each function takes the call site's failpoint so the disarmed overhead
// stays at one relaxed load; an armed `error` action is indistinguishable
// from the syscall failing with that errno, and `short` on write_all
// truncates one transfer so the short-write continuation loop runs.

/// open(2). Throws io_failure; never returns a negative fd.
int open_fd(const std::string& path, int flags, unsigned mode, failpoint& fp,
            const io_retry_policy& retry = {});

/// Writes all `size` bytes at the current offset, looping on short writes
/// and EINTR. On failure, io_failure::bytes_completed() is the number of
/// bytes durably handed to the kernel before the error.
void write_all(int fd, const void* data, std::size_t size, const std::string& path,
               failpoint& fp, const io_retry_policy& retry = {});

/// fsync(2).
void fsync_fd(int fd, const std::string& path, failpoint& fp,
              const io_retry_policy& retry = {});

/// ftruncate(2).
void truncate_fd(int fd, std::uint64_t size, const std::string& path, failpoint& fp,
                 const io_retry_policy& retry = {});

/// rename(2).
void rename_file(const std::string& from, const std::string& to, failpoint& fp,
                 const io_retry_policy& retry = {});

/// unlink(2); missing files are not an error (idempotent cleanup).
void remove_file(const std::string& path, failpoint& fp,
                 const io_retry_policy& retry = {});

/// fsyncs the directory `dir`, so a rename or create inside it is durable
/// (failpoint `dir.fsync`).
void fsync_dir(const std::string& dir);

/// The failpoints of one replace_file caller, one per step.
struct replace_sites {
  failpoint& open;
  failpoint& write;
  failpoint& fsync;
  failpoint& rename;
};

/// Replaces the file at `path` with `bytes`: writes `path`.tmp, fsyncs it,
/// renames it over `path` and fsyncs the directory (`sync` false skips
/// both fsyncs). A failure before the rename removes the temporary file
/// and leaves `path` as it was; at no point does `path` hold a partial
/// file. Throws io_failure, or io_error when `path` names something other
/// than a regular file or a symlink (a device, a FIFO, a directory).
void replace_file(const std::string& path, std::string_view bytes,
                  const replace_sites& sites, bool sync = true);

/// The first `max_bytes` of the regular file at `path` (all of it by
/// default), read in one pass; nullopt when it cannot be opened or read.
std::optional<std::string> read_file(
    const std::string& path,
    std::size_t max_bytes = std::numeric_limits<std::size_t>::max());

}  // namespace spechd::util
