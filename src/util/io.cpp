#include "util/io.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <thread>

namespace spechd::util {

const char* io_op_name(io_op op) noexcept {
  switch (op) {
    case io_op::open: return "open";
    case io_op::write: return "write";
    case io_op::fsync: return "fsync";
    case io_op::truncate: return "truncate";
    case io_op::rename: return "rename";
    case io_op::remove: return "remove";
  }
  return "?";
}

io_failure::io_failure(io_op op, std::string path, int err, std::size_t bytes_completed)
    : io_error(std::string(io_op_name(op)) + " '" + path +
               "' failed: " + std::strerror(err) + " (errno " + std::to_string(err) +
               ")"),
      op_(op),
      path_(std::move(path)),
      errno_(err),
      bytes_completed_(bytes_completed) {}

bool io_error_is_transient(int err) noexcept {
  return err == EAGAIN || err == EWOULDBLOCK;
}

namespace {

// Runs `call` (returning -1/errno on failure) with EINTR restart and
// bounded transient retry; returns the first non-transient errno, or 0.
template <typename Call>
int run_with_retry(Call&& call, const io_retry_policy& retry) {
  auto backoff = retry.initial_backoff;
  int attempts_left = retry.max_retries;
  for (;;) {
    if (call() == 0) return 0;
    const int err = errno;
    if (err == EINTR) continue;  // restart immediately, not a retry
    if (io_error_is_transient(err) && attempts_left-- > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
      continue;
    }
    return err;
  }
}

// Failpoint check shared by the non-write wrappers: an armed `error`
// action becomes the syscall's errno; `short` is meaningless outside
// write_all and is treated as an error too (fail loudly, not silently).
int injected_errno(failpoint& fp) {
  if (auto action = fp.fire()) {
    return action->type == failpoint_action::kind::error ? action->error_code : EIO;
  }
  return 0;
}

}  // namespace

int open_fd(const std::string& path, int flags, unsigned mode, failpoint& fp,
            const io_retry_policy& retry) {
  int fd = -1;
  const int err = run_with_retry(
      [&] {
        if (int injected = injected_errno(fp)) {
          errno = injected;
          return -1;
        }
        fd = ::open(path.c_str(), flags, static_cast<mode_t>(mode));
        return fd >= 0 ? 0 : -1;
      },
      retry);
  if (err != 0) throw io_failure(io_op::open, path, err);
  return fd;
}

void write_all(int fd, const void* data, std::size_t size, const std::string& path,
               failpoint& fp, const io_retry_policy& retry) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  std::size_t written = 0;
  auto backoff = retry.initial_backoff;
  int attempts_left = retry.max_retries;
  while (written < size) {
    std::size_t chunk = size - written;
    int injected = 0;
    if (auto action = fp.fire()) {
      if (action->type == failpoint_action::kind::short_write) {
        // Transfer at most half of what remains (at least 1 byte when more
        // than one remains) so the continuation loop genuinely re-enters.
        chunk = chunk > 1 ? chunk / 2 : chunk;
      } else {
        injected = action->error_code;
      }
    }
    ssize_t n;
    if (injected != 0) {
      // Injected errnos take the exact path a real failure would — an
      // injected EINTR restarts, an injected EAGAIN consumes a retry.
      n = -1;
      errno = injected;
    } else {
      n = ::write(fd, bytes + written, chunk);
    }
    if (n > 0) {
      written += static_cast<std::size_t>(n);
      continue;
    }
    const int err = n < 0 ? errno : EIO;  // n == 0 on a regular file: treat as EIO
    if (err == EINTR) continue;
    if (io_error_is_transient(err) && attempts_left-- > 0) {
      std::this_thread::sleep_for(backoff);
      backoff *= 2;
      continue;
    }
    throw io_failure(io_op::write, path, err, written);
  }
}

void fsync_fd(int fd, const std::string& path, failpoint& fp,
              const io_retry_policy& retry) {
  const int err = run_with_retry(
      [&] {
        if (int injected = injected_errno(fp)) {
          errno = injected;
          return -1;
        }
        return ::fsync(fd);
      },
      retry);
  if (err != 0) throw io_failure(io_op::fsync, path, err);
}

void truncate_fd(int fd, std::uint64_t size, const std::string& path, failpoint& fp,
                 const io_retry_policy& retry) {
  const int err = run_with_retry(
      [&] {
        if (int injected = injected_errno(fp)) {
          errno = injected;
          return -1;
        }
        return ::ftruncate(fd, static_cast<off_t>(size));
      },
      retry);
  if (err != 0) throw io_failure(io_op::truncate, path, err);
}

void rename_file(const std::string& from, const std::string& to, failpoint& fp,
                 const io_retry_policy& retry) {
  const int err = run_with_retry(
      [&] {
        if (int injected = injected_errno(fp)) {
          errno = injected;
          return -1;
        }
        return ::rename(from.c_str(), to.c_str());
      },
      retry);
  if (err != 0) throw io_failure(io_op::rename, from + " -> " + to, err);
}

void remove_file(const std::string& path, failpoint& fp,
                 const io_retry_policy& retry) {
  const int err = run_with_retry(
      [&] {
        if (int injected = injected_errno(fp)) {
          errno = injected;
          return -1;
        }
        if (::unlink(path.c_str()) == 0 || errno == ENOENT) return 0;
        return -1;
      },
      retry);
  if (err != 0) throw io_failure(io_op::remove, path, err);
}

void fsync_dir(const std::string& dir) {
  static failpoint fp("dir.fsync");
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) throw io_failure(io_op::open, dir, errno);
  try {
    fsync_fd(fd, dir, fp);
  } catch (...) {
    ::close(fd);
    throw;
  }
  ::close(fd);
}

void replace_file(const std::string& path, std::string_view bytes,
                  const replace_sites& sites, bool sync) {
  // A rename over a device or FIFO would replace the node itself.
  std::error_code ec;
  const auto type = std::filesystem::symlink_status(path, ec).type();
  if (type != std::filesystem::file_type::not_found &&
      type != std::filesystem::file_type::regular &&
      type != std::filesystem::file_type::symlink) {
    throw io_error("cannot replace '" + path + "': not a regular file");
  }
  const std::string tmp = path + ".tmp";
  const int fd = open_fd(tmp, O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644, sites.open);
  try {
    write_all(fd, bytes.data(), bytes.size(), tmp, sites.write);
    if (sync) fsync_fd(fd, tmp, sites.fsync);
  } catch (...) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw;
  }
  ::close(fd);
  try {
    rename_file(tmp, path, sites.rename);
  } catch (...) {
    ::unlink(tmp.c_str());
    throw;
  }
  if (sync) {
    const auto dir = std::filesystem::path(path).parent_path();
    fsync_dir(dir.empty() ? "." : dir.string());
  }
}

std::optional<std::string> read_file(const std::string& path, std::size_t max_bytes) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);  // fails for directories
  std::ifstream in(path, std::ios::binary);
  if (ec || !in) return std::nullopt;
  std::string bytes(std::min<std::uintmax_t>(size, max_bytes), '\0');
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

}  // namespace spechd::util
