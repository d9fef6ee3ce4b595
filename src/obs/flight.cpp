#include "obs/flight.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/syscall.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <sstream>

#include "util/error.hpp"

namespace spechd::obs {

namespace {

std::uint64_t steady_now_ns() noexcept {
  // clock_gettime is async-signal-safe (vDSO on Linux) — both the record
  // path and the crash writer rely on that.
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint64_t wall_now_ns() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_REALTIME, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

std::uint32_t cached_tid() noexcept {
  thread_local const std::uint32_t tid = static_cast<std::uint32_t>(::gettid());
  return tid;
}

}  // namespace

const char* event_kind_name(event_kind kind) noexcept {
  switch (kind) {
    case event_kind::none: return "none";
    case event_kind::ingest_batch: return "ingest_batch";
    case event_kind::view_publish: return "view_publish";
    case event_kind::journal_append: return "journal_append";
    case event_kind::journal_fsync: return "journal_fsync";
    case event_kind::health_transition: return "health_transition";
    case event_kind::shed_decision: return "shed_decision";
    case event_kind::maintenance_action: return "maintenance_action";
    case event_kind::heal_action: return "heal_action";
    case event_kind::conn_open: return "conn_open";
    case event_kind::conn_close: return "conn_close";
    case event_kind::conn_reap: return "conn_reap";
    case event_kind::watchdog_stall: return "watchdog_stall";
    case event_kind::watchdog_recover: return "watchdog_recover";
    case event_kind::crash: return "crash";
    case event_kind::recovery_progress: return "recovery_progress";
  }
  return "unknown";
}

// --- recorder ----------------------------------------------------------------

flight_recorder& flight_recorder::instance() noexcept {
  // Leaked on purpose (see header).
  static flight_recorder* self = new flight_recorder();
  return *self;
}

flight_recorder::flight_recorder() {
  wall_offset_ns_ = wall_now_ns() - steady_now_ns();
}

void flight_recorder::record(event_kind kind, std::uint64_t arg0,
                             std::uint64_t arg1,
                             std::uint64_t request_id) noexcept {
  if (!armed()) return;
  // Round-robin thread→shard assignment, same scheme as histogram shards:
  // truly per-thread up to k_shards concurrent recorders, striped beyond.
  static std::atomic<std::size_t> next_slot{0};
  thread_local const std::size_t slot =
      next_slot.fetch_add(1, std::memory_order_relaxed) % k_shards;
  auto& sh = shards_[slot];
  const std::uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const std::uint64_t idx = sh.next.fetch_add(1, std::memory_order_relaxed);
  flight_event& e = sh.ring[idx % k_shard_events];
  const std::uint64_t steady = steady_now_ns();
  e.seq = seq;
  e.steady_ns = steady;
  e.wall_ns = steady + wall_offset_ns_;
  e.request_id = request_id;
  e.arg0 = arg0;
  e.arg1 = arg1;
  e.thread_id = cached_tid();
  e.kind = static_cast<std::uint8_t>(kind);
}

std::vector<flight_event> flight_recorder::snapshot() const {
  std::vector<flight_event> out;
  out.reserve(k_capacity);
  for (const auto& sh : shards_) {
    const std::uint64_t written =
        std::min<std::uint64_t>(sh.next.load(std::memory_order_relaxed),
                                k_shard_events);
    for (std::uint64_t i = 0; i < written; ++i) {
      const flight_event e = sh.ring[i];  // racy POD copy; validated below
      if (e.seq == 0 || e.kind == 0 || e.kind > k_event_kind_max) continue;
      out.push_back(e);
    }
  }
  std::sort(out.begin(), out.end(),
            [](const flight_event& a, const flight_event& b) { return a.seq < b.seq; });
  return out;
}

void flight_recorder::reset() noexcept {
  for (auto& sh : shards_) {
    sh.next.store(0, std::memory_order_relaxed);
    for (auto& e : sh.ring) e = flight_event{};
  }
  seq_.store(0, std::memory_order_relaxed);
}

// --- per-shard status table --------------------------------------------------

namespace {
shard_status g_shard_status[k_max_status_shards];
std::atomic<std::size_t> g_shard_status_count{0};
}  // namespace

void set_status_shard_count(std::size_t count) noexcept {
  count = std::min(count, k_max_status_shards);
  for (std::size_t i = 0; i < count; ++i) {
    auto& s = g_shard_status[i];
    s.health.store(0, std::memory_order_relaxed);
    s.generation.store(0, std::memory_order_relaxed);
    s.journal_bytes.store(0, std::memory_order_relaxed);
    s.journal_records.store(0, std::memory_order_relaxed);
    s.queue_depth.store(0, std::memory_order_relaxed);
  }
  g_shard_status_count.store(count, std::memory_order_relaxed);
}

std::size_t status_shard_count() noexcept {
  return g_shard_status_count.load(std::memory_order_relaxed);
}

shard_status& status_shard(std::size_t index) noexcept {
  return g_shard_status[std::min(index, k_max_status_shards - 1)];
}

// --- crash writer ------------------------------------------------------------

namespace {

constexpr char k_crash_magic[4] = {'S', 'P', 'H', 'C'};
constexpr std::uint32_t k_crash_version = 1;
constexpr std::size_t k_max_crash_metrics = 256;
constexpr std::size_t k_crash_name_cap = 128;

// Everything the fatal path reads, prepared in normal context.
registry::crash_ref g_crash_refs[k_max_crash_metrics];
std::atomic<std::size_t> g_crash_ref_count{0};
std::atomic<int> g_crash_fd{-1};
std::atomic<int> g_crash_in_progress{0};
std::atomic<long> g_crash_writer{0};  ///< kernel tid of the thread writing the dump
std::atomic<bool> g_handlers_installed{false};
std::terminate_handler g_prev_terminate = nullptr;

// Static serialisation buffer: bounded above by ring capacity × 53 B per
// event (~217 KiB) + metrics (≤256 × ≤138 B) + shard table + header.
// One fixed BSS block, no allocation on the fatal path.
constexpr std::size_t k_crash_buf_cap = 384 * 1024;
char g_crash_buf[k_crash_buf_cap];
std::atomic_flag g_crash_buf_lock = ATOMIC_FLAG_INIT;

struct crash_cursor {
  char* p = g_crash_buf;

  std::size_t size() const noexcept {
    return static_cast<std::size_t>(p - g_crash_buf);
  }
  bool fits(std::size_t n) const noexcept { return size() + n <= k_crash_buf_cap; }

  template <typename T>
  void put(T v) noexcept {
    std::memcpy(p, &v, sizeof(T));
    p += sizeof(T);
  }
  void put_bytes(const void* data, std::size_t n) noexcept {
    std::memcpy(p, data, n);
    p += n;
  }
};

void put_event(crash_cursor& out, const flight_event& e) noexcept {
  out.put<std::uint64_t>(e.seq);
  out.put<std::uint64_t>(e.steady_ns);
  out.put<std::uint64_t>(e.wall_ns);
  out.put<std::uint64_t>(e.request_id);
  out.put<std::uint64_t>(e.arg0);
  out.put<std::uint64_t>(e.arg1);
  out.put<std::uint32_t>(e.thread_id);
  out.put<std::uint8_t>(e.kind);
}
constexpr std::size_t k_event_wire_bytes = 6 * 8 + 4 + 1;

// async-signal-safe strlen with a cap (names are NUL-terminated immortal
// strings, but a torn ref table entry must not run away).
std::size_t bounded_len(const char* s) noexcept {
  std::size_t n = 0;
  while (n < k_crash_name_cap && s[n] != '\0') ++n;
  return n;
}

/// Serialises the dump into g_crash_buf. Signal-safe: relaxed atomic
/// loads, POD copies, memcpy — nothing else. Returns the byte count.
std::size_t build_crash_dump(int signo) noexcept {
  crash_cursor out;
  out.put_bytes(k_crash_magic, 4);
  out.put<std::uint32_t>(k_crash_version);
  out.put<std::int32_t>(signo);
  out.put<std::uint32_t>(static_cast<std::uint32_t>(::getpid()));
  out.put<std::uint64_t>(wall_now_ns());
  out.put<std::uint64_t>(steady_now_ns());

  // Metrics: three sections (counters, gauges, histograms), each
  // u32 count then (u16 name_len, name, values...). Counts are computed
  // by kind from the harvested ref table.
  const std::size_t refs = g_crash_ref_count.load(std::memory_order_acquire);
  std::uint32_t n_counters = 0;
  std::uint32_t n_gauges = 0;
  std::uint32_t n_hists = 0;
  for (std::size_t i = 0; i < refs; ++i) {
    if (g_crash_refs[i].counter != nullptr) ++n_counters;
    if (g_crash_refs[i].gauge != nullptr) ++n_gauges;
    if (g_crash_refs[i].histogram != nullptr) ++n_hists;
  }
  auto put_name = [&out](const char* name) noexcept {
    const std::size_t len = bounded_len(name);
    out.put<std::uint16_t>(static_cast<std::uint16_t>(len));
    out.put_bytes(name, len);
  };
  out.put<std::uint32_t>(n_counters);
  for (std::size_t i = 0; i < refs; ++i) {
    if (g_crash_refs[i].counter == nullptr) continue;
    put_name(g_crash_refs[i].name);
    out.put<std::uint64_t>(g_crash_refs[i].counter->value());
  }
  out.put<std::uint32_t>(n_gauges);
  for (std::size_t i = 0; i < refs; ++i) {
    if (g_crash_refs[i].gauge == nullptr) continue;
    put_name(g_crash_refs[i].name);
    out.put<std::int64_t>(g_crash_refs[i].gauge->value());
  }
  out.put<std::uint32_t>(n_hists);
  for (std::size_t i = 0; i < refs; ++i) {
    if (g_crash_refs[i].histogram == nullptr) continue;
    put_name(g_crash_refs[i].name);
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    g_crash_refs[i].histogram->totals(count, sum);
    out.put<std::uint64_t>(count);
    out.put<std::uint64_t>(sum);
  }

  // Per-shard status table.
  const std::size_t shard_count = status_shard_count();
  out.put<std::uint32_t>(static_cast<std::uint32_t>(shard_count));
  for (std::size_t i = 0; i < shard_count; ++i) {
    const auto& s = g_shard_status[i];
    out.put<std::uint32_t>(s.health.load(std::memory_order_relaxed));
    out.put<std::uint64_t>(s.generation.load(std::memory_order_relaxed));
    out.put<std::uint64_t>(s.journal_bytes.load(std::memory_order_relaxed));
    out.put<std::uint64_t>(s.journal_records.load(std::memory_order_relaxed));
    out.put<std::uint64_t>(s.queue_depth.load(std::memory_order_relaxed));
  }

  // Flight events: ring order (the parser sorts by seq); torn/empty slots
  // skipped, exactly like snapshot().
  const auto& rec = flight_recorder::instance();
  char* const count_pos = out.p;  // backpatched once the real count is known
  out.put<std::uint32_t>(0);
  std::uint32_t n_events = 0;
  const auto* shards = rec.shards();
  for (std::size_t s = 0; s < flight_recorder::k_shards; ++s) {
    const std::uint64_t written = std::min<std::uint64_t>(
        shards[s].next.load(std::memory_order_relaxed),
        flight_recorder::k_shard_events);
    for (std::uint64_t i = 0; i < written; ++i) {
      const flight_event e = shards[s].ring[i];
      if (e.seq == 0 || e.kind == 0 || e.kind > k_event_kind_max) continue;
      if (!out.fits(k_event_wire_bytes)) break;
      put_event(out, e);
      ++n_events;
    }
  }
  std::memcpy(count_pos, &n_events, sizeof(n_events));
  return out.size();
}

void write_dump_to_fd(int fd, int signo) noexcept {
  const std::size_t bytes = build_crash_dump(signo);
  std::size_t off = 0;
  while (off < bytes) {
    const ssize_t n = ::write(fd, g_crash_buf + off, bytes - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return;  // nothing left to do on a dying write path
    }
    off += static_cast<std::size_t>(n);
  }
  ::fsync(fd);
}

long current_tid() noexcept { return ::syscall(SYS_gettid); }

extern "C" void crash_signal_handler(int sig) {
  const long self = current_tid();
  if (g_crash_in_progress.exchange(1, std::memory_order_acq_rel) == 0) {
    g_crash_writer.store(self, std::memory_order_release);
    record_event(event_kind::crash, static_cast<std::uint64_t>(sig));
    const int fd = g_crash_fd.load(std::memory_order_acquire);
    if (fd >= 0) write_dump_to_fd(fd, sig);
  } else if (g_crash_writer.load(std::memory_order_acquire) != self) {
    // Another thread crashed first and is writing the dump; its re-raise
    // below ends the process. Re-raising here at once would end it
    // mid-write and leave a truncated dump, so wait — bounded (10 s), in
    // case the writer is stuck in the write path.
    const timespec tick{0, 1'000'000};
    for (int i = 0; i < 10'000; ++i) ::nanosleep(&tick, nullptr);
  }
  // First entry done, or a second entry on the writing thread (the handler
  // itself crashed, or terminate already dumped): default disposition.
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

[[noreturn]] void crash_terminate_handler() {
  if (g_crash_in_progress.exchange(1, std::memory_order_acq_rel) == 0) {
    g_crash_writer.store(current_tid(), std::memory_order_release);
    record_event(event_kind::crash, 0);
    const int fd = g_crash_fd.load(std::memory_order_acquire);
    if (fd >= 0) write_dump_to_fd(fd, 0);
  }
  // abort() raises SIGABRT; the in-progress flag makes our SIGABRT
  // handler skip the (already written) dump and take the default exit.
  std::abort();
}

}  // namespace

void refresh_crash_metrics() noexcept {
  const std::size_t n =
      registry::instance().export_crash_refs(g_crash_refs, k_max_crash_metrics);
  g_crash_ref_count.store(n, std::memory_order_release);
}

bool install_crash_handler(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  const int old = g_crash_fd.exchange(fd, std::memory_order_acq_rel);
  if (old >= 0) ::close(old);
  refresh_crash_metrics();
  g_crash_in_progress.store(0, std::memory_order_release);

  if (!g_handlers_installed.exchange(true, std::memory_order_acq_rel)) {
    struct sigaction sa{};
    sa.sa_handler = crash_signal_handler;
    sigemptyset(&sa.sa_mask);
    sa.sa_flags = 0;
    ::sigaction(SIGSEGV, &sa, nullptr);
    ::sigaction(SIGBUS, &sa, nullptr);
    ::sigaction(SIGABRT, &sa, nullptr);
    g_prev_terminate = std::set_terminate(crash_terminate_handler);
  }
  return true;
}

bool write_crash_dump_now(const std::string& path) {
  const int fd = ::open(path.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) return false;
  refresh_crash_metrics();
  while (g_crash_buf_lock.test_and_set(std::memory_order_acquire)) {}
  write_dump_to_fd(fd, 0);
  g_crash_buf_lock.clear(std::memory_order_release);
  return ::close(fd) == 0;
}

// --- parser ------------------------------------------------------------------

namespace {

struct parse_cursor {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  template <typename T>
  bool read(T& v) noexcept {
    if (size - pos < sizeof(T)) return false;
    std::memcpy(&v, data + pos, sizeof(T));
    pos += sizeof(T);
    return true;
  }
  bool read_name(std::string& out) {
    std::uint16_t len = 0;
    if (!read(len)) return false;
    if (size - pos < len) return false;
    out.assign(data + pos, len);
    pos += len;
    return true;
  }
};

}  // namespace

bool parse_crash_dump(const std::string& bytes, crash_dump& out) {
  parse_cursor in{bytes.data(), bytes.size()};
  char magic[4];
  if (in.size - in.pos < 4) return false;
  std::memcpy(magic, in.data, 4);
  in.pos = 4;
  if (std::memcmp(magic, k_crash_magic, 4) != 0) return false;
  if (!in.read(out.version) || out.version != k_crash_version) return false;
  if (!in.read(out.signo) || !in.read(out.pid)) return false;
  if (!in.read(out.wall_ns) || !in.read(out.steady_ns)) return false;

  std::uint32_t n = 0;
  if (!in.read(n)) return false;
  if (n > (in.size - in.pos) / (2 + 8)) return false;  // hostile count guard
  out.counters.resize(n);
  for (auto& c : out.counters) {
    if (!in.read_name(c.name) || !in.read(c.value)) return false;
  }
  if (!in.read(n)) return false;
  if (n > (in.size - in.pos) / (2 + 8)) return false;
  out.gauges.resize(n);
  for (auto& g : out.gauges) {
    if (!in.read_name(g.name) || !in.read(g.value)) return false;
  }
  if (!in.read(n)) return false;
  if (n > (in.size - in.pos) / (2 + 16)) return false;
  out.histograms.resize(n);
  for (auto& h : out.histograms) {
    if (!in.read_name(h.name) || !in.read(h.count) || !in.read(h.sum)) return false;
  }
  if (!in.read(n)) return false;
  if (n > (in.size - in.pos) / (4 + 4 * 8)) return false;
  out.shards.resize(n);
  for (auto& s : out.shards) {
    if (!in.read(s.health) || !in.read(s.generation) || !in.read(s.journal_bytes) ||
        !in.read(s.journal_records) || !in.read(s.queue_depth)) {
      return false;
    }
  }
  if (!in.read(n)) return false;
  if (n > (in.size - in.pos) / k_event_wire_bytes) return false;
  out.events.resize(n);
  for (auto& e : out.events) {
    if (!in.read(e.seq) || !in.read(e.steady_ns) || !in.read(e.wall_ns) ||
        !in.read(e.request_id) || !in.read(e.arg0) || !in.read(e.arg1) ||
        !in.read(e.thread_id) || !in.read(e.kind)) {
      return false;
    }
    if (e.kind == 0 || e.kind > k_event_kind_max) return false;
  }
  if (in.pos != in.size) return false;
  std::sort(out.events.begin(), out.events.end(),
            [](const flight_event& a, const flight_event& b) { return a.seq < b.seq; });
  return true;
}

bool read_crash_dump_file(const std::string& path, crash_dump& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw spechd::io_error("cannot open crash dump: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) throw spechd::io_error("cannot read crash dump: " + path);
  return parse_crash_dump(buffer.str(), out);
}

}  // namespace spechd::obs
