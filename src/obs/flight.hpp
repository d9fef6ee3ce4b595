// Flight recorder + crash-dump diagnostics for the serving tier.
//
// Metrics (obs/metrics.hpp) answer "how much, how fast"; the flight
// recorder answers "what happened, in what order, right before things
// went wrong". Every layer of the serving path emits small structured
// events — ingest batches, view publishes, journal appends/fsyncs,
// health transitions, shed decisions, maintenance reclusters,
// connection open/close/reap, watchdog verdicts — into a process-wide,
// fixed-size, lock-free ring:
//
//   hot paths ──record_event (1 clock read + relaxed stores)──▶
//     per-thread ring shards (k_shards × k_shard_events PODs, wraparound)
//       ├── snapshot()        live:  get_debug_dump wire frame,
//       │                            `client --debug-dump`
//       └── crash writer      fatal: `.sphcrash` file via write(2) only,
//                                    `spechd doctor` offline
//
// Design constraints, in order:
//   * Record cost: disarmed is one relaxed load (the same obs::armed()
//     gate trace spans use); armed is one CLOCK_MONOTONIC read plus a
//     handful of relaxed stores into the calling thread's shard — no
//     locks, no allocation, bench-priced in `bench_serve` observability.
//   * Crash-path safety: everything the fatal handler touches is
//     async-signal-safe — the rings are plain PODs, per-shard status is
//     relaxed atomics, metric references are harvested into a fixed
//     table *before* the crash (instruments are immortal), the output fd
//     is pre-opened at install time, and the dump is serialised into a
//     static buffer and flushed with write(2). No malloc, no locks, no
//     stdio on the fatal path.
//   * Honest best-effort reads: the rings are written without
//     synchronisation, so a snapshot racing a writer may observe a torn
//     slot. Readers drop events whose kind is out of range or whose seq
//     is zero; everything they keep is internally consistent.
//
// Wall timestamps are derived as steady_ns + (wall − steady at recorder
// init), so each event carries both clock domains for the price of one
// clock read.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "obs/metrics.hpp"

namespace spechd::obs {

// --- events ------------------------------------------------------------------

/// What happened. Values are wire/dump format — append only, never renumber.
enum class event_kind : std::uint8_t {
  none = 0,
  ingest_batch = 1,       ///< arg0 = records applied, arg1 = shard
  view_publish = 2,       ///< arg0 = view epoch, arg1 = shard
  journal_append = 3,     ///< arg0 = journal records, arg1 = journal bytes
  journal_fsync = 4,      ///< arg0 = records synced, arg1 = generation
  health_transition = 5,  ///< arg0 = new health, arg1 = shard
  shed_decision = 6,      ///< arg0 = queue depth at shed, request id set
  maintenance_action = 7, ///< arg0 = reclusters run (1), arg1 = 0
  heal_action = 8,        ///< kept for the dump format; nothing records it
  conn_open = 9,          ///< arg0 = fd, arg1 = open connections
  conn_close = 10,        ///< arg0 = fd, arg1 = open connections
  conn_reap = 11,         ///< arg0 = fd, arg1 = idle ms
  watchdog_stall = 12,    ///< arg0 = component slot, arg1 = silent ms
  watchdog_recover = 13,  ///< arg0 = component slot, arg1 = silent ms
  crash = 14,             ///< arg0 = signal number (0: std::terminate)
  recovery_progress = 15, ///< arg0 = records replayed, arg1 = generation
};

inline constexpr std::uint8_t k_event_kind_max = 15;

const char* event_kind_name(event_kind kind) noexcept;

/// One recorded event. Fixed-size POD: the crash writer copies these out
/// of the rings byte-for-byte from a signal handler.
struct flight_event {
  std::uint64_t seq = 0;        ///< process-wide order (1-based; 0 = empty slot)
  std::uint64_t steady_ns = 0;  ///< CLOCK_MONOTONIC at record time
  std::uint64_t wall_ns = 0;    ///< CLOCK_REALTIME (derived, see header comment)
  std::uint64_t request_id = 0; ///< wire request id when in a request context
  std::uint64_t arg0 = 0;       ///< kind-specific (see event_kind)
  std::uint64_t arg1 = 0;       ///< kind-specific
  std::uint32_t thread_id = 0;  ///< OS thread id (gettid) of the recorder
  std::uint8_t kind = 0;        ///< event_kind
  std::uint8_t pad_[3] = {};

  friend bool operator==(const flight_event&, const flight_event&) = default;
};
static_assert(sizeof(flight_event) == 56, "dump format depends on layout");

// --- recorder ----------------------------------------------------------------

/// Process-wide ring of recent events. Leaked singleton (instrumentation
/// sites in static destructors must still find it alive).
class flight_recorder {
public:
  /// Ring geometry: threads are spread round-robin over k_shards slots
  /// (like histogram shards); each shard keeps the last k_shard_events
  /// events it saw. Total footprint ≈ 16 × 256 × 56 B = 224 KiB, fixed.
  static constexpr std::size_t k_shards = 16;
  static constexpr std::size_t k_shard_events = 256;
  static constexpr std::size_t k_capacity = k_shards * k_shard_events;

  static flight_recorder& instance() noexcept;

  /// Records one event. Disarmed (obs::set_armed(false)): one relaxed
  /// load. Armed: one clock read + relaxed stores, no locks/allocation.
  void record(event_kind kind, std::uint64_t arg0 = 0, std::uint64_t arg1 = 0,
              std::uint64_t request_id = 0) noexcept;

  /// Events ever recorded (monotonic; the rings keep only the newest).
  std::uint64_t total_recorded() const noexcept {
    return seq_.load(std::memory_order_relaxed);
  }

  /// Copies the surviving events out of the rings, seq-ascending. Torn or
  /// empty slots are dropped (see header comment). Allocates — live/debug
  /// surface only, never called from the crash path.
  std::vector<flight_event> snapshot() const;

  /// Drops every recorded event and resets the seq counter (test isolation).
  void reset() noexcept;

  struct shard {
    std::atomic<std::uint64_t> next{0};  ///< slots ever written in this shard
    flight_event ring[k_shard_events];
  };

  /// Raw shard access for the crash writer (signal context): plain reads
  /// of POD slots, same torn-slot caveat as snapshot().
  const shard* shards() const noexcept { return shards_; }

private:
  flight_recorder();

  std::atomic<std::uint64_t> seq_{0};
  std::uint64_t wall_offset_ns_ = 0;  ///< wall − steady at construction
  shard shards_[k_shards];
};

/// Convenience wrapper every instrumentation site uses:
///   obs::record_event(obs::event_kind::view_publish, epoch, shard_id);
inline void record_event(event_kind kind, std::uint64_t arg0 = 0,
                         std::uint64_t arg1 = 0,
                         std::uint64_t request_id = 0) noexcept {
  flight_recorder::instance().record(kind, arg0, arg1, request_id);
}

// --- per-shard status table --------------------------------------------------

/// Last-known health/journal position per serving shard, mirrored into
/// plain atomics by the serve layer so the crash writer (and the
/// get_debug_dump frame) can read them without touching shard objects.
inline constexpr std::size_t k_max_status_shards = 64;

struct shard_status {
  std::atomic<std::uint32_t> health{0};           ///< serve::shard_health
  std::atomic<std::uint64_t> generation{0};
  std::atomic<std::uint64_t> journal_bytes{0};
  std::atomic<std::uint64_t> journal_records{0};
  std::atomic<std::uint64_t> queue_depth{0};
};

/// Declares how many shard slots are live (clamped to k_max_status_shards;
/// the service calls this at construction). Zeroes the slots.
void set_status_shard_count(std::size_t count) noexcept;
std::size_t status_shard_count() noexcept;
/// Slot for shard `index` (index is clamped into range; updates are
/// relaxed stores by shard writers, reads from anywhere incl. signals).
shard_status& status_shard(std::size_t index) noexcept;

// --- crash dumps -------------------------------------------------------------

/// Parsed `.sphcrash` contents (also produced for live snapshots written
/// by write_crash_dump_now — same format, signo 0).
struct crash_counter_sample {
  std::string name;
  std::uint64_t value = 0;
  friend bool operator==(const crash_counter_sample&, const crash_counter_sample&) = default;
};
struct crash_gauge_sample {
  std::string name;
  std::int64_t value = 0;
  friend bool operator==(const crash_gauge_sample&, const crash_gauge_sample&) = default;
};
struct crash_histogram_sample {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  friend bool operator==(const crash_histogram_sample&, const crash_histogram_sample&) = default;
};
struct crash_shard_sample {
  std::uint32_t health = 0;
  std::uint64_t generation = 0;
  std::uint64_t journal_bytes = 0;
  std::uint64_t journal_records = 0;
  std::uint64_t queue_depth = 0;
  friend bool operator==(const crash_shard_sample&, const crash_shard_sample&) = default;
};

struct crash_dump {
  std::uint32_t version = 0;
  std::int32_t signo = 0;      ///< fatal signal; 0 = terminate/on-demand
  std::uint32_t pid = 0;
  std::uint64_t wall_ns = 0;   ///< when the dump was written
  std::uint64_t steady_ns = 0;
  std::vector<crash_counter_sample> counters;
  std::vector<crash_gauge_sample> gauges;
  std::vector<crash_histogram_sample> histograms;
  std::vector<crash_shard_sample> shards;      ///< shard index order
  std::vector<flight_event> events;            ///< seq-ascending tail
};

/// Installs SIGSEGV/SIGBUS/SIGABRT handlers plus a std::terminate handler
/// that write a crash dump, then re-raise the default disposition (so the
/// exit status still reports the signal). The first fatal entry writes;
/// other threads that crash meanwhile wait (up to 10 s) for its re-raise
/// instead of cutting the dump short. Pre-opens `path` (O_TRUNC) and
/// harvests the metric references immediately — the fatal path itself
/// uses only write(2) + fsync on the held fd. Re-installable (tests):
/// a later call replaces the path. Returns false when the file cannot be
/// opened (handler is then not installed).
bool install_crash_handler(const std::string& path);

/// Re-harvests metric references into the crash table (picks up
/// instruments registered after install; the watchdog calls this each
/// poll). Cheap; takes the registry mutex. Safe no-op before install.
void refresh_crash_metrics() noexcept;

/// Writes a dump of the current state to `path` on demand (normal
/// context; opens/closes the file itself). Same format as the fatal
/// path, signo 0. Returns false on I/O failure.
bool write_crash_dump_now(const std::string& path);

/// Parses dump bytes. Returns false (out untouched beyond partial fill)
/// on bad magic/version or a malformed section.
bool parse_crash_dump(const std::string& bytes, crash_dump& out);

/// Reads and parses a dump file. Throws util::io_error when the file
/// cannot be read; returns false on parse failure.
bool read_crash_dump_file(const std::string& path, crash_dump& out);

}  // namespace spechd::obs
