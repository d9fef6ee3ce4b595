// Liveness watchdog for the serving tier.
//
// Every long-lived loop in the process — each shard's writer thread and
// the epoll loop — registers a named component and pulses its heartbeat
// once per iteration (one clock read + one relaxed store). A single
// watchdog thread polls the slots and flags any component silent past a
// configurable deadline:
//
//   component.pulse() ──relaxed store──▶ slot.last_beat_ns
//                                           │ watchdog thread, every poll
//                                           ▼
//     silent > deadline:  flight event (watchdog_stall) + WARNING log +
//                         `spechd_watchdog_stalled_components` gauge
//     pulses again:       flight event (watchdog_recover), gauge drops
//     silent > deadline + kill_after (when set): FATAL log + std::abort(),
//                         which routes through the crash handler — a
//                         supervised deployment gets a `.sphcrash` dump
//                         and a restart instead of a silent wedge.
//
// The slot table is fixed-size and lock-free (components register/retire
// with CAS on a state byte), so registration works from any thread and
// the watchdog never blocks a serving path. The watchdog also refreshes
// the crash writer's metric table each poll, keeping `.sphcrash` metric
// coverage current for instruments registered after install.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace spechd::obs {

class watchdog {
public:
  static constexpr std::size_t k_max_components = 96;
  static constexpr std::size_t k_name_cap = 47;  ///< longer names truncate

  struct config {
    /// Silence past this flags the component as stalled.
    std::chrono::milliseconds deadline{5000};
    /// Once stalled longer than this, abort the process (0 = never kill).
    /// Meant for supervised deployments where a restart beats a wedge.
    std::chrono::milliseconds kill_after{0};
    /// Poll cadence; 0 = deadline/4 clamped to [10ms, 250ms].
    std::chrono::milliseconds poll{0};
  };

  /// Heartbeat handle held by a registered component. Copyable POD-ish
  /// wrapper around the slot pointer; an empty handle ignores pulses.
  class handle {
  public:
    handle() = default;
    /// One CLOCK_MONOTONIC read + one relaxed store.
    void pulse() noexcept;
    /// Component is exiting cleanly: frees the slot (no stall flagged for
    /// a retired component). Idempotent.
    void retire() noexcept;
    bool valid() const noexcept { return slot_ != nullptr; }

  private:
    friend class watchdog;
    explicit handle(void* slot) noexcept : slot_(slot) {}
    void* slot_ = nullptr;
  };

  /// Leaked process-wide singleton: components register regardless of
  /// whether the watchdog thread is running (pulses are just cheap
  /// stores until start() arms the checks).
  static watchdog& instance() noexcept;

  /// Claims a slot (returns an empty handle when the table is full —
  /// pulses then no-op, which fails safe: no false stall reports).
  handle register_component(std::string_view name) noexcept;

  /// Starts the poll thread (idempotent: restarting with a new config
  /// stops the old thread first).
  void start(const config& cfg);
  void stop();
  bool running() const noexcept { return running_.load(std::memory_order_acquire); }

  std::size_t stalled_components() const noexcept {
    return stalled_.load(std::memory_order_relaxed);
  }

  /// Debug/wire view of the live slots.
  struct component_view {
    std::string name;
    bool stalled = false;
    std::uint64_t silent_ms = 0;  ///< since last pulse
  };
  std::vector<component_view> components() const;

  /// Test hook: run one deadline sweep now (also what the poll thread
  /// does each tick). Returns how many components are currently stalled.
  std::size_t check_now();

private:
  watchdog() = default;

  struct slot {
    std::atomic<std::uint8_t> state{0};  ///< 0 free, 1 live
    std::atomic<std::uint8_t> stalled{0};
    std::atomic<std::uint64_t> last_beat_ns{0};
    std::atomic<std::uint64_t> stall_start_ns{0};
    char name[k_name_cap + 1] = {};
  };

  void loop();

  slot slots_[k_max_components];
  std::atomic<std::size_t> stalled_{0};
  std::atomic<bool> running_{false};
  config config_{};
  std::mutex mutex_;  ///< guards start/stop + cv
  std::condition_variable cv_;
  bool stop_requested_ = false;
  std::thread thread_;
};

}  // namespace spechd::obs
