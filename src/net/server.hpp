// Network front end of the serving tier: an epoll event-loop server that
// speaks the framed binary protocol (net/protocol.hpp) over TCP and
// drives a clustering_service.
//
//   clients ──frames──▶ epoll loop ──▶ clustering_service ingest/query
//                          │                │
//                          │     per-shard MPSC queues (backpressure)
//                          ▼
//               admission control: aggregate queue depth past the shed
//               threshold ⇒ typed `shed_load` error response — bounded
//               in-flight work, never an unbounded server-side queue
//
// One loop thread owns every connection; frames are processed inline in
// arrival order, so per-connection request order equals service apply
// order — which is what makes networked ingest bit-identical to calling
// the service in-process (the golden test pins this).
//
// Failure posture:
//  - A malformed / bad-CRC / oversized frame gets a typed error response,
//    then the connection closes. The server never crashes on input bytes.
//  - A client that stalls mid-frame (slowloris) or stops reading its
//    responses is closed after `stall_timeout`; idle connections *between*
//    frames are left alone (keep-alive).
//  - A client disconnecting mid-response costs exactly that connection:
//    sends use MSG_NOSIGNAL and the constructor ignores SIGPIPE
//    process-wide, so EPIPE is an errno, never a fatal signal.
//  - `net.accept` / `net.recv` / `net.send` failpoints inject socket
//    errors for the fault-torture idiom.
//
// Shutdown: `request_stop()` is async-signal-safe (one eventfd write) so
// a SIGTERM handler can call it directly; the loop then flushes, closes
// every connection, and exits — `wait()` joins it. The service itself
// (journal drain, etc.) is the caller's to wind down afterwards.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>

#include "net/protocol.hpp"
#include "serve/service.hpp"

namespace spechd::net {

/// Splits "HOST:PORT" (e.g. "127.0.0.1:7070", "0.0.0.0:0"); throws
/// spechd::error on a missing/unparsable port.
std::pair<std::string, std::uint16_t> split_host_port(const std::string& listen);

struct server_config {
  /// IPv4 dotted-quad or "localhost"; port 0 binds an ephemeral port
  /// (read it back with port()).
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  /// Accepted connections beyond this are closed immediately.
  std::size_t max_connections = 256;
  /// Per-frame payload cap; a declared length above it draws a typed
  /// `too_large` error and a close — never an allocation.
  std::size_t max_frame_bytes = k_default_max_frame_bytes;
  /// A connection sitting mid-frame (slowloris) or with unread responses
  /// pending for longer than this is closed. Purely idle connections
  /// (no partial frame, nothing to send) are never reaped.
  std::chrono::milliseconds stall_timeout{5000};
  /// Outbound bytes buffered for one connection before it is declared a
  /// slow reader and closed.
  std::size_t max_outbound_bytes = 64ULL << 20;
  /// Admission control: refuse ingest with `shed_load` while the
  /// service's aggregate queue depth is at or above this. Defaults
  /// (nullopt) to shards × queue_capacity — the point where producers
  /// would start blocking the event loop. 0 sheds every ingest (tests).
  std::optional<std::size_t> shed_queue_depth;
};

/// Monotonic counters (readable from any thread).
struct server_counters {
  std::uint64_t accepted = 0;         ///< connections accepted
  std::uint64_t open = 0;             ///< currently open connections
  std::uint64_t refused = 0;          ///< accepts refused (max_connections)
  std::uint64_t requests = 0;         ///< frames processed
  std::uint64_t shed = 0;             ///< ingests refused by admission control
  std::uint64_t protocol_errors = 0;  ///< malformed/bad-CRC/oversized frames
  std::uint64_t disconnects = 0;      ///< peers that vanished (EOF/EPIPE/reset)
  std::uint64_t stalls_closed = 0;    ///< slowloris / slow-reader closes
};

class server {
public:
  /// Binds + listens and starts the loop thread; throws io_error when the
  /// address cannot be bound. `service` must outlive the server.
  server(serve::clustering_service& service, server_config config);
  ~server();

  server(const server&) = delete;
  server& operator=(const server&) = delete;

  /// The bound port (resolves port 0).
  std::uint16_t port() const noexcept { return port_; }

  /// Signals the loop to shut down. Async-signal-safe (one write(2) to an
  /// eventfd) — callable from a SIGTERM/SIGINT handler.
  void request_stop() noexcept;

  /// Joins the loop thread (after request_stop, or on its own exit).
  void wait();

  /// request_stop() + wait(). Idempotent.
  void stop();

  server_counters counters() const;

private:
  struct connection {
    std::string inbuf;
    std::string outbuf;
    std::size_t out_pos = 0;
    bool handshaken = false;
    bool closing = false;  ///< close once outbuf drains (post-error)
    bool want_write = false;
    std::chrono::steady_clock::time_point last_progress;
  };

  void loop();
  void accept_ready();
  void handle_readable(int fd, connection& conn);
  /// `start` is when the loop began decoding the frame, or the default
  /// time point when tracing is disarmed (the request is then not timed).
  void process_frame(int fd, connection& conn, const frame_view& frame,
                     std::chrono::steady_clock::time_point start);
  /// Post-handshake request dispatch (the body of process_frame, split out
  /// so the per-request trace/timing wrapper stays readable).
  void dispatch_frame(connection& conn, const frame_view& frame);
  void handle_ingest(connection& conn, const frame_view& frame);
  void send_error(connection& conn, std::uint64_t request_id, error_code code,
                  const std::string& message, bool close_after);
  /// Writes as much of conn.outbuf as the socket takes; returns false when
  /// the connection must be closed (peer gone, send error, buffer cap).
  bool flush(int fd, connection& conn);
  void update_epoll(int fd, connection& conn);
  void close_connection(int fd);
  void sweep_stalls();

  serve::clustering_service& service_;
  server_config config_;
  std::size_t shed_threshold_;
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< closed by ~server() after the join, never by the loop
  std::uint16_t port_ = 0;
  std::unordered_map<int, connection> connections_;
  std::atomic<bool> stop_requested_{false};
  bool joined_ = false;
  std::mutex join_mutex_;

  std::atomic<std::uint64_t> accepted_{0};
  std::atomic<std::uint64_t> open_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> protocol_errors_{0};
  std::atomic<std::uint64_t> disconnects_{0};
  std::atomic<std::uint64_t> stalls_closed_{0};

  std::thread thread_;  ///< last member: starts after everything above
};

}  // namespace spechd::net
