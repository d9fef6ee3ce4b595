#include "net/server.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstring>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/watchdog.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"

namespace spechd::net {

namespace {

/// Process-wide telemetry (src/obs). The server also keeps per-instance
/// atomics for server_counters — tests assert exact per-server values, and
/// a process may run several servers — so the registry series aggregate
/// across instances while counters() stays instance-scoped.
obs::counter& net_requests_total() {
  static auto& c = obs::registry::instance().counter("spechd_net_requests_total");
  return c;
}
obs::counter& net_shed_total() {
  static auto& c = obs::registry::instance().counter("spechd_net_shed_total");
  return c;
}
obs::counter& net_protocol_errors_total() {
  static auto& c =
      obs::registry::instance().counter("spechd_net_protocol_errors_total");
  return c;
}

void throw_errno(const std::string& what) {
  throw io_error(what + ": " + std::strerror(errno));
}

/// SIGPIPE would kill the whole process when a peer disconnects between
/// our poll and our send; with it ignored (plus MSG_NOSIGNAL on every
/// send) a vanished client is just an EPIPE errno on one connection.
/// Never overrides a handler the application installed itself.
void ignore_sigpipe_once() {
  static const bool done = [] {
    struct sigaction current {};
    if (::sigaction(SIGPIPE, nullptr, &current) == 0 &&
        current.sa_handler == SIG_DFL) {
      struct sigaction ignore {};
      ignore.sa_handler = SIG_IGN;
      ::sigaction(SIGPIPE, &ignore, nullptr);
    }
    return true;
  }();
  (void)done;
}

in_addr parse_ipv4(const std::string& host) {
  in_addr addr{};
  const std::string resolved = host == "localhost" ? "127.0.0.1" : host;
  if (::inet_pton(AF_INET, resolved.c_str(), &addr) != 1) {
    throw spechd::error("cannot parse listen host '" + host +
                        "' (expected an IPv4 address or 'localhost')");
  }
  return addr;
}

}  // namespace

std::pair<std::string, std::uint16_t> split_host_port(const std::string& listen) {
  const auto colon = listen.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == listen.size()) {
    throw spechd::error("expected HOST:PORT, got '" + listen + "'");
  }
  const std::string host = listen.substr(0, colon);
  const std::string port_str = listen.substr(colon + 1);
  unsigned long port = 0;
  try {
    std::size_t used = 0;
    port = std::stoul(port_str, &used);
    if (used != port_str.size()) throw std::invalid_argument(port_str);
  } catch (const std::exception&) {
    throw spechd::error("cannot parse port '" + port_str + "' in '" + listen + "'");
  }
  if (port > 65535) {
    throw spechd::error("port " + port_str + " out of range in '" + listen + "'");
  }
  return {host, static_cast<std::uint16_t>(port)};
}

server::server(serve::clustering_service& service, server_config config)
    : service_(service),
      config_(std::move(config)),
      shed_threshold_(config_.shed_queue_depth.value_or(
          service.config().shards * service.config().queue_capacity)) {
  ignore_sigpipe_once();
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) throw_errno("cannot create listen socket");
  try {
    const int one = 1;
    ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr = parse_ipv4(config_.host);
    addr.sin_port = htons(config_.port);
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw_errno("cannot bind " + config_.host + ":" + std::to_string(config_.port));
    }
    if (::listen(listen_fd_, 128) != 0) throw_errno("cannot listen");
    socklen_t len = sizeof(addr);
    if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      throw_errno("cannot read bound port");
    }
    port_ = ntohs(addr.sin_port);

    epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
    if (epoll_fd_ < 0) throw_errno("cannot create epoll instance");
    wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (wake_fd_ < 0) throw_errno("cannot create wakeup eventfd");
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) {
      throw_errno("cannot register listen socket");
    }
    ev.data.fd = wake_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) != 0) {
      throw_errno("cannot register wakeup eventfd");
    }
  } catch (...) {
    if (wake_fd_ >= 0) ::close(wake_fd_);
    if (epoll_fd_ >= 0) ::close(epoll_fd_);
    ::close(listen_fd_);
    throw;
  }
  thread_ = std::thread([this] { loop(); });
}

server::~server() {
  stop();
  // Closed only here, after the join: request_stop() may run again until
  // the object dies (stop() is idempotent), and a descriptor closed by the
  // loop could be reused by then, taking the wakeup's 8 bytes.
  ::close(wake_fd_);
}

void server::request_stop() noexcept {
  // Only async-signal-safe operations: one relaxed store + one write(2).
  stop_requested_.store(true, std::memory_order_relaxed);
  const std::uint64_t one = 1;
  [[maybe_unused]] const auto n = ::write(wake_fd_, &one, sizeof(one));
}

void server::wait() {
  std::lock_guard lock(join_mutex_);
  if (!joined_ && thread_.joinable()) {
    thread_.join();
    joined_ = true;
  }
}

void server::stop() {
  request_stop();
  wait();
}

server_counters server::counters() const {
  server_counters c;
  c.accepted = accepted_.load(std::memory_order_relaxed);
  c.open = open_.load(std::memory_order_relaxed);
  c.refused = refused_.load(std::memory_order_relaxed);
  c.requests = requests_.load(std::memory_order_relaxed);
  c.shed = shed_.load(std::memory_order_relaxed);
  c.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  c.disconnects = disconnects_.load(std::memory_order_relaxed);
  c.stalls_closed = stalls_closed_.load(std::memory_order_relaxed);
  return c;
}

void server::loop() {
  // Tick fast enough that stall sweeps stay timely even with no events.
  const auto tick = std::max<std::chrono::milliseconds>(
      std::chrono::milliseconds{10},
      std::min<std::chrono::milliseconds>(config_.stall_timeout / 4,
                                          std::chrono::milliseconds{250}));
  std::vector<epoll_event> events(64);
  auto beat = obs::watchdog::instance().register_component("net/epoll");
  while (!stop_requested_.load(std::memory_order_relaxed)) {
    beat.pulse();
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               static_cast<int>(tick.count()));
    if (n < 0) {
      if (errno == EINTR) continue;
      break;  // epoll itself failed; nothing sane left to do but shut down
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drain = 0;
        [[maybe_unused]] const auto r = ::read(wake_fd_, &drain, sizeof(drain));
        continue;
      }
      if (fd == listen_fd_) {
        accept_ready();
        continue;
      }
      const auto it = connections_.find(fd);
      if (it == connections_.end()) continue;  // closed earlier this batch
      auto& conn = it->second;
      if ((events[i].events & (EPOLLHUP | EPOLLERR)) != 0) {
        disconnects_.fetch_add(1, std::memory_order_relaxed);
        close_connection(fd);
        continue;
      }
      if ((events[i].events & EPOLLOUT) != 0) {
        if (!flush(fd, conn)) {
          close_connection(fd);
          continue;
        }
        update_epoll(fd, conn);
        if (conn.closing && conn.out_pos == conn.outbuf.size()) {
          close_connection(fd);
          continue;
        }
      }
      if ((events[i].events & EPOLLIN) != 0) handle_readable(fd, conn);
    }
    sweep_stalls();
  }
  beat.retire();
  // Shutdown: best-effort flush of pending responses, then close everything.
  for (auto& [fd, conn] : connections_) {
    flush(fd, conn);
    ::close(fd);
  }
  connections_.clear();
  open_.store(0, std::memory_order_relaxed);
  ::close(listen_fd_);
  ::close(epoll_fd_);
  listen_fd_ = epoll_fd_ = -1;
}

void server::accept_ready() {
  static util::failpoint fp_accept("net.accept");
  while (true) {
    const int fd = ::accept4(listen_fd_, nullptr, nullptr,
                             SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      if (errno == EINTR) continue;
      return;  // transient accept failure; epoll will re-report readiness
    }
    if (fp_accept.fire()) {
      // Injected accept failure: the connection is dropped at the door,
      // exactly like a transient ENFILE/EMFILE would.
      ::close(fd);
      refused_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (connections_.size() >= config_.max_connections) {
      ::close(fd);
      refused_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      ::close(fd);
      continue;
    }
    auto& conn = connections_[fd];
    conn.last_progress = std::chrono::steady_clock::now();
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const auto open = open_.fetch_add(1, std::memory_order_relaxed) + 1;
    obs::record_event(obs::event_kind::conn_open, static_cast<std::uint64_t>(fd),
                      open);
  }
}

void server::handle_readable(int fd, connection& conn) {
  static util::failpoint fp_recv("net.recv");
  char buf[64 * 1024];
  while (true) {
    if (fp_recv.fire()) {
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      close_connection(fd);
      return;
    }
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      conn.inbuf.append(buf, static_cast<std::size_t>(n));
      conn.last_progress = std::chrono::steady_clock::now();
      if (static_cast<std::size_t>(n) < sizeof(buf)) break;  // drained
      continue;
    }
    if (n == 0) {  // orderly EOF
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      close_connection(fd);
      return;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    close_connection(fd);
    return;
  }

  // Process every complete frame in arrival order; a partial tail stays
  // buffered (and the stall sweep times it out if it never completes).
  std::size_t consumed = 0;
  while (!conn.closing) {
    // A traced request's clock starts before decode_frame, so its span
    // covers the loop-side CRC check. decode_frame checks the CRC only once
    // the whole frame is buffered: each frame's CRC is counted once.
    const auto start = obs::armed() ? std::chrono::steady_clock::now()
                                    : std::chrono::steady_clock::time_point{};
    frame_view frame;
    const auto status = decode_frame(conn.inbuf.data() + consumed,
                                     conn.inbuf.size() - consumed,
                                     config_.max_frame_bytes, frame);
    if (status == decode_status::need_more) break;
    if (status != decode_status::ok) {
      protocol_errors_.fetch_add(1, std::memory_order_relaxed);
      net_protocol_errors_total().add(1);
      const auto code = status == decode_status::bad_crc    ? error_code::bad_crc
                        : status == decode_status::too_large ? error_code::too_large
                                                             : error_code::malformed;
      send_error(conn, 0, code,
                 std::string("invalid frame (") + error_code_name(code) + ")",
                 /*close_after=*/true);
      break;
    }
    consumed += frame.frame_bytes;
    process_frame(fd, conn, frame, start);
  }
  conn.inbuf.erase(0, consumed);

  if (!flush(fd, conn)) {
    close_connection(fd);
    return;
  }
  update_epoll(fd, conn);
  if (conn.closing && conn.out_pos == conn.outbuf.size()) close_connection(fd);
}

void server::process_frame(int fd, connection& conn, const frame_view& frame,
                           std::chrono::steady_clock::time_point start) {
  (void)fd;
  requests_.fetch_add(1, std::memory_order_relaxed);
  net_requests_total().add(1);
  if (!conn.handshaken) {
    if (frame.type != msg_type::hello) {
      send_error(conn, frame.request_id, error_code::bad_handshake,
                 "first frame must be a hello", /*close_after=*/true);
      return;
    }
    switch (parse_hello_request(frame)) {
      case hello_status::ok:
        conn.handshaken = true;
        encode_hello_response(conn.outbuf, frame.request_id);
        return;
      case hello_status::bad_version:
        send_error(conn, frame.request_id, error_code::bad_version,
                   "unsupported protocol version (server speaks " +
                       std::to_string(k_protocol_version) + ")",
                   /*close_after=*/true);
        return;
      case hello_status::foreign_endian:
        send_error(conn, frame.request_id, error_code::foreign_endian,
                   "client is big-endian; the spechd wire format is little-endian",
                   /*close_after=*/true);
        return;
      case hello_status::bad_magic:
      case hello_status::malformed:
        send_error(conn, frame.request_id, error_code::malformed,
                   "malformed hello", /*close_after=*/true);
        return;
    }
    return;
  }

  // Per-request tracing: traced kinds get an ambient request_trace (the
  // stage spans the dispatch runs on *this* thread append to it), an
  // end-to-end histogram sample, and a slow-ring offer. Stages that hop to
  // shard writer threads record into their histograms only.
  static auto& ingest_req_ns =
      obs::registry::instance().histogram("spechd_net_ingest_request_ns");
  static auto& query_req_ns =
      obs::registry::instance().histogram("spechd_net_query_request_ns");
  static auto& search_req_ns =
      obs::registry::instance().histogram("spechd_net_search_request_ns");
  const char* kind = nullptr;
  obs::histogram* total_hist = nullptr;
  switch (frame.type) {
    case msg_type::ingest: kind = "ingest"; total_hist = &ingest_req_ns; break;
    case msg_type::query: kind = "query"; total_hist = &query_req_ns; break;
    case msg_type::query_topk: kind = "search"; total_hist = &search_req_ns; break;
    default: break;
  }
  if (kind == nullptr || start == std::chrono::steady_clock::time_point{}) {
    dispatch_frame(conn, frame);
    return;
  }
  obs::request_trace trace;
  obs::trace_scope scope(trace);
  dispatch_frame(conn, frame);
  const auto total_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  total_hist->record(total_ns);
  obs::slow_ring::instance().offer(kind, total_ns, trace);
}

void server::dispatch_frame(connection& conn, const frame_view& frame) {
  try {
    switch (frame.type) {
      case msg_type::ping:
        encode_pong(conn.outbuf, frame.request_id);
        return;
      case msg_type::ingest:
        handle_ingest(conn, frame);
        return;
      case msg_type::query: {
        static auto& parse_ns =
            obs::registry::instance().histogram("spechd_net_parse_ns");
        obs::trace_span parse_span(parse_ns, obs::stage::net_parse);
        ms::spectrum spectrum;
        if (!parse_query_request(frame, spectrum)) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          net_protocol_errors_total().add(1);
          send_error(conn, frame.request_id, error_code::malformed,
                     "malformed query body", /*close_after=*/true);
          return;
        }
        parse_span.finish();
        encode_query_response(conn.outbuf, frame.request_id, service_.query(spectrum));
        return;
      }
      case msg_type::query_topk: {
        static auto& parse_ns =
            obs::registry::instance().histogram("spechd_net_parse_ns");
        obs::trace_span parse_span(parse_ns, obs::stage::net_parse);
        ms::spectrum spectrum;
        std::uint32_t top_k = 0;
        double tolerance_da = 0.0;
        if (!parse_search_request(frame, spectrum, top_k, tolerance_da)) {
          protocol_errors_.fetch_add(1, std::memory_order_relaxed);
          net_protocol_errors_total().add(1);
          send_error(conn, frame.request_id, error_code::malformed,
                     "malformed query_topk body", /*close_after=*/true);
          return;
        }
        parse_span.finish();
        // service_.search throws spechd::error when no library is loaded —
        // mapped to a typed `rejected` response by the catch below.
        encode_search_response(conn.outbuf, frame.request_id,
                               service_.search(spectrum, top_k, tolerance_da));
        return;
      }
      case msg_type::get_metrics: {
        // Snapshot + ring dump; neither blocks recording threads.
        wire_metrics metrics;
        metrics.snapshot = obs::registry::instance().snapshot();
        metrics.slow = obs::slow_ring::instance().dump();
        encode_metrics_response(conn.outbuf, frame.request_id, metrics);
        return;
      }
      case msg_type::get_debug_dump: {
        // The live twin of a `.sphcrash` dump: flight-recorder tail,
        // per-shard status table, and any currently stalled components.
        wire_debug_dump dump;
        dump.total_events_recorded = obs::flight_recorder::instance().total_recorded();
        dump.events = obs::flight_recorder::instance().snapshot();
        const auto shard_count = obs::status_shard_count();
        dump.shards.reserve(shard_count);
        for (std::size_t s = 0; s < shard_count; ++s) {
          const auto& status = obs::status_shard(s);
          wire_shard_status row;
          row.shard = static_cast<std::uint32_t>(s);
          row.health = status.health.load(std::memory_order_relaxed);
          row.generation = status.generation.load(std::memory_order_relaxed);
          row.journal_bytes = status.journal_bytes.load(std::memory_order_relaxed);
          row.journal_records = status.journal_records.load(std::memory_order_relaxed);
          row.queue_depth = status.queue_depth.load(std::memory_order_relaxed);
          dump.shards.push_back(row);
        }
        for (const auto& c : obs::watchdog::instance().components()) {
          if (c.stalled) dump.stalled.push_back(c.name);
        }
        encode_debug_dump_response(conn.outbuf, frame.request_id, dump);
        return;
      }
      case msg_type::stats: {
        const auto stats = service_.stats();
        wire_stats wire;
        wire.ingested = stats.ingested;
        wire.dropped = stats.dropped;
        wire.batches = stats.batches;
        wire.record_count = stats.record_count;
        wire.cluster_count = stats.cluster_count;
        wire.queue_depth = stats.queue_depth;
        wire.degraded_shards = stats.degraded_shards;
        wire.failed_shards = stats.failed_shards;
        wire.requests = requests_.load(std::memory_order_relaxed);
        wire.shed = shed_.load(std::memory_order_relaxed);
        encode_stats_response(conn.outbuf, frame.request_id, wire);
        return;
      }
      case msg_type::drain:
        service_.drain();
        encode_drain_response(conn.outbuf, frame.request_id);
        return;
      default:
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        net_protocol_errors_total().add(1);
        send_error(conn, frame.request_id, error_code::malformed,
                   std::string("unexpected message type ") + msg_type_name(frame.type),
                   /*close_after=*/true);
        return;
    }
  } catch (const spechd::error& e) {
    // A refusal from the service (degraded shard, drain rethrowing an
    // ingest error, ...) is the client's problem, not the connection's.
    send_error(conn, frame.request_id, error_code::rejected, e.what(),
               /*close_after=*/false);
  } catch (const std::exception& e) {
    send_error(conn, frame.request_id, error_code::server_error, e.what(),
               /*close_after=*/false);
  }
}

void server::handle_ingest(connection& conn, const frame_view& frame) {
  // Admission control *before* parsing the batch: once the aggregate
  // queue depth reaches the shed threshold, a further ingest would make
  // the event loop block in a full shard queue — refuse it with a typed
  // response instead, keeping in-flight work bounded and the loop live.
  static auto& admission_ns =
      obs::registry::instance().histogram("spechd_ingest_admission_ns");
  obs::trace_span admission_span(admission_ns, obs::stage::admission);
  const auto depth = service_.queue_depth();
  const bool shed = depth >= shed_threshold_;
  admission_span.finish();
  if (shed) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    net_shed_total().add(1);
    obs::record_event(obs::event_kind::shed_decision, depth, shed_threshold_,
                      frame.request_id);
    send_error(conn, frame.request_id, error_code::shed_load,
               "service overloaded (queue depth at shed threshold " +
                   std::to_string(shed_threshold_) + "); retry with backoff",
               /*close_after=*/false);
    return;
  }
  static auto& parse_ns = obs::registry::instance().histogram("spechd_net_parse_ns");
  obs::trace_span parse_span(parse_ns, obs::stage::net_parse);
  std::vector<ms::spectrum> batch;
  if (!parse_ingest_request(frame, batch)) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    net_protocol_errors_total().add(1);
    send_error(conn, frame.request_id, error_code::malformed,
               "malformed ingest body", /*close_after=*/true);
    return;
  }
  parse_span.finish();
  const auto count = static_cast<std::uint64_t>(batch.size());
  service_.ingest(std::move(batch));  // throws spechd::error on rejection
  encode_ingest_response(conn.outbuf, frame.request_id, count);
}

void server::send_error(connection& conn, std::uint64_t request_id, error_code code,
                        const std::string& message, bool close_after) {
  encode_error_response(conn.outbuf, request_id, code, message);
  if (close_after) conn.closing = true;
}

bool server::flush(int fd, connection& conn) {
  static util::failpoint fp_send("net.send");
  while (conn.out_pos < conn.outbuf.size()) {
    if (fp_send.fire()) {
      disconnects_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const ssize_t n = ::send(fd, conn.outbuf.data() + conn.out_pos,
                             conn.outbuf.size() - conn.out_pos, MSG_NOSIGNAL);
    if (n > 0) {
      conn.out_pos += static_cast<std::size_t>(n);
      conn.last_progress = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EPIPE/ECONNRESET: the peer vanished mid-response. MSG_NOSIGNAL (plus
    // the ignored SIGPIPE) makes this an errno on *this* connection only.
    disconnects_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (conn.out_pos == conn.outbuf.size()) {
    conn.outbuf.clear();
    conn.out_pos = 0;
  } else if (conn.outbuf.size() - conn.out_pos > config_.max_outbound_bytes) {
    // Slow reader: responses are piling up faster than the peer drains
    // them. Closing bounds the server-side memory a client can pin.
    stalls_closed_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  return true;
}

void server::update_epoll(int fd, connection& conn) {
  const bool want_write = conn.out_pos < conn.outbuf.size();
  if (want_write == conn.want_write) return;
  conn.want_write = want_write;
  epoll_event ev{};
  ev.events = EPOLLIN | (want_write ? EPOLLOUT : 0U);
  ev.data.fd = fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
}

void server::close_connection(int fd) {
  const auto it = connections_.find(fd);
  if (it == connections_.end()) return;
  connections_.erase(it);
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  const auto open = open_.fetch_sub(1, std::memory_order_relaxed) - 1;
  obs::record_event(obs::event_kind::conn_close, static_cast<std::uint64_t>(fd),
                    open);
}

void server::sweep_stalls() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<std::pair<int, std::uint64_t>> stalled;  // fd, idle ms
  for (const auto& [fd, conn] : connections_) {
    const bool mid_frame = !conn.inbuf.empty();       // partial frame buffered
    const bool pending = conn.out_pos < conn.outbuf.size();
    if ((mid_frame || pending) && now - conn.last_progress > config_.stall_timeout) {
      const auto idle_ms = static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              now - conn.last_progress)
              .count());
      stalled.emplace_back(fd, idle_ms);
    }
  }
  for (const auto& [fd, idle_ms] : stalled) {
    stalls_closed_.fetch_add(1, std::memory_order_relaxed);
    obs::record_event(obs::event_kind::conn_reap, static_cast<std::uint64_t>(fd),
                      idle_ms);
    close_connection(fd);
  }
}

}  // namespace spechd::net
