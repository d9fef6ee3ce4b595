// Network serving tier, end-to-end over loopback: the golden guarantee
// (networked ingest/query is bit-identical to driving the
// clustering_service in-process, at shard counts {1, 4}), admission
// control shedding, disconnect/SIGPIPE survival, the malformed-frame
// suite (truncated length, oversized length, bad CRC, slowloris, garbage
// bytes), and stall-timeout behaviour.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "ms/synthetic.hpp"
#include "net/client.hpp"
#include "net/protocol.hpp"
#include "net/server.hpp"
#include "serve/service.hpp"
#include "serve/snapshot.hpp"
#include "util/crc32.hpp"
#include "util/endian.hpp"
#include "util/failpoint.hpp"

namespace spechd::net {
namespace {

std::vector<ms::spectrum> sample_stream(std::size_t peptides = 24,
                                        std::uint64_t seed = 77) {
  ms::synthetic_config config;
  config.peptide_count = peptides;
  config.spectra_per_peptide_mean = 4.0;
  config.noise_peaks_per_spectrum = 20.0;
  config.seed = seed;
  return ms::generate_dataset(config).spectra;
}

serve::serve_config make_serve_config(std::size_t shards) {
  serve::serve_config sc;
  sc.pipeline.encoder.dim = 1024;
  sc.pipeline.threads = 1;
  sc.shards = shards;
  sc.queue_capacity = 4;
  return sc;
}

void ingest_in_batches(serve::clustering_service& service,
                       const std::vector<ms::spectrum>& stream, std::size_t batch = 17) {
  for (std::size_t i = 0; i < stream.size(); i += batch) {
    const auto stop = std::min(i + batch, stream.size());
    service.ingest({stream.begin() + static_cast<std::ptrdiff_t>(i),
                    stream.begin() + static_cast<std::ptrdiff_t>(stop)});
  }
}

// --- raw-socket helpers (for bytes no well-behaved client would send) --------

struct raw_conn {
  int fd = -1;

  explicit raw_conn(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)), 0);
    const timeval tv{5, 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }

  ~raw_conn() {
    if (fd >= 0) ::close(fd);
  }

  void send_all(const std::string& bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n =
          ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
      ASSERT_GT(n, 0);
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Reads until one complete frame decodes (fails the test on EOF/garbage).
  frame_view read_frame(std::string& buffer) {
    char buf[4096];
    for (;;) {
      frame_view frame;
      const auto status = decode_frame(buffer.data(), buffer.size(),
                                       k_default_max_frame_bytes, frame);
      if (status == decode_status::ok) return frame;
      EXPECT_EQ(status, decode_status::need_more);
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) {
        ADD_FAILURE() << "connection closed while waiting for a frame";
        return frame;
      }
      buffer.append(buf, static_cast<std::size_t>(n));
    }
  }

  /// Expects a typed error frame, returns its code.
  error_code read_error(std::string& buffer) {
    const auto frame = read_frame(buffer);
    EXPECT_EQ(frame.type, msg_type::error);
    error_code code{};
    std::string message;
    EXPECT_TRUE(parse_error_response(frame, code, message));
    buffer.erase(0, frame.frame_bytes);
    return code;
  }

  /// Sends a well-formed hello and consumes the hello_ok.
  void handshake(std::string& buffer) {
    std::string hello;
    encode_hello_request(hello, 1);
    send_all(hello);
    const auto frame = read_frame(buffer);
    ASSERT_EQ(frame.type, msg_type::hello_ok);
    buffer.erase(0, frame.frame_bytes);
  }

  /// True when the server has closed its end: clean FIN, or RST when the
  /// server closed with our bytes still unread (reset is how TCP reports
  /// that close). A recv timeout (server still open, nothing sent) is
  /// false.
  bool reads_eof() {
    char buf[64];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) return true;
    return n < 0 && errno != EAGAIN && errno != EWOULDBLOCK;
  }
};

/// Frame with arbitrary payload bytes (valid CRC over whatever is given).
std::string raw_frame(const std::string& payload) {
  std::string out;
  const auto len = static_cast<std::uint32_t>(payload.size());
  const std::uint32_t crc = crc32(payload.data(), payload.size());
  out.append(reinterpret_cast<const char*>(&len), sizeof(len));
  out.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  out += payload;
  return out;
}

// --- golden equivalence ------------------------------------------------------

TEST(NetServer, NetworkedIngestAndQueryMatchInProcessBitIdentically) {
  const auto stream = sample_stream(32, 5);
  const auto queries = sample_stream(8, 99);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));

    // Reference: the service driven in-process.
    serve::clustering_service reference(make_serve_config(shards));
    ingest_in_batches(reference, stream);
    reference.drain();

    // Same batches over the wire. Admission control is off the table
    // here (the shed suite covers it): a huge threshold keeps every
    // batch accepted so the comparison is exact.
    serve::clustering_service served(make_serve_config(shards));
    server_config config;
    config.shed_queue_depth = 1u << 20;
    server srv(served, config);
    client cli("127.0.0.1", srv.port());
    for (std::size_t i = 0; i < stream.size(); i += 17) {
      const auto stop = std::min(i + 17, stream.size());
      const std::vector<ms::spectrum> batch(
          stream.begin() + static_cast<std::ptrdiff_t>(i),
          stream.begin() + static_cast<std::ptrdiff_t>(stop));
      const auto r = cli.ingest(batch);
      ASSERT_TRUE(r.accepted);
      ASSERT_EQ(r.count, batch.size());
    }
    cli.drain();

    EXPECT_EQ(serve::canonical_state(served.export_states()),
              serve::canonical_state(reference.export_states()));

    // Queries answered over the wire are field-exact vs in-process.
    for (const auto& q : queries) {
      const auto local = reference.query(q);
      const auto remote = cli.query(q);
      EXPECT_EQ(remote.encodable, local.encodable);
      EXPECT_EQ(remote.matched, local.matched);
      EXPECT_EQ(remote.bucket_key, local.bucket_key);
      EXPECT_EQ(remote.shard, local.shard);
      EXPECT_EQ(remote.local_label, local.local_label);
      EXPECT_EQ(remote.distance, local.distance);
      EXPECT_EQ(remote.nearest_member, local.nearest_member);
      EXPECT_EQ(remote.cluster_size, local.cluster_size);
    }

    const auto stats = cli.stats();
    EXPECT_EQ(stats.record_count, stream.size());
    EXPECT_EQ(stats.failed_shards, 0u);
  }
}

TEST(NetServer, PipelinedQueriesReturnInOrder) {
  serve::clustering_service service(make_serve_config(2));
  ingest_in_batches(service, sample_stream(16, 3));
  service.drain();
  server srv(service, server_config{});
  client cli("127.0.0.1", srv.port());

  const auto queries = sample_stream(6, 42);
  for (const auto& q : queries) cli.send_query(q);
  for (const auto& q : queries) {
    const auto local = service.query(q);
    const auto remote = cli.read_query_response();
    EXPECT_EQ(remote.matched, local.matched);
    EXPECT_EQ(remote.bucket_key, local.bucket_key);
    EXPECT_EQ(remote.distance, local.distance);
  }
}

// --- admission control -------------------------------------------------------

TEST(NetServer, ShedsIngestWithTypedResponseWhenOverloaded) {
  serve::clustering_service service(make_serve_config(2));
  server_config config;
  config.shed_queue_depth = 0;  // shed every ingest: queues are "full" at 0
  server srv(service, config);
  client cli("127.0.0.1", srv.port());

  const auto stream = sample_stream(4, 9);
  const auto r = cli.ingest(stream);
  EXPECT_FALSE(r.accepted);
  EXPECT_EQ(r.code, error_code::shed_load);
  EXPECT_NE(r.message.find("retry"), std::string::npos);

  // Shedding is per-request, not per-connection: the same connection
  // still answers queries and pings.
  cli.ping();
  const auto q = cli.query(stream.front());
  EXPECT_TRUE(q.encodable);
  EXPECT_EQ(srv.counters().shed, 1u);
  EXPECT_EQ(service.stats().record_count, 0u);
}

// --- disconnects / SIGPIPE ---------------------------------------------------

TEST(NetServer, ClientVanishingMidStreamLeavesServerServing) {
  serve::clustering_service service(make_serve_config(2));
  ingest_in_batches(service, sample_stream(16, 3));
  service.drain();
  server srv(service, server_config{});

  {
    // A client that handshakes, fires queries, and vanishes without ever
    // reading a byte of response: the server must take the EPIPE on that
    // connection (MSG_NOSIGNAL + ignored SIGPIPE), not die.
    client doomed("127.0.0.1", srv.port());
    for (const auto& q : sample_stream(4, 11)) doomed.send_query(q);
    // dtor closes abruptly with responses still queued server-side
  }
  {
    // Another client mid-frame: half a header then gone.
    raw_conn torn(srv.port());
    std::string buffer;
    torn.handshake(buffer);
    torn.send_all(std::string("\x20\x00", 2));
  }

  // The server keeps serving new connections correctly.
  client cli("127.0.0.1", srv.port());
  cli.ping();
  const auto stream = sample_stream(4, 12);
  const auto r = cli.ingest(stream);
  EXPECT_TRUE(r.accepted);
  cli.drain();
  EXPECT_GE(srv.counters().disconnects, 1u);
}

// --- malformed-frame suite ---------------------------------------------------

TEST(NetServer, FirstFrameMustBeHello) {
  serve::clustering_service service(make_serve_config(1));
  server srv(service, server_config{});
  raw_conn conn(srv.port());
  std::string ping;
  encode_ping(ping, 1);
  conn.send_all(ping);
  std::string buffer;
  EXPECT_EQ(conn.read_error(buffer), error_code::bad_handshake);
  EXPECT_TRUE(conn.reads_eof());
}

TEST(NetServer, ForeignEndianHelloRejectedWithTypedError) {
  serve::clustering_service service(make_serve_config(1));
  server srv(service, server_config{});
  raw_conn conn(srv.port());
  // A big-endian peer's hello: marker bytes arrive reversed.
  std::string payload;
  payload.push_back(static_cast<char>(msg_type::hello));
  const std::uint64_t id = 1;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  payload.append(k_hello_magic, sizeof(k_hello_magic));
  const std::uint32_t version = k_protocol_version;
  payload.append(reinterpret_cast<const char*>(&version), sizeof(version));
  const std::uint32_t marker = util::byteswap32(k_endian_marker);
  payload.append(reinterpret_cast<const char*>(&marker), sizeof(marker));
  conn.send_all(raw_frame(payload));
  std::string buffer;
  EXPECT_EQ(conn.read_error(buffer), error_code::foreign_endian);
  EXPECT_TRUE(conn.reads_eof());
}

TEST(NetServer, OversizedDeclaredLengthDrawsTooLargeAndClose) {
  serve::clustering_service service(make_serve_config(1));
  server srv(service, server_config{});
  raw_conn conn(srv.port());
  std::string buffer;
  conn.handshake(buffer);
  std::string bytes;
  const std::uint32_t huge = 1u << 30;  // 1 GiB declared, nothing sent
  bytes.append(reinterpret_cast<const char*>(&huge), sizeof(huge));
  bytes.append("\0\0\0\0", 4);
  conn.send_all(bytes);
  EXPECT_EQ(conn.read_error(buffer), error_code::too_large);
  EXPECT_TRUE(conn.reads_eof());
}

TEST(NetServer, CorruptCrcDrawsBadCrcAndClose) {
  serve::clustering_service service(make_serve_config(1));
  server srv(service, server_config{});
  raw_conn conn(srv.port());
  std::string buffer;
  conn.handshake(buffer);
  std::string ping;
  encode_ping(ping, 2);
  ping[ping.size() - 1] ^= 0x40;
  conn.send_all(ping);
  EXPECT_EQ(conn.read_error(buffer), error_code::bad_crc);
  EXPECT_TRUE(conn.reads_eof());
}

TEST(NetServer, GarbageBytesDrawTypedErrorAndClose) {
  serve::clustering_service service(make_serve_config(1));
  server srv(service, server_config{});
  raw_conn conn(srv.port());
  std::string buffer;
  conn.handshake(buffer);
  // 64 bytes of not-a-frame: whatever the length field decodes to, the
  // outcome must be a typed error + close, never a crash or a hang.
  std::string garbage;
  for (int i = 0; i < 64; ++i) garbage.push_back(static_cast<char>(0xA5 ^ i));
  conn.send_all(garbage);
  const auto code = conn.read_error(buffer);
  EXPECT_TRUE(code == error_code::bad_crc || code == error_code::too_large ||
              code == error_code::malformed)
      << error_code_name(code);
  EXPECT_TRUE(conn.reads_eof());
}

TEST(NetServer, MalformedIngestBodyDrawsMalformedAndClose) {
  serve::clustering_service service(make_serve_config(1));
  server srv(service, server_config{});
  raw_conn conn(srv.port());
  std::string buffer;
  conn.handshake(buffer);
  std::string payload;
  payload.push_back(static_cast<char>(msg_type::ingest));
  const std::uint64_t id = 3;
  payload.append(reinterpret_cast<const char*>(&id), sizeof(id));
  payload += "not a spectrum batch";
  conn.send_all(raw_frame(payload));
  EXPECT_EQ(conn.read_error(buffer), error_code::malformed);
  EXPECT_TRUE(conn.reads_eof());
  EXPECT_GE(srv.counters().protocol_errors, 1u);
}

// --- stalls ------------------------------------------------------------------

TEST(NetServer, SlowlorisPartialHeaderTimesOutButIdleConnectionSurvives) {
  serve::clustering_service service(make_serve_config(1));
  server_config config;
  config.stall_timeout = std::chrono::milliseconds{200};
  server srv(service, config);

  // Idle-but-complete connection: handshaken, nothing pending. It must
  // survive well past the stall timeout (keep-alive).
  client idle("127.0.0.1", srv.port());

  // Slowloris: half a frame header, then silence.
  raw_conn loris(srv.port());
  std::string buffer;
  loris.handshake(buffer);
  loris.send_all(std::string("\x10\x00\x00", 3));

  EXPECT_TRUE(loris.reads_eof());  // reaped by the stall sweep
  idle.ping();                     // still alive and serving
  EXPECT_GE(srv.counters().stalls_closed, 1u);
}

// --- failpoints --------------------------------------------------------------

TEST(NetServer, RecvFailpointCostsOneConnectionOnly) {
  util::registry().reset();
  serve::clustering_service service(make_serve_config(1));
  server srv(service, server_config{});
  util::registry().arm_from_spec("net.recv=error@times1");
  {
    raw_conn doomed(srv.port());
    std::string hello;
    encode_hello_request(hello, 1);
    doomed.send_all(hello);
    EXPECT_TRUE(doomed.reads_eof());
  }
  util::registry().reset();
  client cli("127.0.0.1", srv.port());
  cli.ping();
}

TEST(NetServer, GracefulStopFlushesAndJoins) {
  serve::clustering_service service(make_serve_config(2));
  auto srv = std::make_unique<server>(service, server_config{});
  client cli("127.0.0.1", srv->port());
  const auto r = cli.ingest(sample_stream(4, 21));
  EXPECT_TRUE(r.accepted);
  srv->request_stop();
  srv->wait();
  srv.reset();
  service.drain();
  EXPECT_GT(service.stats().record_count, 0u);
}

// Destroying a stopped server must not write its 8-byte wakeup into a
// descriptor number reused since the loop exited — under `serve --listen`
// that can be a journal or snapshot the shutdown path opens. Every file
// opened after stop() stays empty when the server is destroyed.
TEST(NetServer, DestroyingAStoppedServerWritesIntoNoReusedDescriptor) {
  serve::clustering_service service(make_serve_config(1));
  auto srv = std::make_unique<server>(service, server_config{});
  srv->stop();
  const auto dir = std::filesystem::temp_directory_path() /
                   ("spechd_net_fd_reuse_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  std::vector<std::filesystem::path> paths;
  std::vector<int> fds;
  for (int i = 0; i < 8; ++i) {
    paths.push_back(dir / ("file-" + std::to_string(i)));
    fds.push_back(::open(paths.back().c_str(), O_CREAT | O_TRUNC | O_RDWR | O_CLOEXEC, 0600));
    ASSERT_GE(fds.back(), 0);
  }
  srv.reset();
  for (std::size_t i = 0; i < paths.size(); ++i) {
    EXPECT_EQ(std::filesystem::file_size(paths[i]), 0u)
        << paths[i] << " (fd " << fds[i] << ") took bytes from a destroyed server";
    ::close(fds[i]);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace spechd::net
