#include "serve/journal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <charconv>
#include <filesystem>

#include "ms/spectrum_wire.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/crc32.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/io.hpp"

namespace spechd::serve {

namespace {

/// The file header frame: magic "SPJL", u32 version, u32 payload length,
/// payload, u32 CRC-32(payload). v2 added the cross-shard transaction
/// fields (txn_id/participants on ingest-batch records, the commit record
/// kind); journals are regenerated by compaction, so no v1 reader remains.
/// The header payload is a handful of fixed-width fields: anything
/// claiming more than 4096 bytes is corrupt.
constexpr ms::file_format k_header{
    {'S', 'P', 'J', 'L'}, 2, "journal", ".sphjrnl", /*short_length=*/true, 4096};
/// Enough leading bytes to hold any header frame (16 bytes of magic,
/// version, length and CRC around the payload).
constexpr std::size_t k_max_header_frame = 16 + k_header.max_payload;
/// Sanity bound mirroring the snapshot reader: a corrupted length field
/// must not drive a huge allocation before the CRC would catch it. One
/// record is one ingest batch; 1 GiB is far beyond any real batch (and
/// must be below UINT32_MAX for the comparison to be able to fire).
constexpr std::uint32_t k_max_record_payload = 1U << 30;

using cursor = ms::byte_cursor;

/// The header payload: shard_index, shard_count, generation, identity.
template <typename V, typename H>
bool header_fields(V& v, H& header) {
  return v(header.shard_index, header.shard_count, header.generation, header.identity);
}

ms::frame_result read_header(cursor& in, journal_file_header& header) {
  return ms::read_file_frame(in, k_header, [&](auto& v) { return header_fields(v, header); });
}

/// Reads the header off the first bytes of `path`; nullopt when the file
/// cannot be read.
std::optional<ms::frame_result> read_header_file(const std::string& path,
                                                 journal_file_header& header) {
  const auto bytes = util::read_file(path, k_max_header_frame);
  if (!bytes) return std::nullopt;
  cursor in{bytes->data(), bytes->size()};
  return read_header(in, header);
}

/// A record's payload layout, one field list for the writer and the
/// scanner. The batch is passed apart from the record so the writer can
/// frame a caller's batch without copying it. An unknown kind fails the
/// read, which the scanner treats exactly like a CRC failure.
template <typename V, typename R, typename B>
bool record_fields(V& v, R& record, B& batch) {
  if (!v(ms::as<std::uint8_t>(record.type), record.seq)) return false;
  switch (record.type) {
    case journal_record::kind::ingest_batch:
      return v(record.txn_id, record.participants, ms::counted<std::uint64_t>(batch));
    case journal_record::kind::recluster:
      return true;
    case journal_record::kind::commit:
      return v(record.txn_id);
  }
  return false;
}

/// Serialises one record into `frame`, a caller-owned buffer reused
/// across records (grow-only capacity, no per-record allocation).
void frame_record(journal_record::kind type, std::uint64_t seq, std::uint64_t txn_id,
                  std::uint32_t participants, const std::vector<ms::spectrum>& batch,
                  std::string& frame) {
  const journal_record record{type, seq, txn_id, participants, {}};
  frame.clear();
  ms::append_crc_frame(frame, [&](auto& v) { return record_fields(v, record, batch); });
}

/// Parses `name` as `<prefix><number><suffix>`; nullopt when it doesn't
/// match exactly.
std::optional<std::uint64_t> parse_numbered(const std::string& name,
                                            const std::string& prefix,
                                            const std::string& suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  std::uint64_t value = 0;
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last) return std::nullopt;
  return value;
}

}  // namespace

journal_scan read_journal_file(const std::string& path) {
  // Recovery-side injection point: an unreadable journal during replay
  // must surface as a clean io_error, never a half-replayed state.
  static util::failpoint fp_open("journal.read.open");
  if (auto action = fp_open.fire()) {
    throw util::io_failure(util::io_op::open, path, action->error_code);
  }
  const auto bytes = util::read_file(path);
  if (!bytes) throw io_error("cannot open journal file: " + path);
  cursor c{bytes->data(), bytes->size()};
  journal_scan scan;
  // A journal with a bad header is unusable, unlike a torn record tail.
  if (const auto header = read_header(c, scan.header); header.status != ms::frame_status::ok) {
    throw parse_error(path, 0, header.why);
  }
  scan.valid_bytes = c.pos;

  while (c.pos < c.size) {
    cursor frame = c;
    std::uint32_t payload_bytes = 0;
    std::uint32_t stored_crc = 0;
    if (!frame.read(payload_bytes) || !frame.read(stored_crc) ||
        payload_bytes > k_max_record_payload ||
        frame.size - frame.pos < payload_bytes) {
      scan.torn = true;  // truncated frame: the tail past valid_bytes is dropped
      break;
    }
    const char* payload = frame.data + frame.pos;
    if (crc32(payload, payload_bytes) != stored_crc) {
      scan.torn = true;
      break;
    }
    journal_record record;
    ms::wire_reader reader{{payload, payload_bytes}};
    if (!record_fields(reader, record, record.batch) || !reader.done()) {
      scan.torn = true;  // CRC-valid but inconsistent: stop exactly like a CRC failure
      break;
    }
    // The writer increments seq by exactly 1 per append, so anything but
    // contiguous numbering inside a file means lost or reordered records.
    if (!scan.records.empty() && record.seq != scan.records.back().seq + 1) {
      throw parse_error(path, 0,
                        "journal records out of sequence (seq " +
                            std::to_string(record.seq) + " after " +
                            std::to_string(scan.records.back().seq) + ")");
    }
    scan.records.push_back(std::move(record));
    c.pos = frame.pos + payload_bytes;
    scan.valid_bytes = c.pos;
  }
  return scan;
}

journal_header_status probe_journal_header(const std::string& path) {
  journal_file_header header;
  const auto result = read_header_file(path, header);
  return result ? result->status : journal_header_status::corrupt;
}

journal_file_header read_journal_header_file(const std::string& path) {
  journal_file_header header;
  const auto result = read_header_file(path, header);
  if (!result) throw io_error("cannot open journal file: " + path);
  if (result->status != ms::frame_status::ok) throw parse_error(path, 0, result->why);
  return header;
}

std::string journal_snapshot_path(const std::string& dir, std::uint64_t generation) {
  return (std::filesystem::path(dir) /
          ("base-" + std::to_string(generation) + ".sphsnap")).string();
}

std::string journal_shard_path(const std::string& dir, std::size_t shard,
                               std::uint64_t generation) {
  return (std::filesystem::path(dir) /
          ("shard-" + std::to_string(shard) + "-" + std::to_string(generation) +
           ".sphjrnl")).string();
}

journal_dir_state scan_journal_dir(const std::string& dir) {
  journal_dir_state state;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (!entry.is_regular_file()) continue;
    const std::string name = entry.path().filename().string();
    if (const auto gen = parse_numbered(name, "base-", ".sphsnap")) {
      if (!state.snapshot_generation || *gen > *state.snapshot_generation) {
        state.snapshot_generation = *gen;
      }
      state.snapshots.push_back(*gen);
      state.max_generation = std::max(state.max_generation, *gen);
      continue;
    }
    // shard-<s>-<gen>.sphjrnl: the shard index runs to the second '-'.
    if (name.rfind("shard-", 0) == 0) {
      const auto dash = name.find('-', 6);
      if (dash == std::string::npos) continue;
      std::uint64_t shard_idx = 0;
      const char* first = name.data() + 6;
      const char* last = name.data() + dash;
      const auto [ptr, parse_ec] = std::from_chars(first, last, shard_idx);
      if (parse_ec != std::errc{} || ptr != last) continue;
      if (const auto gen = parse_numbered(name.substr(dash + 1), "", ".sphjrnl")) {
        state.journals.push_back({static_cast<std::size_t>(shard_idx), *gen});
        state.max_generation = std::max(state.max_generation, *gen);
      }
    }
  }
  return state;
}

void remove_stale_generations(const std::string& dir, std::uint64_t keep_from) {
  const auto state = scan_journal_dir(dir);  // one shared filename parser
  std::error_code ec;
  for (const auto gen : state.snapshots) {
    if (gen < keep_from) std::filesystem::remove(journal_snapshot_path(dir, gen), ec);
  }
  for (const auto& entry : state.journals) {
    if (entry.generation < keep_from) {
      std::filesystem::remove(journal_shard_path(dir, entry.shard, entry.generation), ec);
    }
  }
}

journal_writer::journal_writer(const journal_head& head,
                               const journal_file_header& header,
                               const journal_config& config)
    : config_(config) {
  open(head, header);
}

journal_writer::~journal_writer() { close(); }

void journal_writer::open(const journal_head& head, const journal_file_header& header) {
  if (fd_ >= 0) {  // e.g. a failed rotation re-opening over a half-opened file
    ::close(fd_);
    fd_ = -1;
  }
  path_ = head.path;
  next_seq_ = head.next_seq;
  unsynced_records_ = 0;
  failed_ = false;  // a fresh/rotated file starts clean
  last_sync_ = std::chrono::steady_clock::now();
  generation_.store(header.generation, std::memory_order_relaxed);
  records_.store(head.records, std::memory_order_relaxed);

  static util::failpoint fp_open("journal.open");
  static util::failpoint fp_header("journal.header.write");
  static util::failpoint fp_fsync("journal.fsync");
  if (head.exists) {
    // Continue an existing journal: drop any torn tail first, then append.
    std::error_code ec;
    const auto current = std::filesystem::file_size(path_, ec);
    if (!ec && current > head.valid_bytes) {
      std::filesystem::resize_file(path_, head.valid_bytes, ec);
      if (ec) throw io_error("cannot truncate torn journal tail: " + path_);
    }
    fd_ = util::open_fd(path_, O_WRONLY | O_APPEND | O_CLOEXEC, 0644, fp_open);
    bytes_.store(head.valid_bytes, std::memory_order_relaxed);
  } else {
    fd_ = util::open_fd(path_, O_WRONLY | O_CREAT | O_EXCL | O_APPEND | O_CLOEXEC, 0644,
                        fp_open);
    std::string bytes;
    ms::append_file_frame(bytes, k_header, [&](auto& v) { return header_fields(v, header); });
    try {
      util::write_all(fd_, bytes.data(), bytes.size(), path_, fp_header);
      if (config_.fsync) util::fsync_fd(fd_, path_, fp_fsync);
    } catch (...) {
      // The caller sees the throw; don't leak the fd with it. The file may
      // hold a partial header — recovery classifies that as `truncated`
      // (provably record-free) and recreates it.
      ::close(fd_);
      fd_ = -1;
      throw;
    }
    bytes_.store(bytes.size(), std::memory_order_relaxed);
  }
}

void journal_writer::close() {
  if (fd_ >= 0) {
    if (config_.fsync && unsynced_records_ > 0) ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
}

void journal_writer::append_frame(const std::string& frame) {
  if (failed_) {
    throw io_error("journal " + path_ +
                   " is poisoned by an earlier partial write; refusing to append");
  }
  // The append span covers the frame write *and* any group-commit fsync it
  // triggers (the fsync also has its own histogram, so the sync share of
  // an append is the difference between the two).
  static auto& append_ns =
      obs::registry::instance().histogram("spechd_journal_append_ns");
  static auto& appends =
      obs::registry::instance().counter("spechd_journal_appends_total");
  appends.add(1);
  obs::trace_span append_span(append_ns, obs::stage::journal_append);
  // write_all loops on short writes and EINTR (a partial write(2) return
  // is a retry, never framing corruption) and retries transient errors
  // with bounded backoff; only a permanent failure reaches the catch.
  static util::failpoint fp_write("journal.append.write");
  static util::failpoint fp_truncate("journal.rollback.truncate");
  try {
    util::write_all(fd_, frame.data(), frame.size(), path_, fp_write);
  } catch (const util::io_failure& e) {
    // A partial frame on disk would make every *later* record unreachable
    // at recovery (the scanner stops at the first bad frame). Roll the
    // file back to the last good offset; if even that fails, poison the
    // writer so no batch is applied-but-unjournaled after the garbage.
    if (e.bytes_completed() > 0) {
      try {
        util::truncate_fd(fd_, bytes_.load(std::memory_order_relaxed), path_,
                          fp_truncate);
      } catch (const util::io_failure&) {
        failed_ = true;
        throw io_error("cannot append to journal (partial frame could not be rolled "
                       "back) '" + path_ + "': " + e.what());
      }
    }
    throw;
  }
  bytes_.fetch_add(frame.size(), std::memory_order_relaxed);
  records_.fetch_add(1, std::memory_order_relaxed);
  ++next_seq_;
  ++unsynced_records_;
  // Group commit: a hot writer pays one fsync per `group_commit_records`
  // appends or per `group_commit_interval` of wall time, whichever comes
  // first — never one per batch.
  const bool threshold = unsynced_records_ >= config_.group_commit_records;
  const bool timed =
      std::chrono::steady_clock::now() - last_sync_ >= config_.group_commit_interval;
  if (threshold || timed) sync();
}

void journal_writer::append_batch(const std::vector<ms::spectrum>& batch,
                                  std::uint64_t txn_id, std::uint32_t participants) {
  frame_record(journal_record::kind::ingest_batch, next_seq_, txn_id, participants, batch,
               scratch_);
  append_frame(scratch_);
}

void journal_writer::append_recluster() {
  frame_record(journal_record::kind::recluster, next_seq_, 0, 0, {}, scratch_);
  append_frame(scratch_);
}

void journal_writer::append_commit(std::uint64_t txn_id) {
  frame_record(journal_record::kind::commit, next_seq_, txn_id, 0, {}, scratch_);
  append_frame(scratch_);
}

void journal_writer::rollback_to(std::uint64_t bytes_before) {
  const auto current = bytes_.load(std::memory_order_relaxed);
  SPECHD_EXPECTS(current >= bytes_before);
  // Nothing landed past the mark and the file is clean (a failing append
  // already rolled its partial frame back): nothing to do.
  if (current == bytes_before && !failed_) return;
  static util::failpoint fp_truncate("journal.rollback.truncate");
  try {
    util::truncate_fd(fd_, bytes_before, path_, fp_truncate);
  } catch (const util::io_failure& e) {
    failed_ = true;  // the orphaned bytes cannot be removed: stop appending
    throw io_error("cannot roll back journal record: " + std::string(e.what()));
  }
  if (current > bytes_before) {
    // Exactly one complete record lies past the mark (counters only
    // advance once a frame is fully written, and the caller rolls back
    // immediately after its single append).
    records_.fetch_sub(1, std::memory_order_relaxed);
    --next_seq_;
    if (unsynced_records_ > 0) --unsynced_records_;
  }
  bytes_.store(bytes_before, std::memory_order_relaxed);
  failed_ = false;
  // Make the removal as durable as the record may already be: if the
  // append's group commit fsynced the frame before the failure, an
  // un-synced truncation could resurrect it after power loss.
  if (config_.fsync) {
    static util::failpoint fp_fsync("journal.fsync");
    try {
      util::fsync_fd(fd_, path_, fp_fsync);
    } catch (const util::io_failure& e) {
      failed_ = true;
      throw io_error("cannot fsync journal rollback: " + std::string(e.what()));
    }
  }
}

void journal_writer::sync() {
  if (unsynced_records_ == 0) return;
  if (config_.fsync) {
    static util::failpoint fp_fsync("journal.fsync");
    static auto& fsync_ns =
        obs::registry::instance().histogram("spechd_journal_fsync_ns");
    static auto& fsyncs =
        obs::registry::instance().counter("spechd_journal_fsyncs_total");
    obs::trace_span fsync_span(fsync_ns, obs::stage::journal_fsync);
    util::fsync_fd(fd_, path_, fp_fsync);
    fsyncs.add(1);
    obs::record_event(obs::event_kind::journal_fsync, unsynced_records_,
                      generation_.load(std::memory_order_relaxed));
  }
  unsynced_records_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
}

void journal_writer::rotate(const journal_head& head, const journal_file_header& header) {
  sync();
  journal_head fallback;
  fallback.path = path_;
  fallback.generation = generation_.load(std::memory_order_relaxed);
  fallback.exists = true;
  fallback.valid_bytes = bytes_.load(std::memory_order_relaxed);
  fallback.records = records_.load(std::memory_order_relaxed);
  const auto seq = next_seq_;
  close();
  try {
    open(head, header);
  } catch (...) {
    // Creating the next generation failed (ENOSPC, EEXIST from a prior
    // half-failed compaction, ...): reopen the old file and keep
    // appending to the old generation, so the shard never journals into
    // the void. The caller (compaction) sees the original error and
    // retries later with a fresh generation number.
    try {
      auto old_header = header;
      old_header.generation = fallback.generation;
      fallback.next_seq = seq;
      open(fallback, old_header);
    } catch (...) {
      failed_ = true;  // even the old file is gone: poison loudly
    }
    throw;
  }
  // Sequence numbers continue across generations: recovery relies on
  // strict monotonicity to detect holes when replaying adjacent files.
  next_seq_ = seq;
}

}  // namespace spechd::serve
