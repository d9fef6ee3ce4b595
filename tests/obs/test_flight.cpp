// Flight recorder, crash-dump format, and watchdog (src/obs/flight.*,
// src/obs/watchdog.*): events must come back from snapshot() in seq order
// with their payloads intact, wraparound must keep the newest events,
// recording must be multi-thread safe and disarmable; a dump written by
// write_crash_dump_now must round-trip through the parser (metrics, shard
// status table, event tail) and the parser must reject corruption rather
// than crash; the watchdog must flag a silent component within 2x the
// configured deadline, un-flag it when it pulses again, and fail safe
// (no-op handles) when the slot table is full. The CrashDrill suite
// drives the real binary: a failpoint-injected abort mid-journaled-ingest
// must leave a parseable .sphcrash whose tail matches what recovery then
// replays from the journal, and threads aborting at once in a forked child
// must still leave one complete dump.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "util/error.hpp"

namespace spechd::obs {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("spechd_flight_test_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

// Every test runs armed against a fresh ring; armed is the process-wide
// default, so leaving it on cannot perturb later suites.
void fresh_recorder() {
  set_armed(true);
  flight_recorder::instance().reset();
}

TEST(FlightRecorder, RecordAndSnapshotInSeqOrder) {
  fresh_recorder();
  const std::uint64_t base = flight_recorder::instance().total_recorded();
  EXPECT_EQ(base, 0u);

  record_event(event_kind::ingest_batch, 17, 3, 42);
  record_event(event_kind::view_publish, 5, 3);
  record_event(event_kind::journal_append, 100, 4096);

  EXPECT_EQ(flight_recorder::instance().total_recorded(), 3u);
  const auto events = flight_recorder::instance().snapshot();
  ASSERT_EQ(events.size(), 3u);
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LT(events[i - 1].seq, events[i].seq);
  }
  EXPECT_EQ(events[0].kind, static_cast<std::uint8_t>(event_kind::ingest_batch));
  EXPECT_EQ(events[0].arg0, 17u);
  EXPECT_EQ(events[0].arg1, 3u);
  EXPECT_EQ(events[0].request_id, 42u);
  EXPECT_GT(events[0].steady_ns, 0u);
  EXPECT_GT(events[0].wall_ns, 0u);
  EXPECT_NE(events[0].thread_id, 0u);
  EXPECT_EQ(events[2].kind, static_cast<std::uint8_t>(event_kind::journal_append));
  EXPECT_EQ(events[2].arg1, 4096u);
}

TEST(FlightRecorder, DisarmedRecordsNothing) {
  fresh_recorder();
  set_armed(false);
  record_event(event_kind::ingest_batch, 1, 1);
  record_event(event_kind::view_publish, 2, 2);
  set_armed(true);
  EXPECT_EQ(flight_recorder::instance().total_recorded(), 0u);
  EXPECT_TRUE(flight_recorder::instance().snapshot().empty());
}

TEST(FlightRecorder, WraparoundKeepsTheNewestEvents) {
  fresh_recorder();
  // Single thread -> one ring shard of k_shard_events slots; overfill it.
  const std::uint64_t total = flight_recorder::k_shard_events + 50;
  for (std::uint64_t i = 0; i < total; ++i) {
    record_event(event_kind::ingest_batch, i, 0);
  }
  EXPECT_EQ(flight_recorder::instance().total_recorded(), total);
  const auto events = flight_recorder::instance().snapshot();
  ASSERT_EQ(events.size(), flight_recorder::k_shard_events);
  // The survivors are exactly the newest k_shard_events records.
  std::uint64_t max_seq = 0;
  std::uint64_t min_seq = ~0ULL;
  for (const auto& e : events) {
    max_seq = std::max(max_seq, e.seq);
    min_seq = std::min(min_seq, e.seq);
  }
  EXPECT_EQ(max_seq, total);
  EXPECT_EQ(min_seq, total - flight_recorder::k_shard_events + 1);
}

TEST(FlightRecorder, MultiThreadedRecordingKeepsEveryEvent) {
  fresh_recorder();
  constexpr std::size_t k_threads = 4;
  constexpr std::size_t k_per_thread = 50;  // fits every shard's ring
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < k_threads; ++t) {
    threads.emplace_back([t] {
      for (std::size_t i = 0; i < k_per_thread; ++i) {
        record_event(event_kind::view_publish, i, t);
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(flight_recorder::instance().total_recorded(), k_threads * k_per_thread);
  const auto events = flight_recorder::instance().snapshot();
  ASSERT_EQ(events.size(), k_threads * k_per_thread);
  // Seqs are unique and cover 1..N (no event lost, none duplicated).
  std::vector<bool> seen(events.size() + 1, false);
  for (const auto& e : events) {
    ASSERT_GE(e.seq, 1u);
    ASSERT_LE(e.seq, events.size());
    EXPECT_FALSE(seen[e.seq]) << "duplicate seq " << e.seq;
    seen[e.seq] = true;
  }
}

TEST(FlightRecorder, EventKindNamesCoverEveryKind) {
  for (std::uint8_t k = 1; k <= k_event_kind_max; ++k) {
    const char* name = event_kind_name(static_cast<event_kind>(k));
    EXPECT_STRNE(name, "unknown") << "kind " << int(k) << " has no name";
    EXPECT_STRNE(name, "none") << "kind " << int(k) << " maps to none";
  }
  EXPECT_STREQ(event_kind_name(event_kind::none), "none");
  EXPECT_STREQ(event_kind_name(static_cast<event_kind>(200)), "unknown");
}

TEST(CrashDump, WriteNowRoundTripsThroughTheParser) {
  fresh_recorder();
  record_event(event_kind::ingest_batch, 11, 0);
  record_event(event_kind::journal_append, 12, 640);
  record_event(event_kind::journal_fsync, 12, 1);

  set_status_shard_count(3);
  for (std::size_t s = 0; s < 3; ++s) {
    auto& st = status_shard(s);
    st.health.store(0, std::memory_order_relaxed);
    st.generation.store(s + 1, std::memory_order_relaxed);
    st.journal_bytes.store(100 * (s + 1), std::memory_order_relaxed);
    st.journal_records.store(10 * (s + 1), std::memory_order_relaxed);
    st.queue_depth.store(s, std::memory_order_relaxed);
  }
  auto& marker = registry::instance().counter("spechd_test_crash_marker_total");
  marker.add(7);

  const std::string path = temp_path("roundtrip.sphcrash");
  ASSERT_TRUE(write_crash_dump_now(path));

  crash_dump dump;
  ASSERT_TRUE(read_crash_dump_file(path, dump));
  EXPECT_EQ(dump.version, 1u);
  EXPECT_EQ(dump.signo, 0);  // on-demand dump, not a fatal signal
  EXPECT_EQ(dump.pid, static_cast<std::uint32_t>(::getpid()));
  EXPECT_GT(dump.wall_ns, 0u);

  bool marker_found = false;
  for (const auto& c : dump.counters) {
    if (c.name == "spechd_test_crash_marker_total") {
      marker_found = true;
      EXPECT_GE(c.value, 7u);
    }
  }
  EXPECT_TRUE(marker_found) << "counter registered before the dump is missing";

  ASSERT_EQ(dump.shards.size(), 3u);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_EQ(dump.shards[s].generation, s + 1);
    EXPECT_EQ(dump.shards[s].journal_bytes, 100 * (s + 1));
    EXPECT_EQ(dump.shards[s].journal_records, 10 * (s + 1));
    EXPECT_EQ(dump.shards[s].queue_depth, s);
  }

  // The event tail survives byte-for-byte (minus struct padding).
  const auto live = flight_recorder::instance().snapshot();
  ASSERT_EQ(dump.events.size(), live.size());
  for (std::size_t i = 0; i < live.size(); ++i) {
    EXPECT_EQ(dump.events[i], live[i]) << "event " << i << " mangled in transit";
  }

  set_status_shard_count(0);
  std::remove(path.c_str());
}

TEST(CrashDump, ParserRejectsCorruptInput) {
  fresh_recorder();
  record_event(event_kind::ingest_batch, 1, 2);
  const std::string path = temp_path("corrupt.sphcrash");
  ASSERT_TRUE(write_crash_dump_now(path));
  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    bytes = buf.str();
  }
  std::remove(path.c_str());
  ASSERT_GT(bytes.size(), 32u);

  crash_dump dump;
  ASSERT_TRUE(parse_crash_dump(bytes, dump));  // baseline: the bytes are good

  EXPECT_FALSE(parse_crash_dump("", dump));
  EXPECT_FALSE(parse_crash_dump("this is not a crash dump", dump));

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(parse_crash_dump(bad_magic, dump));

  std::string bad_version = bytes;
  bad_version[4] = static_cast<char>(0xEE);
  EXPECT_FALSE(parse_crash_dump(bad_version, dump));

  // Every truncation point must fail cleanly (count guards + final
  // position check), never read out of bounds or return a partial "ok".
  for (std::size_t cut : {bytes.size() - 1, bytes.size() / 2, std::size_t{21},
                          std::size_t{5}}) {
    EXPECT_FALSE(parse_crash_dump(bytes.substr(0, cut), dump))
        << "truncation at " << cut << " parsed";
  }

  // Trailing garbage must fail too (pos == size check).
  EXPECT_FALSE(parse_crash_dump(bytes + "x", dump));
}

TEST(CrashDump, MissingFileThrowsIoError) {
  crash_dump dump;
  EXPECT_THROW(read_crash_dump_file("/nonexistent/dir/x.sphcrash", dump),
               spechd::io_error);
}

// Runs the sweep deterministically via check_now(): start() then stop()
// leaves the configured deadline in place without a live poll thread.
TEST(Watchdog, StallIsFlaggedAndRecoversOnPulse) {
  fresh_recorder();
  auto& wd = watchdog::instance();
  wd.start({.deadline = std::chrono::milliseconds(40)});
  wd.stop();

  auto beat = wd.register_component("test/stall-comp");
  ASSERT_TRUE(beat.valid());
  beat.pulse();
  EXPECT_EQ(wd.check_now(), 0u);

  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  EXPECT_GE(wd.check_now(), 1u);
  bool found_stalled = false;
  for (const auto& c : wd.components()) {
    if (c.name == "test/stall-comp") {
      found_stalled = true;
      EXPECT_TRUE(c.stalled);
      EXPECT_GE(c.silent_ms, 40u);
    }
  }
  EXPECT_TRUE(found_stalled);

  beat.pulse();
  EXPECT_EQ(wd.check_now(), 0u);
  for (const auto& c : wd.components()) {
    if (c.name == "test/stall-comp") EXPECT_FALSE(c.stalled);
  }

  // The verdicts left a flight-event trail.
  bool saw_stall = false;
  bool saw_recover = false;
  for (const auto& e : flight_recorder::instance().snapshot()) {
    if (e.kind == static_cast<std::uint8_t>(event_kind::watchdog_stall)) saw_stall = true;
    if (e.kind == static_cast<std::uint8_t>(event_kind::watchdog_recover)) saw_recover = true;
  }
  EXPECT_TRUE(saw_stall);
  EXPECT_TRUE(saw_recover);
  beat.retire();
}

// Acceptance bar: with the poll thread live, an injected stall is flagged
// within 2x the configured deadline (detection lands at deadline + one
// poll = 1.25x with the default poll cadence).
TEST(Watchdog, LiveThreadFlagsStallWithinTwiceTheDeadline) {
  auto& wd = watchdog::instance();
  const auto deadline = std::chrono::milliseconds(400);
  auto beat = wd.register_component("test/live-stall");
  ASSERT_TRUE(beat.valid());
  beat.pulse();
  const auto t0 = std::chrono::steady_clock::now();
  wd.start({.deadline = deadline});
  ASSERT_TRUE(wd.running());

  while (wd.stalled_components() == 0 &&
         std::chrono::steady_clock::now() - t0 < 4 * deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  wd.stop();
  bool ours_stalled = false;
  for (const auto& c : wd.components()) {
    if (c.name == "test/live-stall" && c.stalled) ours_stalled = true;
  }
  beat.retire();
  EXPECT_TRUE(ours_stalled) << "the poll thread never flagged the component";
  EXPECT_LE(elapsed, 2 * deadline)
      << "stall took "
      << std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count()
      << " ms to flag";
  // Retired: a fresh sweep must not count the freed slot.
  EXPECT_EQ(wd.check_now(), 0u);
}

TEST(Watchdog, RetiredComponentIsNeverFlagged) {
  auto& wd = watchdog::instance();
  wd.start({.deadline = std::chrono::milliseconds(20)});
  wd.stop();
  auto beat = wd.register_component("test/retired");
  ASSERT_TRUE(beat.valid());
  beat.retire();
  EXPECT_FALSE(beat.valid());
  beat.retire();  // idempotent
  beat.pulse();   // no-op on an empty handle
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  EXPECT_EQ(wd.check_now(), 0u);
  for (const auto& c : wd.components()) EXPECT_NE(c.name, "test/retired");
}

TEST(Watchdog, LongNamesTruncateAtCap) {
  auto& wd = watchdog::instance();
  const std::string longname(watchdog::k_name_cap + 20, 'x');
  auto beat = wd.register_component(longname);
  ASSERT_TRUE(beat.valid());
  bool found = false;
  for (const auto& c : wd.components()) {
    if (c.name == std::string(watchdog::k_name_cap, 'x')) found = true;
  }
  EXPECT_TRUE(found);
  beat.retire();
}

TEST(Watchdog, FullTableFailsSafe) {
  auto& wd = watchdog::instance();
  const std::size_t live_before = wd.components().size();
  std::vector<watchdog::handle> handles;
  // Fill every free slot, then one more: the overflow handle must come
  // back empty (pulses no-op) instead of aliasing a live slot.
  for (std::size_t i = live_before; i < watchdog::k_max_components; ++i) {
    auto h = wd.register_component("test/filler-" + std::to_string(i));
    ASSERT_TRUE(h.valid()) << "slot " << i << " should have been free";
    handles.push_back(h);
  }
  auto overflow = wd.register_component("test/overflow");
  EXPECT_FALSE(overflow.valid());
  overflow.pulse();  // must not crash
  EXPECT_EQ(wd.components().size(), watchdog::k_max_components);

  for (auto& h : handles) h.retire();
  EXPECT_EQ(wd.components().size(), live_before);

  // Retiring freed the slots for real: registration works again.
  auto again = wd.register_component("test/after-drain");
  EXPECT_TRUE(again.valid());
  again.retire();
}

}  // namespace
}  // namespace spechd::obs

// --- crash drill: the real binary, a real abort, a real .sphcrash ------------
//
// Not part of the Watchdog/CrashDump suites: this fixture aborts a child
// process (via the `abort` failpoint action) and is excluded from the
// sanitizer job's suite list, where SIGABRT is noisy by design.
#ifdef SPECHD_CLI_PATH

namespace {

struct cli_result {
  int exit_code = -1;   // -1: killed by a signal (see `signaled`)
  bool signaled = false;
  std::string output;
};

cli_result run_spechd(const std::string& args) {
  const std::string command = std::string(SPECHD_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  cli_result result;
  if (!pipe) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe)) result.output += buffer;
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.signaled = true;
  }
  return result;
}

std::string drill_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("spechd_crash_drill_" + std::to_string(::getpid()) + "_" + name))
      .string();
}

TEST(CrashDrill, AbortMidJournaledIngestLeavesAParseableDump) {
  namespace obs = spechd::obs;
  const std::string mgf = drill_path("data.mgf");
  const std::string dir = drill_path("jdir");
  const std::string crash = drill_path("drill.sphcrash");
  std::filesystem::remove_all(dir);

  const auto synth = run_spechd("synth -o " + mgf + " --peptides 64 --seed 7");
  ASSERT_EQ(synth.exit_code, 0) << synth.output;

  // Abort inside the journal-append write path once a few records are
  // durably down: the process dies mid-journaled-ingest, the SIGABRT
  // handler writes the pre-opened .sphcrash on the way out.
  const auto serve = run_spechd(
      "serve --shards 2 --batch 4 --journal-dir " + dir + " --crash-dump " +
      crash + " --failpoints journal.append.write=abort@after10 --ingest " + mgf);
  EXPECT_TRUE(serve.signaled || serve.exit_code != 0)
      << "serve survived an armed abort failpoint: " << serve.output;

  obs::crash_dump dump;
  ASSERT_TRUE(obs::read_crash_dump_file(crash, dump)) << "dump did not parse";
  EXPECT_EQ(dump.signo, SIGABRT);
  ASSERT_FALSE(dump.events.empty());

  // The tail must show the journaled-ingest path in flight: appends
  // recorded before the abort, and the crash event itself as the newest
  // record.
  std::uint64_t last_appended_records = 0;
  bool saw_crash_event = false;
  for (const auto& e : dump.events) {
    if (e.kind == static_cast<std::uint8_t>(obs::event_kind::journal_append)) {
      last_appended_records = std::max(last_appended_records, e.arg0);
    }
    if (e.kind == static_cast<std::uint8_t>(obs::event_kind::crash)) {
      saw_crash_event = true;
      // Surviving writer threads may still record for a few microseconds
      // while the handler serialises, so the crash event is near — not
      // necessarily at — the end of the tail.
      EXPECT_EQ(e.arg0, static_cast<std::uint64_t>(SIGABRT));
    }
  }
  EXPECT_TRUE(saw_crash_event);
  EXPECT_GT(last_appended_records, 0u) << "no journal_append events in the tail";

  // The shard status table froze the per-shard journal positions at the
  // moment of death; everything it counted was written before the abort
  // fired, so recovery must replay at least that many records. (The event
  // tail can momentarily lead the status mirror — a writer records its
  // append event a few instructions before update_status() — so the two
  // are held against recovery below, not against each other.)
  std::uint64_t status_records = 0;
  for (const auto& s : dump.shards) status_records += s.journal_records;
  EXPECT_GT(status_records, 0u);

  const auto recover = run_spechd("recover --journal-dir " + dir);
  EXPECT_EQ(recover.exit_code, 0) << recover.output;
  EXPECT_NE(recover.output.find("recovered"), std::string::npos);
  EXPECT_NE(recover.output.find("replaying shard"), std::string::npos);

  // Sum the per-generation progress lines ("... generation G: N records")
  // and hold them against the dump: the journal's surviving records cover
  // every append the dying process managed to count.
  std::uint64_t replayed = 0;
  std::istringstream lines(recover.output);
  std::string line;
  while (std::getline(lines, line)) {
    const auto gen = line.find("generation ");
    const auto colon = line.find(": ", gen == std::string::npos ? 0 : gen);
    if (gen == std::string::npos || colon == std::string::npos) continue;
    if (line.find(" records", colon) == std::string::npos) continue;
    replayed += std::strtoull(line.c_str() + colon + 2, nullptr, 10);
  }
  EXPECT_GE(replayed, status_records)
      << "recovery replayed fewer records than the dump's status table:\n"
      << recover.output;
  EXPECT_GE(replayed, last_appended_records)
      << "recovery replayed fewer records than the dump's event tail:\n"
      << recover.output;

  // `spechd doctor` renders the same dump offline.
  const auto doctor = run_spechd("doctor " + crash);
  EXPECT_EQ(doctor.exit_code, 0) << doctor.output;
  EXPECT_NE(doctor.output.find("signal"), std::string::npos);
  EXPECT_NE(doctor.output.find("journal_append"), std::string::npos);
  EXPECT_NE(doctor.output.find("crash"), std::string::npos);

  std::remove(mgf.c_str());
  std::remove(crash.c_str());
  std::filesystem::remove_all(dir);
}

TEST(CrashDrill, DoctorRejectsCorruptDumpWithDiagnostic) {
  const std::string bogus = drill_path("bogus.sphcrash");
  std::ofstream(bogus, std::ios::binary) << "definitely not a crash dump";
  const auto r = run_spechd("doctor " + bogus);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("not a parseable crash dump"), std::string::npos);
  std::remove(bogus.c_str());

  const auto missing = run_spechd("doctor /nonexistent/x.sphcrash");
  EXPECT_EQ(missing.exit_code, 2);
}

// Several threads abort at once, as both shard writers do when an armed
// abort failpoint fires on each: the first handler entry writes the dump,
// and the others must wait for it instead of ending the process mid-write.
TEST(CrashDrill, ConcurrentAbortsLeaveACompleteDump) {
  namespace obs = spechd::obs;
  const std::string crash = drill_path("concurrent.sphcrash");
  for (int round = 0; round < 10; ++round) {
    const pid_t child = ::fork();
    ASSERT_GE(child, 0);
    if (child == 0) {
      if (!obs::install_crash_handler(crash)) ::_exit(3);
      std::atomic<int> ready{0};
      std::vector<std::thread> threads;
      for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&ready] {
          ready.fetch_add(1);
          while (ready.load() < 4) {
          }
          std::abort();
        });
      }
      for (auto& t : threads) t.join();
      ::_exit(4);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(child, &status, 0), child);
    ASSERT_TRUE(WIFSIGNALED(status)) << "round " << round;
    EXPECT_EQ(WTERMSIG(status), SIGABRT);
    obs::crash_dump dump;
    ASSERT_TRUE(obs::read_crash_dump_file(crash, dump)) << "round " << round << ": truncated dump";
    EXPECT_EQ(dump.signo, SIGABRT);
  }
  std::remove(crash.c_str());
}

}  // namespace

#endif  // SPECHD_CLI_PATH
