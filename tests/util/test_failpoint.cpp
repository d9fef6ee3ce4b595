// Failpoint registry + checked-I/O layer: spec parsing, trigger semantics,
// deterministic probabilistic firing, and the write/retry behaviour of
// util/io under injected faults.
//
// The registry is process-global, so every test disarms everything it armed
// (the fixture reset()s in both directions) — the serve-tier tests in this
// binary run with all failpoints disarmed unless they arm their own.
#include "util/failpoint.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/io.hpp"

namespace util = spechd::util;

namespace {

class FailpointTest : public ::testing::Test {
protected:
  void SetUp() override { util::registry().reset(); }
  void TearDown() override { util::registry().reset(); }
};

/// A scratch file in the test's temp dir; removed on destruction.
struct temp_file {
  std::string path;
  temp_file() {
    path = ::testing::TempDir() + "spechd_failpoint_XXXXXX";
    int fd = ::mkstemp(path.data());
    EXPECT_GE(fd, 0);
    if (fd >= 0) ::close(fd);
  }
  ~temp_file() { std::remove(path.c_str()); }
  std::string contents() const {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
  }
};

}  // namespace

TEST_F(FailpointTest, DisarmedSiteNeverFires) {
  util::failpoint fp("test.disarmed");
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(fp.fire().has_value());
  const auto stats = util::registry().stats("test.disarmed");
  EXPECT_EQ(stats.hits, 0u);  // disarmed hits are not even counted
  EXPECT_EQ(stats.fires, 0u);
}

TEST_F(FailpointTest, ArmErrorFiresEveryHit) {
  util::failpoint fp("test.always");
  util::failpoint_spec spec;
  spec.action.type = util::failpoint_action::kind::error;
  spec.action.error_code = ENOSPC;
  util::registry().arm("test.always", spec);
  for (int i = 0; i < 5; ++i) {
    auto action = fp.fire();
    ASSERT_TRUE(action.has_value());
    EXPECT_EQ(action->type, util::failpoint_action::kind::error);
    EXPECT_EQ(action->error_code, ENOSPC);
  }
  const auto stats = util::registry().stats("test.always");
  EXPECT_EQ(stats.hits, 5u);
  EXPECT_EQ(stats.fires, 5u);
}

TEST_F(FailpointTest, AfterAndTimesTriggers) {
  util::failpoint fp("test.window");
  // Skip the first 2 hits, then fire at most 3 times.
  util::registry().arm_from_spec("test.window=error:EIO@after2,times3");
  int fired = 0;
  for (int i = 0; i < 10; ++i) {
    if (fp.fire()) ++fired;
  }
  EXPECT_EQ(fired, 3);
  const auto stats = util::registry().stats("test.window");
  EXPECT_EQ(stats.hits, 10u);
  EXPECT_EQ(stats.fires, 3u);
}

TEST_F(FailpointTest, RearmResetsFireBudgetNotHits) {
  util::failpoint fp("test.rearm");
  util::registry().arm_from_spec("test.rearm=error@times1");
  EXPECT_TRUE(fp.fire().has_value());
  EXPECT_FALSE(fp.fire().has_value());  // budget spent
  util::registry().arm_from_spec("test.rearm=error@times1");
  EXPECT_TRUE(fp.fire().has_value());  // fresh budget
  const auto stats = util::registry().stats("test.rearm");
  EXPECT_EQ(stats.hits, 3u);  // hits kept counting across the re-arm
  EXPECT_EQ(stats.fires, 1u);  // per-arming budget (arm zeroes fires)
}

TEST_F(FailpointTest, ProbabilisticFiringIsDeterministicInSeed) {
  util::failpoint fp("test.prob");
  auto run = [&](std::uint64_t seed) {
    util::registry().reset();
    util::registry().seed(seed);
    util::registry().arm_from_spec("test.prob=error@p0.5");
    std::string pattern;
    for (int i = 0; i < 64; ++i) pattern += fp.fire() ? '1' : '0';
    return pattern;
  };
  const auto a1 = run(42);
  const auto a2 = run(42);
  const auto b = run(43);
  EXPECT_EQ(a1, a2);  // same seed, same hit order -> identical decisions
  EXPECT_NE(a1, b);   // different seed actually changes them
  // p0.5 over 64 hits: both outcomes must occur (the hash is not stuck).
  EXPECT_NE(a1.find('0'), std::string::npos);
  EXPECT_NE(a1.find('1'), std::string::npos);
}

TEST_F(FailpointTest, DelayActionSleepsThenReturnsNullopt) {
  util::failpoint fp("test.delay");
  util::registry().arm_from_spec("test.delay=delay:1@times2");
  // A firing delay sleeps inside fire() and reports nothing to inject, so
  // call sites run the real call afterwards.
  EXPECT_FALSE(fp.fire().has_value());
  EXPECT_FALSE(fp.fire().has_value());
  const auto stats = util::registry().stats("test.delay");
  EXPECT_EQ(stats.fires, 2u);  // still counted as injections
}

TEST_F(FailpointTest, SpecParsingErrors) {
  EXPECT_THROW(util::registry().arm_from_spec("noequals"), spechd::error);
  EXPECT_THROW(util::registry().arm_from_spec("=error"), spechd::error);
  EXPECT_THROW(util::registry().arm_from_spec("x=explode"), spechd::error);
  EXPECT_THROW(util::registry().arm_from_spec("x=error:EWHAT"), spechd::error);
  EXPECT_THROW(util::registry().arm_from_spec("x=error@p1.5"), spechd::error);
  EXPECT_THROW(util::registry().arm_from_spec("x=error@times0"), spechd::error);
  EXPECT_THROW(util::registry().arm_from_spec("x=error@sometimes"), spechd::error);
  EXPECT_THROW(util::registry().arm_from_spec("x=delay:-3"), spechd::error);
}

TEST_F(FailpointTest, MultiEntrySpecArmsAllSites) {
  util::registry().arm_from_spec(
      "test.multi.a=error:ENOSPC@times1;test.multi.b=delay:5@p0.25");
  EXPECT_TRUE(util::registry().known("test.multi.a"));
  EXPECT_TRUE(util::registry().known("test.multi.b"));
  // Arming before the site registers is allowed: the spec waits for it.
  util::failpoint fp("test.multi.a");
  auto action = fp.fire();
  ASSERT_TRUE(action.has_value());
  EXPECT_EQ(action->error_code, ENOSPC);
}

TEST_F(FailpointTest, NamesListsRegisteredSites) {
  util::failpoint fp("test.names.site");
  const auto names = util::registry().names();
  bool found = false;
  for (const auto& n : names) {
    if (n == "test.names.site") found = true;
  }
  EXPECT_TRUE(found);
  EXPECT_TRUE(util::registry().known("test.names.site"));
  EXPECT_FALSE(util::registry().known("test.names.never-registered"));
}

// ---- checked I/O under injection -----------------------------------------

TEST_F(FailpointTest, WriteAllCompletesAcrossInjectedShortWrites) {
  temp_file file;
  int fd = ::open(file.path.c_str(), O_WRONLY | O_TRUNC);
  ASSERT_GE(fd, 0);
  util::failpoint fp("test.io.short");
  // Every transfer is cut short until the budget runs out; the loop must
  // keep re-entering and still deliver every byte in order.
  util::registry().arm_from_spec("test.io.short=short@times4");
  std::string payload;
  for (int i = 0; i < 4096; ++i) payload += static_cast<char>('a' + i % 26);
  util::write_all(fd, payload.data(), payload.size(), file.path, fp);
  ::close(fd);
  EXPECT_EQ(file.contents(), payload);
  EXPECT_EQ(util::registry().stats("test.io.short").fires, 4u);
}

TEST_F(FailpointTest, WriteAllReportsBytesCompletedOnInjectedError) {
  temp_file file;
  int fd = ::open(file.path.c_str(), O_WRONLY | O_TRUNC);
  ASSERT_GE(fd, 0);
  util::failpoint fp("test.io.enospc");
  // First transfer is cut short (bytes land), second fails hard: the
  // exception must say how far the write got so callers can roll back.
  util::registry().arm_from_spec("test.io.enospc=short@times1");
  const std::string payload(1024, 'x');
  bool threw = false;
  try {
    util::write_all(fd, payload.data(), payload.size(), file.path, fp);
    // First call succeeds (short write just loops); now inject a hard error.
    util::registry().arm_from_spec("test.io.enospc=error:ENOSPC");
    util::write_all(fd, payload.data(), payload.size(), file.path, fp);
  } catch (const util::io_failure& e) {
    threw = true;
    EXPECT_EQ(e.op(), util::io_op::write);
    EXPECT_EQ(e.code(), ENOSPC);
    EXPECT_EQ(e.path(), file.path);
    EXPECT_EQ(e.bytes_completed(), 0u);  // error injected before any transfer
  }
  ASSERT_TRUE(threw);
  ::close(fd);
  EXPECT_EQ(file.contents(), payload);  // the first (short-write) call completed
}

TEST_F(FailpointTest, WriteAllRestartsOnInjectedEintr) {
  temp_file file;
  int fd = ::open(file.path.c_str(), O_WRONLY | O_TRUNC);
  ASSERT_GE(fd, 0);
  util::failpoint fp("test.io.eintr");
  util::registry().arm_from_spec("test.io.eintr=error:EINTR@times3");
  const std::string payload(256, 'q');
  // EINTR restarts immediately and is not a failure or a counted retry.
  util::write_all(fd, payload.data(), payload.size(), file.path, fp);
  ::close(fd);
  EXPECT_EQ(file.contents(), payload);
}

TEST_F(FailpointTest, WriteAllRetriesTransientErrorsWithBackoff) {
  temp_file file;
  int fd = ::open(file.path.c_str(), O_WRONLY | O_TRUNC);
  ASSERT_GE(fd, 0);
  util::failpoint fp("test.io.eagain");
  // Two transient failures fit inside the default 4-retry budget.
  util::registry().arm_from_spec("test.io.eagain=error:EAGAIN@times2");
  const std::string payload(128, 'r');
  util::write_all(fd, payload.data(), payload.size(), file.path, fp);
  ::close(fd);
  EXPECT_EQ(file.contents(), payload);
}

TEST_F(FailpointTest, WriteAllGivesUpWhenTransientErrorsExceedBudget) {
  temp_file file;
  int fd = ::open(file.path.c_str(), O_WRONLY | O_TRUNC);
  ASSERT_GE(fd, 0);
  util::failpoint fp("test.io.eagain-forever");
  util::registry().arm_from_spec("test.io.eagain-forever=error:EAGAIN");
  const std::string payload(64, 's');
  util::io_retry_policy fast;
  fast.max_retries = 2;
  fast.initial_backoff = std::chrono::milliseconds(0);
  try {
    util::write_all(fd, payload.data(), payload.size(), file.path, fp, fast);
    FAIL() << "expected io_failure";
  } catch (const util::io_failure& e) {
    EXPECT_EQ(e.code(), EAGAIN);
  }
  ::close(fd);
}

TEST_F(FailpointTest, ReplaceFileCreatesReplacesAndRefusesSpecialFiles) {
  const std::string dir = ::testing::TempDir() + "spechd_replace_" + std::to_string(::getpid());
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/file";
  util::failpoint open("test.replace.open");
  util::failpoint write("test.replace.write");
  util::failpoint fsync("test.replace.fsync");
  util::failpoint rename("test.replace.rename");
  const util::replace_sites sites{open, write, fsync, rename};
  const auto contents = [&path] {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  util::replace_file(path, "first", sites);  // no previous file
  EXPECT_EQ(contents(), "first");
  util::replace_file(path, "second, longer", sites, /*sync=*/false);
  EXPECT_EQ(contents(), "second, longer");
  util::replace_file(path, "", sites);
  EXPECT_EQ(contents(), "");
  // A rename over a FIFO would replace the node: refused, node kept.
  const std::string fifo = dir + "/fifo";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  EXPECT_THROW(util::replace_file(fifo, "bytes", sites), spechd::io_error);
  EXPECT_TRUE(std::filesystem::is_fifo(fifo));
  EXPECT_FALSE(std::filesystem::exists(fifo + ".tmp"));
  std::filesystem::remove_all(dir);
}

TEST_F(FailpointTest, OpenFdInjectedErrorThrowsTyped) {
  temp_file file;
  util::failpoint fp("test.io.open");
  util::registry().arm_from_spec("test.io.open=error:EACCES@times1");
  try {
    util::open_fd(file.path, O_RDONLY, 0, fp);
    FAIL() << "expected io_failure";
  } catch (const util::io_failure& e) {
    EXPECT_EQ(e.op(), util::io_op::open);
    EXPECT_EQ(e.code(), EACCES);
    EXPECT_EQ(e.path(), file.path);
  }
  // Budget spent: the next open succeeds.
  int fd = util::open_fd(file.path, O_RDONLY, 0, fp);
  EXPECT_GE(fd, 0);
  ::close(fd);
}

TEST_F(FailpointTest, RemoveFileIdempotentOnMissing) {
  util::failpoint fp("test.io.remove");
  const std::string missing = ::testing::TempDir() + "spechd_never_existed";
  EXPECT_NO_THROW(util::remove_file(missing, fp));
}

TEST_F(FailpointTest, RenameAndFsyncInjection) {
  temp_file src;
  {
    std::ofstream out(src.path, std::ios::binary);
    out << "payload";
  }
  const std::string dst = src.path + ".renamed";
  util::failpoint fp_rename("test.io.rename");
  util::failpoint fp_fsync("test.io.fsync");
  util::registry().arm_from_spec("test.io.rename=error:EIO@times1");
  EXPECT_THROW(util::rename_file(src.path, dst, fp_rename), util::io_failure);
  // Injection consumed: the real rename goes through.
  util::rename_file(src.path, dst, fp_rename);
  int fd = ::open(dst.c_str(), O_RDONLY);
  ASSERT_GE(fd, 0);
  util::registry().arm_from_spec("test.io.fsync=error:EIO@times1");
  EXPECT_THROW(util::fsync_fd(fd, dst, fp_fsync), util::io_failure);
  EXPECT_NO_THROW(util::fsync_fd(fd, dst, fp_fsync));
  ::close(fd);
  std::remove(dst.c_str());
}
