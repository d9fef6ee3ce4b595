// Drives the actual `spechd` binary (path injected by CMake as
// SPECHD_CLI_PATH): unknown subcommands/flags must print usage and exit
// non-zero, the serve subcommand's ingest → query → snapshot → restore
// loop must work end to end from the shell, and the search subcommand's
// library build/query path must diagnose operator errors (missing or
// corrupt library, --topk 0) with exit code 2 rather than crashing.
#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>

#include "util/crc32.hpp"

#ifdef SPECHD_CLI_PATH

namespace {

struct command_result {
  int exit_code = -1;
  std::string output;  // stdout + stderr combined
};

command_result run_cli(const std::string& args) {
  const std::string command = std::string(SPECHD_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  command_result result;
  if (!pipe) return result;
  char buffer[4096];
  while (std::fgets(buffer, sizeof(buffer), pipe)) result.output += buffer;
  const int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string temp_file(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          ("spechd_cli_test_" + std::to_string(::getpid()) + "_" + name)).string();
}

TEST(Cli, NoArgumentsPrintsUsageAndFails) {
  const auto r = run_cli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownSubcommandFails) {
  const auto r = run_cli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown command: frobnicate"), std::string::npos);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, UnknownFlagFails) {
  const auto r = run_cli("cluster --bogus-flag input.mgf");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unknown option '--bogus-flag'"), std::string::npos);
}

TEST(Cli, StrayPositionalFails) {
  const auto r = run_cli("model extra-arg");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("unexpected argument 'extra-arg'"), std::string::npos);
}

TEST(Cli, MissingInputFileIsAnErrorNotACrash) {
  const auto r = run_cli("info /nonexistent/file.mgf");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("error:"), std::string::npos);
}

TEST(Cli, HelpSucceeds) {
  const auto r = run_cli("help");
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(Cli, ServeRequiresWork) {
  const auto r = run_cli("serve");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("nothing to do"), std::string::npos);
}

TEST(Cli, ServeRestoreMissingSnapshotFailsWithDiagnostic) {
  const auto r = run_cli("serve --restore /nonexistent/state.sphsnap --query x.mgf");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot restore from"), std::string::npos);
}

TEST(Cli, ServeRestoreCorruptSnapshotFailsWithDiagnostic) {
  const std::string snap = temp_file("corrupt.sphsnap");
  std::ofstream(snap, std::ios::binary) << "this is not a snapshot";
  const auto r = run_cli("serve --restore " + snap + " --query x.mgf");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot restore from"), std::string::npos);
  std::remove(snap.c_str());
}

TEST(Cli, ServeRestoreUnknownAssignModeFailsWithDiagnostic) {
  const std::string mgf = temp_file("mode.mgf");
  const std::string snap = temp_file("mode.sphsnap");
  ASSERT_EQ(run_cli("synth -o " + mgf + " --peptides 8 --seed 5").exit_code, 0);
  const auto serve = run_cli("serve --shards 1 --ingest " + mgf + " --snapshot " + snap);
  ASSERT_EQ(serve.exit_code, 0) << serve.output;

  // assign_mode sits at file offset 48 (16-byte frame header, then 32
  // bytes of identity); set it to 7 and recompute the payload CRC that
  // closes the file, so only the identity check can refuse it.
  std::string bytes;
  {
    std::ifstream in(snap, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 56U);
  const std::uint32_t mode = 7;
  std::memcpy(bytes.data() + 48, &mode, sizeof mode);
  const std::uint32_t crc = spechd::crc32(bytes.data() + 16, bytes.size() - 20);
  std::memcpy(bytes.data() + bytes.size() - 4, &crc, sizeof crc);
  std::ofstream(snap, std::ios::binary | std::ios::trunc)
      .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));

  const auto r = run_cli("serve --restore " + snap + " --query " + mgf);
  EXPECT_EQ(r.exit_code, 2) << r.output;
  EXPECT_NE(r.output.find("cannot restore from"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("unknown assign_mode 7"), std::string::npos) << r.output;
  std::remove(mgf.c_str());
  std::remove(snap.c_str());
}

TEST(Cli, DimOutsideTheBoundIsRefused) {
  // --dim sizes the item memory: a value no file may declare is an input
  // error, refused before any input is read or encoder built.
  for (const std::string dim : {"0", "100", "16384"}) {
    for (const std::string command :
         {"encode /nonexistent/x.mgf -o /nonexistent/x.sphv",
          "search --build /nonexistent/x.sphlib --spectra /nonexistent/x.mgf"}) {
      SCOPED_TRACE(command + " --dim " + dim);
      const auto r = run_cli(command + " --dim " + dim);
      EXPECT_EQ(r.exit_code, 2) << r.output;
      EXPECT_NE(r.output.find("--dim must be a positive multiple of 64 up to 8192"),
                std::string::npos)
          << r.output;
    }
  }
}

TEST(Cli, RecoverMissingDirFailsWithDiagnostic) {
  const auto r = run_cli("recover --journal-dir /nonexistent/journal");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("no journal state found"), std::string::npos);
}

TEST(Cli, RecoverRequiresJournalDir) {
  const auto r = run_cli("recover");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("missing --journal-dir"), std::string::npos);
}

TEST(Cli, JournaledServeThenRecoverRoundTrip) {
  const std::string mgf = temp_file("jdata.mgf");
  const std::string dir = temp_file("jdir");
  std::filesystem::remove_all(dir);

  const auto synth = run_cli("synth -o " + mgf + " --peptides 12 --seed 21");
  ASSERT_EQ(synth.exit_code, 0) << synth.output;

  const auto serve =
      run_cli("serve --shards 2 --batch 16 --journal-dir " + dir + " --ingest " + mgf);
  EXPECT_EQ(serve.exit_code, 0) << serve.output;
  EXPECT_NE(serve.output.find("journal:"), std::string::npos);

  const auto recover = run_cli("recover --journal-dir " + dir + " --query " + mgf);
  EXPECT_EQ(recover.exit_code, 0) << recover.output;
  EXPECT_NE(recover.output.find("recovered"), std::string::npos);
  EXPECT_NE(recover.output.find("batches replayed"), std::string::npos);
  EXPECT_NE(recover.output.find("latency p99"), std::string::npos);

  // Resume without repeating the original flags: the journal identity
  // (including the shard count) is adopted from the directory.
  const auto resume = run_cli("serve --journal-dir " + dir + " --ingest " + mgf);
  EXPECT_EQ(resume.exit_code, 0) << resume.output;
  EXPECT_NE(resume.output.find("recovered"), std::string::npos);

  std::remove(mgf.c_str());
  std::filesystem::remove_all(dir);
}

TEST(Cli, SearchRequiresWork) {
  const auto r = run_cli("search");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("nothing to do"), std::string::npos);
}

TEST(Cli, SearchTopkZeroFailsWithDiagnostic) {
  const auto r = run_cli("search --library lib.sphlib --query x.mgf --topk 0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--topk must be >= 1"), std::string::npos);
}

TEST(Cli, ClientSearchTopkZeroFailsWithDiagnostic) {
  // Validation runs before any connection is attempted, so the bogus
  // address is never dialled.
  const auto r =
      run_cli("client --connect 127.0.0.1:1 --search x.mgf --topk 0");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("--topk must be >= 1"), std::string::npos);
}

TEST(Cli, SearchMissingLibraryFailsWithDiagnostic) {
  const auto r =
      run_cli("search --library /nonexistent/lib.sphlib --query x.mgf");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot load library"), std::string::npos);
}

TEST(Cli, SearchCorruptLibraryFailsWithDiagnostic) {
  const std::string lib = temp_file("corrupt.sphlib");
  std::ofstream(lib, std::ios::binary) << "this is not a spectral library";
  const auto r = run_cli("search --library " + lib + " --query x.mgf");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("cannot load library"), std::string::npos);
  std::remove(lib.c_str());
}

TEST(Cli, SearchBuildNeedsExactlyOneSource) {
  const auto none = run_cli("search --build lib.sphlib");
  EXPECT_EQ(none.exit_code, 2);
  EXPECT_NE(none.output.find("exactly one of --fasta or --spectra"),
            std::string::npos);
  const auto both =
      run_cli("search --build lib.sphlib --fasta a.fasta --spectra b.mgf");
  EXPECT_EQ(both.exit_code, 2);
  EXPECT_NE(both.output.find("exactly one of --fasta or --spectra"),
            std::string::npos);
}

TEST(Cli, SearchBuildAndQueryRoundTrip) {
  const std::string mgf = temp_file("search_data.mgf");
  const std::string lib = temp_file("search_lib.sphlib");

  const auto synth = run_cli("synth -o " + mgf + " --peptides 12 --seed 33");
  ASSERT_EQ(synth.exit_code, 0) << synth.output;

  const auto build = run_cli("search --build " + lib + " --spectra " + mgf);
  EXPECT_EQ(build.exit_code, 0) << build.output;
  EXPECT_NE(build.output.find("built spectral library"), std::string::npos);

  // Querying the library with its own source spectra must self-match at
  // Hamming 0 somewhere in the report.
  const auto query = run_cli("search --library " + lib + " --query " + mgf +
                             " --topk 3 --tolerance 1.5");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("query 0"), std::string::npos);
  EXPECT_NE(query.output.find("hamming=0"), std::string::npos);

  std::remove(mgf.c_str());
  std::remove(lib.c_str());
}

TEST(Cli, SearchBuildFromFastaRoundTrip) {
  const std::string fasta = temp_file("search_db.fasta");
  const std::string lib = temp_file("search_fasta_lib.sphlib");
  std::ofstream(fasta)
      << ">sp|TEST1 example protein\n"
      << "MKWVTFISLLFLFSSAYSRGVFRRDAHKSEVAHRFKDLGEENFKALVLIAFAQYLQQCPF\n";

  const auto build = run_cli("search --build " + lib + " --fasta " + fasta +
                             " --missed 1 --charges 2,3");
  EXPECT_EQ(build.exit_code, 0) << build.output;
  EXPECT_NE(build.output.find("built spectral library"), std::string::npos);

  const auto empty_charges =
      run_cli("search --build " + lib + " --fasta " + fasta + " --charges ,");
  EXPECT_EQ(empty_charges.exit_code, 2);
  EXPECT_NE(empty_charges.output.find("--charges needs"), std::string::npos);

  std::remove(fasta.c_str());
  std::remove(lib.c_str());
}

TEST(Cli, ServeIngestQuerySnapshotRestoreRoundTrip) {
  const std::string mgf = temp_file("data.mgf");
  const std::string snap = temp_file("state.sphsnap");

  const auto synth = run_cli("synth -o " + mgf + " --peptides 12 --seed 9");
  ASSERT_EQ(synth.exit_code, 0) << synth.output;

  const auto serve = run_cli("serve --shards 2 --batch 16 --ingest " + mgf +
                             " --query " + mgf + " --snapshot " + snap);
  EXPECT_EQ(serve.exit_code, 0) << serve.output;
  EXPECT_NE(serve.output.find("ingested"), std::string::npos);
  EXPECT_NE(serve.output.find("latency p99"), std::string::npos);
  EXPECT_NE(serve.output.find("snapshot written"), std::string::npos);

  const auto restored = run_cli("serve --restore " + snap + " --query " + mgf);
  EXPECT_EQ(restored.exit_code, 0) << restored.output;
  EXPECT_NE(restored.output.find("restored"), std::string::npos);
  EXPECT_NE(restored.output.find("latency p99"), std::string::npos);

  std::remove(mgf.c_str());
  std::remove(snap.c_str());
}

}  // namespace

#else
TEST(Cli, DISABLED_BinaryPathNotConfigured) {}
#endif
