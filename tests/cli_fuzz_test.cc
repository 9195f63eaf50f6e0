// CLI-line fuzz loop: seeded byte mutations of REPL lines (generator SQL and
// every backslash command, with and without arguments) piped through one
// htapex_cli process. Every line the CLI echoes must get output before the
// next echo, and the process must exit 0 within a time bound. A mutated line
// that quits ends the run; the run always ends with a plain `\q`. A second
// pass runs the same rules under `--data-dir` and `--lifecycle`, so the
// WAL-logged `\correct`/`\expire`, `\snapshot`, `\swap` and `\rollback`
// take their durable and lifecycle paths; a `--recover` run on its directory
// must then list the knowledge base.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/fault.h"
#include "common/string_util.h"
#include "workload/query_generator.h"

namespace htapex {
namespace {

constexpr int kLines = 300;
constexpr auto kTimeLimit = std::chrono::seconds(120);
/// Each `\swap` under --lifecycle retrains the router for 40 epochs, so the
/// durable pass keeps at most this many to stay inside kTimeLimit.
constexpr int kMaxSwaps = 2;

struct CliRun {
  std::string out;
  bool timed_out = false;
  int status = -1;  // waitpid status
};

/// Runs the CLI with `--faults=off` plus `args` on `input` as its stdin (a
/// file, so the REPL echoes each line) and collects stdout until it exits
/// or `limit` passes.
CliRun RunCli(const std::string& input, const std::vector<std::string>& args,
              std::chrono::seconds limit) {
  CliRun run;
  std::vector<std::string> words = {HTAPEX_CLI_PATH, "--faults=off"};
  words.insert(words.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  argv.push_back(nullptr);
  FILE* in = std::tmpfile();
  if (in == nullptr ||
      std::fwrite(input.data(), 1, input.size(), in) != input.size() ||
      std::fflush(in) != 0 || std::fseek(in, 0, SEEK_SET) != 0) {
    ADD_FAILURE() << "cannot stage the CLI's stdin";
    if (in != nullptr) std::fclose(in);
    return run;
  }
  int out[2];
  if (pipe(out) != 0) {
    ADD_FAILURE() << "pipe failed";
    std::fclose(in);
    return run;
  }
  const pid_t pid = fork();
  if (pid == 0) {
    dup2(fileno(in), STDIN_FILENO);
    dup2(out[1], STDOUT_FILENO);
    close(out[0]);
    close(out[1]);
    execv(HTAPEX_CLI_PATH, argv.data());
    _exit(127);
  }
  close(out[1]);
  std::fclose(in);
  if (pid < 0) {
    ADD_FAILURE() << "fork failed";
    close(out[0]);
    return run;
  }
  const auto deadline = std::chrono::steady_clock::now() + limit;
  char buf[1 << 16];
  for (;;) {
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - std::chrono::steady_clock::now());
    if (left.count() <= 0) {
      run.timed_out = true;
      kill(pid, SIGKILL);
      break;
    }
    pollfd p{out[0], POLLIN, 0};
    // Nothing ready (timeout, or a signal): the deadline check decides.
    if (poll(&p, 1, static_cast<int>(left.count())) <= 0) continue;
    const ssize_t n = read(out[0], buf, sizeof(buf));
    if (n > 0) {
      run.out.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;  // EOF: the CLI closed stdout
    }
  }
  close(out[0]);
  waitpid(pid, &run.status, 0);
  return run;
}

std::vector<std::string> Corpus() {
  std::vector<std::string> corpus;
  for (const GeneratedQuery& q : QueryGenerator(100.0, 11).GenerateMix(16)) {
    corpus.push_back(q.sql + ";");
  }
  const std::string sql = corpus.front();
  for (const char* bare :
       {"\\demo", "\\kb", "\\lifecycle", "\\swap", "\\rollback", "\\report",
        "\\trace", "\\metrics", "\\snapshot", "\\correct", "\\expire"}) {
    corpus.push_back(bare);
  }
  corpus.insert(corpus.end(),
                {"\\report " + sql, "\\trace " + sql, "\\kb all",
                 "\\metrics now", "\\correct 3 an expert's corrected text",
                 "\\correct 4294967296 text", "\\expire 5", "\\expire -1",
                 "\\expire 99", "\\snapshot now", "\\swap 1", "\\q now"});
  return corpus;
}

/// What the REPL does with one input line: the trimmed line it echoes
/// (empty: nothing echoed), or that the line quits.
struct Expected {
  std::string echo;
  bool quits = false;
};

Expected Expect(std::string_view line) {
  const std::string_view sql = Trim(line);
  Expected x;
  x.quits = sql == "\\q" || sql == "quit" || sql == "exit";
  // The echo is printed with %s, so it stops at an embedded NUL.
  if (!sql.empty()) {
    x.echo = "htapex> " + std::string(sql.substr(0, sql.find('\0')));
  }
  return x;
}

/// `kLines` seeded mutations of corpus lines, drawn from `stream` of the
/// fault seed, then a plain `\q`. Lines that would run `\swap` past the
/// first `max_swaps` are dropped.
std::string MutatedInput(uint64_t stream, int max_swaps) {
  static const char* kTokens[] = {"\\", ";", "'", "\"", "(", ")", ",", " ",
                                  "*", "--", "\t", "4294967296", "-1", "0",
                                  "SELECT", "FROM", "WHERE", "\x80", "\xff"};
  const std::vector<std::string> corpus = Corpus();
  const uint64_t seed = FaultInjector::EnvSeed(42);
  std::string input;
  int swaps = 0;
  for (int i = 0; i < kLines; ++i) {
    const auto t = static_cast<uint64_t>(i);
    std::string line =
        corpus[MixFaultSeed(seed, stream, t, 0) % corpus.size()];
    const int n = static_cast<int>(MixFaultSeed(seed, stream, t, 1) % 4);
    for (int m = 0; m < n; ++m) {
      const uint64_t d = MixFaultSeed(seed, stream, t, m + 2);
      const size_t pos = (d >> 8) % (line.size() + 1);
      const uint64_t pick = d >> 40;
      switch (d % 3) {
        case 0:
          line.insert(pos, kTokens[pick % std::size(kTokens)]);
          break;
        case 1:
          line.erase(pos, 1 + pick % 4);
          break;
        default:  // any byte, newline and NUL included
          if (pos < line.size()) line[pos] = static_cast<char>(pick & 0xff);
      }
    }
    // A mutation can embed a newline, so check every line it makes.
    bool over = false;
    for (const std::string& part : Split(line, '\n')) {
      if (Trim(part) == "\\swap" && ++swaps > max_swaps) over = true;
    }
    if (!over) input += line + "\n";
  }
  return input + "\\q\n";
}

/// Runs `input` through the CLI with `args` and checks the fuzz rules:
/// exit 0 within kTimeLimit, every echoed line in input order, and output
/// after each echo before the next one.
void ExpectEveryLineAnswered(const std::string& input,
                             const std::vector<std::string>& args) {
  const CliRun run = RunCli(input, args, kTimeLimit);
  ASSERT_FALSE(run.timed_out) << "htapex_cli did not exit within "
                              << kTimeLimit.count() << " s";
  ASSERT_TRUE(WIFEXITED(run.status) && WEXITSTATUS(run.status) == 0)
      << "htapex_cli status " << run.status << "; output tail:\n"
      << run.out.substr(run.out.size() -
                        std::min<size_t>(run.out.size(), 2000));

  // Walk the output: each echo must appear in input order, and some output
  // must follow it before the next echo (or the end of the output).
  const std::vector<std::string> out = Split(run.out, '\n');
  size_t at = 0;
  bool pending = false;  // an echo still waiting for its output
  int echoed = 0;
  for (const std::string& line : Split(input, '\n')) {
    const Expected x = Expect(line);
    if (x.quits) break;
    if (x.echo.empty()) continue;
    size_t found = at;
    while (found < out.size() && out[found] != x.echo) ++found;
    ASSERT_LT(found, out.size()) << "never echoed: " << x.echo;
    if (pending) {
      bool answered = false;
      for (size_t k = at; k < found; ++k) answered |= !out[k].empty();
      ASSERT_TRUE(answered) << "no output before: " << x.echo;
    }
    at = found + 1;
    pending = true;
    ++echoed;
  }
  if (pending) {
    bool answered = false;
    for (size_t k = at; k < out.size(); ++k) answered |= !out[k].empty();
    EXPECT_TRUE(answered) << "no output after the last echo";
  }
  EXPECT_GT(echoed, 0);
}

TEST(CliFuzzTest, MutatedLinesEachGetOutputAndTheProcessExits) {
  ExpectEveryLineAnswered(
      MutatedInput(0xC1, std::numeric_limits<int>::max()), {});
}

TEST(CliFuzzTest, DurableLifecyclePassThenRecovers) {
  const std::string dir = ::testing::TempDir() + "htapex_cli_fuzz_" +
                          std::to_string(getpid());
  std::filesystem::remove_all(dir);
  // Each durable and lifecycle command runs once unmutated first, so every
  // seed reaches those paths; the swap among them counts against the cap.
  ExpectEveryLineAnswered(
      "\\correct 3 an expert's corrected text\n\\expire 5\n\\snapshot\n"
      "\\swap\n\\rollback\n" +
          MutatedInput(0xC2, kMaxSwaps - 1),
      {"--data-dir=" + dir, "--lifecycle"});

  const CliRun run =
      RunCli("\\kb\n\\q\n", {"--data-dir=" + dir, "--recover"}, kTimeLimit);
  std::filesystem::remove_all(dir);
  ASSERT_FALSE(run.timed_out);
  ASSERT_TRUE(WIFEXITED(run.status) && WEXITSTATUS(run.status) == 0)
      << "recovery run status " << run.status << "; output:\n" << run.out;
  EXPECT_NE(run.out.find("recovered KB from " + dir), std::string::npos)
      << run.out;
  int listed = 0;
  for (const std::string& line : Split(run.out, '\n')) {
    if (StartsWith(line, "[") && line.find(" faster | ") != std::string::npos) {
      ++listed;
    }
  }
  EXPECT_GT(listed, 0) << run.out;
}

}  // namespace
}  // namespace htapex
