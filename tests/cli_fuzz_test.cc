// CLI-line fuzz loop: seeded byte mutations of REPL lines (generator SQL and
// every backslash command, with and without arguments) piped through one
// htapex_cli process. Every line the CLI echoes must get output before the
// next echo, and the process must exit 0 within a time bound. A mutated line
// that quits ends the run; the run always ends with a plain `\q`.
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
#include <iterator>
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

struct CliRun {
  std::string out;
  bool timed_out = false;
  int status = -1;  // waitpid status
};

/// Runs the CLI on `input` as its stdin (a file, so the REPL echoes each
/// line) and collects stdout until it exits or `limit` passes.
CliRun RunCli(const std::string& input, std::chrono::seconds limit) {
  CliRun run;
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
    execl(HTAPEX_CLI_PATH, HTAPEX_CLI_PATH, "--faults=off",
          static_cast<char*>(nullptr));
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

TEST(CliFuzzTest, MutatedLinesEachGetOutputAndTheProcessExits) {
  static const char* kTokens[] = {"\\", ";", "'", "\"", "(", ")", ",", " ",
                                  "*", "--", "\t", "4294967296", "-1", "0",
                                  "SELECT", "FROM", "WHERE", "\x80", "\xff"};
  const std::vector<std::string> corpus = Corpus();
  const uint64_t seed = FaultInjector::EnvSeed(42);
  std::string input;
  for (int i = 0; i < kLines; ++i) {
    const auto t = static_cast<uint64_t>(i);
    std::string line =
        corpus[MixFaultSeed(seed, 0xC1, t, 0) % corpus.size()];
    const int n = static_cast<int>(MixFaultSeed(seed, 0xC1, t, 1) % 4);
    for (int m = 0; m < n; ++m) {
      const uint64_t d = MixFaultSeed(seed, 0xC1, t, m + 2);
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
    input += line + "\n";
  }
  input += "\\q\n";

  const CliRun run = RunCli(input, kTimeLimit);
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

}  // namespace
}  // namespace htapex
