// Mutational scenario probe: every input either runs or is rejected at
// parse time naming its field.
//
//   scenario_probe <scenario_smoke binary> <scenario.json>
//
// For each numeric leaf of the file, writes a copy with the leaf set to 0,
// -1 and 1e30 (plus 0.5 where scenario::schema() says the field holds an
// integer) and runs `scenario_smoke <copy>` in a subprocess under a 30 s
// wall budget.  Two outcomes pass: exit 0 (the mutation ran), or exit 2
// with the leaf's full path ("nodes[0].nic.window_entries") in stderr.
// Anything else -- an abort, a crash, a hang, a failure after parsing, a
// rejection that does not name the field -- is reported with its mutation,
// and the probe goes on with the rest.  Exits 1 when any mutation failed.
#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <stdlib.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "json_leaf.hpp"
#include "scenario/json.hpp"
#include "scenario/scenario.hpp"

using namespace tfsim;
using scenario::Json;

namespace {

constexpr auto kWallBudget = std::chrono::seconds(30);

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

bool integer_field(const std::string& leaf) {
  static const std::vector<scenario::FieldInfo> fields = scenario::schema();
  std::string path;  // the schema spells array elements "[]"
  for (std::size_t i = 0; i < leaf.size(); ++i) {
    path += leaf[i];
    if (leaf[i] == '[') i = leaf.find(']', i) - 1;
  }
  for (const scenario::FieldInfo& f : fields) {
    if (f.path == path) return f.type == scenario::FieldInfo::Type::kInteger;
  }
  throw std::runtime_error("leaf " + leaf + " is not in the scenario schema");
}

/// Runs `smoke file` with stderr captured to `err`; returns the wait status,
/// or nullopt when the run outlived the wall budget (it is then killed).
std::optional<int> run(const std::string& smoke, const std::string& file,
                       const std::string& err) {
  posix_spawn_file_actions_t io;
  posix_spawn_file_actions_init(&io);
  posix_spawn_file_actions_addopen(&io, STDOUT_FILENO, "/dev/null", O_WRONLY,
                                   0);
  posix_spawn_file_actions_addopen(&io, STDERR_FILENO, err.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> argv = {const_cast<char*>(smoke.c_str()),
                             const_cast<char*>(file.c_str()), nullptr};
  pid_t pid = 0;
  const int rc =
      posix_spawn(&pid, smoke.c_str(), &io, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&io);
  if (rc != 0) throw std::runtime_error("cannot spawn " + smoke);
  const auto deadline = std::chrono::steady_clock::now() + kWallBudget;
  int status = 0;
  while (waitpid(pid, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid, SIGKILL);
      waitpid(pid, &status, 0);
      return std::nullopt;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return status;
}

/// Why the outcome fails the property; empty when it passes.
std::string verdict(const std::optional<int>& status, const std::string& leaf,
                    const std::string& err) {
  if (!status.has_value()) return "hang (killed after 30 s)";
  if (WIFSIGNALED(*status)) {
    return "killed by signal " + std::to_string(WTERMSIG(*status));
  }
  const int code = WEXITSTATUS(*status);
  if (code == 0) return "";
  if (code == 2 && err.find(leaf + ":") != std::string::npos) return "";
  return "exit " + std::to_string(code) +
         (code == 2 ? " without naming the field" : "") + ": " +
         err.substr(0, err.find('\n'));
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::fprintf(stderr, "usage: %s <scenario_smoke> <scenario.json>\n",
                 argv[0]);
    return 2;
  }
  const std::string smoke = argv[1];
  const Json doc = Json::parse(slurp(argv[2]));
  std::vector<std::string> leaves;
  scenario::numeric_leaves(doc, "", leaves);

  std::string dir_template =
      (std::filesystem::temp_directory_path() / "scenario_probe.XXXXXX")
          .string();
  if (mkdtemp(dir_template.data()) == nullptr) {
    std::perror("mkdtemp");
    return 2;
  }
  const std::filesystem::path dir = dir_template;
  const std::string file = (dir / "mutation.json").string();
  const std::string err = (dir / "stderr.txt").string();

  std::size_t runs = 0;
  std::size_t failures = 0;
  for (const std::string& leaf : leaves) {
    std::vector<double> values = {0.0, -1.0, 1e30};
    if (integer_field(leaf)) values.push_back(0.5);
    for (const double value : values) {
      const Json mutated =
          scenario::with_leaf(doc, "", leaf, Json::number(value));
      std::ofstream(file) << mutated.dump() << "\n";
      const std::optional<int> status = run(smoke, file, err);
      ++runs;
      const std::string why = verdict(status, leaf, slurp(err));
      if (!why.empty()) {
        ++failures;
        std::printf("FAIL %s = %s: %s\n", leaf.c_str(),
                    Json::number(value).dump().c_str(), why.c_str());
      }
    }
  }
  std::filesystem::remove_all(dir);
  std::printf("%s: %zu mutations of %zu numeric leaves, %zu failed\n",
              argv[2], runs, leaves.size(), failures);
  return failures == 0 ? 0 : 1;
}
