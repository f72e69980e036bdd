#include "perfbench/src/server_proc.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>

#include "src/server/client.h"

namespace perfbench {
namespace {

// Reads one '\n'-terminated line from `fd` within `timeout_ms`.
bool ReadLine(int fd, int timeout_ms, std::string* line) {
  line->clear();
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(timeout_ms);
  for (;;) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                    deadline - std::chrono::steady_clock::now())
                    .count();
    if (left <= 0) return false;
    pollfd p{fd, POLLIN, 0};
    int rc = ::poll(&p, 1, static_cast<int>(left));
    if (rc < 0 && errno == EINTR) continue;
    if (rc <= 0) return false;
    char c;
    ssize_t n = ::read(fd, &c, 1);
    if (n <= 0) return false;
    if (c == '\n') return true;
    line->push_back(c);
  }
}

}  // namespace

bool ServerProc::Start(const std::string& binary, const std::string& archive,
                       const std::string& log_path, std::string* error) {
  int fds[2];
  if (::pipe2(fds, O_CLOEXEC) != 0) {
    *error = "pipe failed";
    return false;
  }
  pid_t pid = ::fork();
  if (pid < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    *error = "fork failed";
    return false;
  }
  if (pid == 0) {
    ::dup2(fds[1], STDOUT_FILENO);
    int log = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) ::dup2(log, STDERR_FILENO);
    const char* argv[] = {binary.c_str(), archive.c_str(), "--port=0", nullptr};
    ::execv(binary.c_str(), const_cast<char* const*>(argv));
    ::_exit(127);
  }
  ::close(fds[1]);
  pid_ = pid;
  out_fd_ = fds[0];
  std::string line;
  // Loading a 1e5-fact archive takes seconds; allow generously.
  while (ReadLine(out_fd_, 120'000, &line)) {
    const std::string prefix = "listening on ";
    if (line.rfind(prefix, 0) == 0) {
      port_ = static_cast<uint16_t>(
          std::strtoul(line.substr(line.rfind(':') + 1).c_str(), nullptr, 10));
      return port_ != 0;
    }
  }
  *error = "vqlsrv did not report its port (see " + log_path + ")";
  Stop();
  return false;
}

std::string ServerProc::Stop() {
  std::string summary;
  if (pid_ > 0) {
    ::kill(pid_, SIGTERM);
    std::string line;
    while (out_fd_ >= 0 && ReadLine(out_fd_, 30'000, &line)) {
      if (line.rfind("drain complete: ", 0) == 0) summary = line.substr(16);
    }
    int status = 0;
    auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (::waitpid(pid_, &status, WNOHANG) == 0) {
      if (std::chrono::steady_clock::now() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    ::close(out_fd_);
    out_fd_ = -1;
  }
  return summary;
}

double ServerProc::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    in.ignore(1 << 20, '\n');
  }
  return 0;
}

bool ServerProc::ScrapeMetrics(std::map<std::string, double>* out) const {
  auto body = vqldb::server::HttpGet("127.0.0.1", port_, "/metrics");
  if (!body.ok()) return false;
  out->clear();
  std::istringstream in(*body);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t sp = line.find(' ');
    if (sp == std::string::npos || line.find('{') < sp) continue;
    (*out)[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  // vqldb_server_snapshots_built_total is synced only at shutdown; the live
  // count is in /healthz.
  auto health = vqldb::server::HttpGet("127.0.0.1", port_, "/healthz");
  if (!health.ok()) return false;
  const std::string key = "\"snapshots_built\":";
  size_t at = health->find(key);
  if (at == std::string::npos) return false;
  (*out)["healthz.snapshots_built"] =
      std::strtod(health->c_str() + at + key.size(), nullptr);
  return true;
}

}  // namespace perfbench
