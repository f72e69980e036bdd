// The stock vqlsrv binary as a child process: spawn it on an archive with
// an ephemeral port, scrape its /metrics, read its peak RSS, and drain it.

#ifndef PERFBENCH_SRC_SERVER_PROC_H_
#define PERFBENCH_SRC_SERVER_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <map>
#include <string>

namespace perfbench {

class ServerProc {
 public:
  ServerProc() = default;
  ~ServerProc() { Stop(); }
  ServerProc(const ServerProc&) = delete;
  ServerProc& operator=(const ServerProc&) = delete;

  /// Starts `binary archive --port=0` (every other setting at its default)
  /// and waits for its "listening on host:port" line. stderr goes to
  /// `log_path`. Returns false (with `*error`) on failure.
  bool Start(const std::string& binary, const std::string& archive,
             const std::string& log_path, std::string* error);

  /// SIGTERM, then waits for the graceful drain (SIGKILL after 30 s).
  /// Returns the drain summary line ("" if none was printed).
  std::string Stop();

  uint16_t port() const { return port_; }

  /// VmHWM from /proc/<pid>/status, in MB (0 when unreadable).
  double PeakRssMb() const;

  /// GET /metrics, parsed into unlabelled sample name -> value, plus
  /// /healthz's live snapshot count as "healthz.snapshots_built".
  bool ScrapeMetrics(std::map<std::string, double>* out) const;

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;  // the child's stdout
  uint16_t port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_SRC_SERVER_PROC_H_
