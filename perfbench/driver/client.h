// Loopback HTTP load generator for the serve workloads, plus the handle on
// the crowdtruth_serve process under test.
//
// One client thread drives up to `connections` concurrent requests with
// epoll. The server answers every request with Connection: close, so each
// request is one TCP connection. An operation is eligible to send when a
// connection is free and, for an ingest POST, when no earlier POST of the
// same tenant is still in flight — each tenant's answers therefore reach
// the server in a fixed order, which keeps the work of a run fixed.
#ifndef PERFBENCH_DRIVER_CLIENT_H_
#define PERFBENCH_DRIVER_CLIENT_H_

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Op {
  enum class Kind { kIngest, kTruthCsv, kTruthJson, kMetrics };
  Kind kind = Kind::kIngest;
  int tenant = 0;
  int rows = 0;
  std::string request;  // full wire bytes
  // Open loop: seconds after the schedule start when the op is due.
  // Closed loop: ignored (an op is due when it is sent).
  double due_s = 0.0;

  // Filled by the client.
  int status = 0;
  std::string body;
  double latency_s = 0.0;   // completion minus due (open) or send (closed)
  double lateness_s = 0.0;  // send minus due (open loop only)
  double done_s = 0.0;      // completion, seconds after the start of RunOps
};

std::string IngestRequest(const std::string& tenant, const std::string& body);
std::string GetRequest(const std::string& path);

// Runs `ops` (in order) against 127.0.0.1:`port`. Open loop: ops are
// released at their due times (the client thread polls rather than
// sleeps); closed loop: as fast as connections free up. Keeps the
// response bodies of reads and scrapes. Returns false on a socket-level
// error.
bool RunOps(int port, int connections, bool open_loop, std::vector<Op>* ops);

// The crowdtruth_serve process under test.
class ServerProcess {
 public:
  ServerProcess() = default;
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;
  ~ServerProcess() { Stop(); }
  // Starts the binary with `args`, waits for its "serving http://..." line
  // and records the port. Returns false if it does not come up.
  bool Start(const std::string& binary, const std::vector<std::string>& args);
  int port() const { return port_; }
  // VmHWM of the running process, in MiB.
  double PeakRssMb() const;
  // SIGTERM and wait; idempotent.
  void Stop();

 private:
  pid_t pid_ = -1;
  int port_ = 0;
  int stdout_fd_ = -1;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVER_CLIENT_H_
