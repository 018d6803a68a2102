#include "client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <fstream>
#include <iostream>

#include "harness.h"

namespace perfbench {

std::string IngestRequest(const std::string& tenant, const std::string& body) {
  return "POST /v1/tenants/" + tenant +
         "/answers HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: text/csv\r\n"
         "Content-Length: " +
         std::to_string(body.size()) + "\r\n\r\n" + body;
}

std::string GetRequest(const std::string& path) {
  return "GET " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n\r\n";
}

namespace {

struct Conn {
  int fd = -1;
  size_t op = 0;
  size_t sent = 0;
  bool writing = true;
  std::string in;
  int64_t send_ns = 0;
};

int OpenConnection(int port) {
  const int fd = socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  if (fd < 0) return -1;
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  sockaddr_in addr {};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS) {
    close(fd);
    return -1;
  }
  return fd;
}

// Closes a finished connection with a reset instead of a FIN. The
// response is complete (the server closed its side), and the reset keeps
// the server's socket from entering TIME_WAIT: a run opens tens of
// thousands of connections, and the kernel's TIME_WAIT table (capped at
// 65,536) would otherwise carry one run's state into the next for 60 s.
void AbortiveClose(int fd) {
  const linger abort_close{1, 0};
  setsockopt(fd, SOL_SOCKET, SO_LINGER, &abort_close, sizeof(abort_close));
  close(fd);
}

void ParseResponse(const std::string& raw, Op* op, bool keep_body) {
  op->status = raw.size() > 12 ? std::atoi(raw.c_str() + 9) : 0;
  if (!keep_body) return;
  const size_t split = raw.find("\r\n\r\n");
  op->body = split == std::string::npos ? "" : raw.substr(split + 4);
}

}  // namespace

bool RunOps(int port, int connections, bool open_loop,
            std::vector<Op>* ops_ptr) {
  std::vector<Op>& ops = *ops_ptr;
  const int ep = epoll_create1(EPOLL_CLOEXEC);
  if (ep < 0) return false;

  std::vector<Conn> conns(connections);
  std::vector<int> free_conns;
  for (int c = connections - 1; c >= 0; --c) free_conns.push_back(c);
  int max_tenant = 0;
  for (const Op& op : ops) max_tenant = std::max(max_tenant, op.tenant);
  std::vector<bool> posting(max_tenant + 1, false);
  std::deque<size_t> ready;
  size_t next = 0;
  size_t done = 0;
  bool ok = true;
  const int64_t start = NowNs();
  auto due_ns = [&](size_t i) {
    return start + static_cast<int64_t>(ops[i].due_s * 1e9);
  };

  while (done < ops.size() && ok) {
    const int64_t now = NowNs();
    while (next < ops.size() && (!open_loop || due_ns(next) <= now)) {
      ready.push_back(next++);
    }
    for (auto it = ready.begin(); it != ready.end() && !free_conns.empty();) {
      Op& op = ops[*it];
      if (op.kind == Op::Kind::kIngest && posting[op.tenant]) {
        ++it;
        continue;
      }
      const int c = free_conns.back();
      Conn& conn = conns[c];
      conn.fd = OpenConnection(port);
      if (conn.fd < 0) {
        ok = false;
        break;
      }
      free_conns.pop_back();
      conn.op = *it;
      conn.sent = 0;
      conn.writing = true;
      conn.in.clear();
      conn.send_ns = NowNs();
      if (open_loop) op.lateness_s = (conn.send_ns - due_ns(*it)) * 1e-9;
      if (op.kind == Op::Kind::kIngest) posting[op.tenant] = true;
      epoll_event ev {};
      ev.events = EPOLLOUT;
      ev.data.u32 = static_cast<uint32_t>(c);
      epoll_ctl(ep, EPOLL_CTL_ADD, conn.fd, &ev);
      it = ready.erase(it);
    }
    // The open loop polls instead of sleeping, so the generator's own
    // wake-up latency never adds to a request's time from its due time.
    epoll_event events[16];
    const int n = epoll_wait(ep, events, 16, open_loop ? 0 : -1);
    if (n < 0) {
      if (errno == EINTR) continue;
      ok = false;
      break;
    }
    for (int e = 0; e < n; ++e) {
      const uint32_t c = events[e].data.u32;
      Conn& conn = conns[c];
      Op& op = ops[conn.op];
      if (conn.writing) {
        int err = 0;
        socklen_t len = sizeof(err);
        getsockopt(conn.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          std::cerr << "perfbench: connect: " << std::strerror(err) << "\n";
          ok = false;
          break;
        }
        while (conn.sent < op.request.size()) {
          const ssize_t w = write(conn.fd, op.request.data() + conn.sent,
                                  op.request.size() - conn.sent);
          if (w < 0) break;
          conn.sent += static_cast<size_t>(w);
        }
        if (conn.sent == op.request.size()) {
          conn.writing = false;
          epoll_event ev {};
          ev.events = EPOLLIN;
          ev.data.u32 = c;
          epoll_ctl(ep, EPOLL_CTL_MOD, conn.fd, &ev);
        }
        continue;
      }
      char buffer[65536];
      bool closed = false;
      for (;;) {
        const ssize_t r = read(conn.fd, buffer, sizeof(buffer));
        if (r > 0) {
          conn.in.append(buffer, static_cast<size_t>(r));
          continue;
        }
        if (r == 0 || (errno != EAGAIN && errno != EINTR)) closed = true;
        break;
      }
      if (!closed) continue;
      const int64_t end = NowNs();
      op.latency_s =
          (end - (open_loop ? due_ns(conn.op) : conn.send_ns)) * 1e-9;
      op.done_s = (end - start) * 1e-9;
      ParseResponse(conn.in, &op, op.kind != Op::Kind::kIngest);
      epoll_ctl(ep, EPOLL_CTL_DEL, conn.fd, nullptr);
      AbortiveClose(conn.fd);
      conn.fd = -1;
      if (op.kind == Op::Kind::kIngest) posting[op.tenant] = false;
      free_conns.push_back(static_cast<int>(c));
      ++done;
    }
  }
  for (Conn& conn : conns) {
    if (conn.fd >= 0) close(conn.fd);
  }
  close(ep);
  return ok;
}

bool ServerProcess::Start(const std::string& binary,
                          const std::vector<std::string>& args) {
  int out[2];
  if (pipe2(out, O_CLOEXEC) != 0) return false;
  pid_ = fork();
  if (pid_ < 0) return false;
  if (pid_ == 0) {
    // The server must not outlive the benchmark, however it exits.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    dup2(out[1], STDOUT_FILENO);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& arg : args) {
      argv.push_back(const_cast<char*>(arg.c_str()));
    }
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  stdout_fd_ = out[0];
  std::string line;
  char ch = 0;
  while (read(stdout_fd_, &ch, 1) == 1) {
    if (ch == '\n') break;
    line.push_back(ch);
  }
  const std::string prefix = "serving http://127.0.0.1:";
  if (line.rfind(prefix, 0) == 0) {
    port_ = std::atoi(line.c_str() + prefix.size());
  }
  if (port_ <= 0) {
    std::cerr << "perfbench: server did not start: " << line << "\n";
    Stop();
    return false;
  }
  return true;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      status >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  if (stdout_fd_ >= 0) {
    close(stdout_fd_);
    stdout_fd_ = -1;
  }
}

}  // namespace perfbench
