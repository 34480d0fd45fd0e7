#include "vqlbench/live.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <barrier>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "src/server/client.h"

namespace vqlbench {

using Clock = std::chrono::steady_clock;

ServerProcess& ServerProcess::operator=(ServerProcess&& other) noexcept {
  if (this != &other) {
    Stop();
    pid_ = other.pid_;
    out_fd_ = other.out_fd_;
    port_ = other.port_;
    other.pid_ = -1;
    other.out_fd_ = -1;
  }
  return *this;
}

vqldb::Result<ServerProcess> ServerProcess::Start(
    const std::string& binary, const std::vector<std::string>& args,
    const std::string& log_path) {
  int pipefd[2];
  if (pipe(pipefd) != 0) return vqldb::Status::IOError("pipe failed");
  std::vector<std::string> argv_s = {binary};
  argv_s.insert(argv_s.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_s) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t parent = getpid();
  pid_t pid = fork();
  if (pid < 0) return vqldb::Status::IOError("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(pipefd[1], STDOUT_FILENO);
    int log = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (log >= 0) dup2(log, STDERR_FILENO);
    close(pipefd[0]);
    close(pipefd[1]);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(pipefd[1]);
  ServerProcess proc;
  proc.pid_ = pid;
  proc.out_fd_ = pipefd[0];

  // Wait (up to 120 s: loading a large archive) for the port line.
  std::string line;
  auto deadline = Clock::now() + std::chrono::seconds(120);
  while (line.find('\n') == std::string::npos) {
    auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
        deadline - Clock::now());
    if (left.count() <= 0) return vqldb::Status::IOError("vqlsrv did not start");
    pollfd pfd{proc.out_fd_, POLLIN, 0};
    if (poll(&pfd, 1, static_cast<int>(left.count())) <= 0) continue;
    char buf[256];
    ssize_t n = read(proc.out_fd_, buf, sizeof(buf));
    if (n <= 0) return vqldb::Status::IOError("vqlsrv exited during start");
    line.append(buf, static_cast<size_t>(n));
  }
  size_t colon = line.rfind(':', line.find('\n'));
  if (line.rfind("listening on ", 0) != 0 || colon == std::string::npos) {
    return vqldb::Status::IOError("unexpected vqlsrv output: " + line);
  }
  proc.port_ = static_cast<uint16_t>(std::atoi(line.c_str() + colon + 1));
  return proc;
}

double ServerProcess::PeakRssMb() const {
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
    std::string rest;
    std::getline(in, rest);
  }
  return 0;
}

void ServerProcess::Stop() {
  if (pid_ > 0) {
    kill(pid_, SIGTERM);
    int status = 0;
    auto deadline = Clock::now() + std::chrono::seconds(20);
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (Clock::now() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
  }
  if (out_fd_ >= 0) {
    close(out_fd_);
    out_fd_ = -1;
  }
}

bool ContainsAll(const std::string& body, const std::vector<std::string>& expect) {
  for (const std::string& name : expect) {
    if (body.find("\n  " + name + "\n") == std::string::npos) return false;
  }
  return true;
}

vqldb::Status SendStatement(uint16_t port, const std::string& text) {
  vqldb::server::Client::Options options;
  options.port = port;
  options.io_timeout_ms = 120'000;
  vqldb::server::Client client(options);
  auto r = client.Statement(text);
  if (!r.ok()) return r.status();
  return vqldb::server::StatusFromResponse(*r);
}

std::vector<ClientLog> RunClients(uint16_t port,
                                  std::vector<RequestStream>& streams,
                                  const LoadPlan& plan, double* timed_seconds) {
  const size_t segments = plan.probe ? kProbeRounds : 1;
  const auto segment = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(plan.seconds / static_cast<double>(segments)));
  // Phases: start, then per segment: timed | probe writes | fresh reads.
  // The completion step runs once per phase, with every client parked.
  size_t phase = 0;
  Clock::time_point last;
  Clock::duration timed{};
  auto on_phase = [&]() noexcept {
    auto now = Clock::now();
    if (phase % 3 == 1) timed += now - last;
    last = now;
    ++phase;
  };
  std::barrier sync(static_cast<std::ptrdiff_t>(streams.size()), on_phase);
  std::vector<ClientLog> logs(streams.size());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < streams.size(); ++c) {
    threads.emplace_back([&, c] {
      vqldb::server::Client::Options options;
      options.port = port;
      options.io_timeout_ms = 120'000;
      vqldb::server::Client client(options);
      ClientLog& log = logs[c];
      size_t reads = 0;
      auto issue = [&](const Request& req, std::vector<Outcome>* out) {
        vqldb::server::Request wire;
        wire.type = req.write ? vqldb::server::MsgType::kStatement
                              : vqldb::server::MsgType::kQuery;
        wire.text = req.text;
        auto start = Clock::now();
        auto resp = client.Call(wire);
        Outcome o;
        o.ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
        o.write = req.write;
        o.fresh = req.fresh;
        o.ok = resp.ok() && resp->ok();
        if (o.ok && req.fresh) o.wrong = !ContainsAll(resp->body, req.expect);
        out->push_back(o);
        if (out == &log.timed && o.ok && !req.write && plan.sample_every != 0 &&
            reads++ % plan.sample_every == 0 && log.answers.size() < plan.max_samples) {
          log.answers.push_back(Answer{req.text, resp->body});
        }
      };
      sync.arrive_and_wait();
      for (size_t seg = 0; seg < segments; ++seg) {
        const Clock::time_point until = last + segment;
        size_t n = 0;
        for (; Clock::now() < until; ++n) issue(streams[c].Next(), &log.timed);
        log.segment_requests.push_back(n);
        sync.arrive_and_wait();
        if (!plan.probe) break;
        for (size_t i = 0; i < kProbeWritesPerRound; ++i) {
          issue(streams[c].NextWrite(), &log.probe);
        }
        sync.arrive_and_wait();
        issue(streams[c].Next(), &log.probe);  // the fresh read of the last write
        sync.arrive_and_wait();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *timed_seconds = std::chrono::duration<double>(timed).count();
  return logs;
}

}  // namespace vqlbench
