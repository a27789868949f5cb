// Clocks, outside process accounting, child processes, the span ledger and
// the loopback transport probe.
#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cerrno>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "netsample/netsample.h"
#include "perfbench.h"

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {

double rusage_cpu_s(int who) {
  rusage ru{};
  ::getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
}

}  // namespace

double self_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }
double children_cpu_s() { return rusage_cpu_s(RUSAGE_CHILDREN); }

long self_minor_faults() {
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return ru.ru_minflt;
}

double proc_cpu_s(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesized command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = text.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream rest(text.substr(close + 2));
  std::string field;
  double utime = 0, stime = 0;
  for (int i = 3; i <= 15 && (rest >> field); ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

double proc_peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0;
}

double children_peak_rss_mb() {
  rusage ru{};
  ::getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

HostTicks host_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;  // the "cpu" line: user nice system idle iowait irq softirq steal
  HostTicks t;
  double v = 0;
  for (int i = 0; i < 8 && (in >> v); ++i) {
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

double steal_share(const HostTicks& from, const HostTicks& to) {
  const double total = to.total - from.total;
  return total > 0 ? (to.steal - from.steal) / total : 0.0;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  return netsample::stats::quantile_sorted(v, q);
}

std::uint64_t fnv1a(const void* data, std::size_t bytes, std::uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < bytes; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

Child spawn(const std::vector<std::string>& argv, bool capture_stdout) {
  int fds[2] = {-1, -1};
  if (capture_stdout && ::pipe2(fds, O_CLOEXEC) != 0) {
    throw std::runtime_error("pipe failed");
  }
  std::vector<char*> cargv;
  for (const auto& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    if (capture_stdout) ::dup2(fds[1], STDOUT_FILENO);
    ::execv(cargv[0], cargv.data());
    ::_exit(127);
  }
  Child c;
  c.pid = pid;
  if (capture_stdout) {
    ::close(fds[1]);
    c.stdout_fd = fds[0];
  }
  return c;
}

std::string read_fd_line(int fd) {
  std::string line;
  char ch = 0;
  while (::read(fd, &ch, 1) == 1) {
    if (ch == '\n') return line;
    line.push_back(ch);
  }
  return line;
}

bool terminate_and_wait(Child& child) {
  if (child.pid <= 0) return false;
  ::kill(child.pid, SIGTERM);
  int status = 0;
  while (::waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (child.stdout_fd >= 0) ::close(child.stdout_fd);
  child = Child{};
  return WIFEXITED(status) && WEXITSTATUS(status) == 0;
}

// ---- Report ----------------------------------------------------------------

void Report::add(std::string name, double value, std::string unit,
                 std::uint64_t samples) {
  metrics.push_back({std::move(name), value, std::move(unit), samples});
}

void Report::fail(std::uint64_t ops, const std::string& why) {
  failed += ops;
  if (errors.size() < 8) errors.push_back(why);
}

void Report::merge(const Report& other) {
  capture_packets = std::max(capture_packets, other.capture_packets);
  attempted += other.attempted;
  failed += other.failed;
  for (const auto& e : other.errors) {
    if (errors.size() < 8) errors.push_back(e);
  }
  metrics.insert(metrics.end(), other.metrics.begin(), other.metrics.end());
}

// ---- Ledger ----------------------------------------------------------------

std::uint64_t Ledger::begin(const std::string& name, std::uint64_t group,
                            std::uint64_t parent, double start) {
  Span s;
  s.name = name;
  s.parent = parent;
  s.group = group;
  s.start = start;
  spans_.push_back(std::move(s));
  return spans_.size();
}

void Ledger::end(std::uint64_t id) { spans_[id - 1].end = now_s(); }

std::uint64_t Ledger::open(const std::string& name, std::uint64_t group) {
  const std::uint64_t id =
      begin(name, group, open_.empty() ? 0 : open_.back());
  open_.push_back(id);
  return id;
}

void Ledger::close(std::uint64_t id) {
  end(id);
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

std::map<std::string, Ledger::Stage> Ledger::stages() const {
  std::vector<double> child_time(spans_.size() + 1, 0.0);
  for (const auto& s : spans_) {
    if (s.parent != 0) child_time[s.parent] += s.end - s.start;
  }
  std::map<std::string, Stage> out;
  std::map<std::string, std::set<std::uint64_t>> groups;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const auto& s = spans_[i];
    Stage& st = out[s.name];
    st.total_s += s.end - s.start;
    st.self_s += (s.end - s.start) - child_time[i + 1];
    ++st.spans;
    groups[s.name].insert(s.group);
  }
  for (auto& [name, st] : out) st.groups = groups[name].size();
  return out;
}

Ledger::Stage stage(const std::map<std::string, Ledger::Stage>& stages,
                    const std::string& name) {
  const auto it = stages.find(name);
  return it == stages.end() ? Ledger::Stage{} : it->second;
}

double Ledger::counted(const std::string& what) const {
  const auto it = counts_.find(what);
  return it == counts_.end() ? 0.0 : it->second;
}

void Ledger::print(const char* title) const {
  std::printf("%s: %zu spans\n", title, spans_.size());
  std::printf("  %-24s %12s %12s %10s %8s\n", "stage", "self_ms",
              "total_ms", "spans", "groups");
  for (const auto& [name, st] : stages()) {
    std::printf("  %-24s %12.3f %12.3f %10llu %8llu\n", name.c_str(),
                st.self_s * 1e3, st.total_s * 1e3,
                static_cast<unsigned long long>(st.spans),
                static_cast<unsigned long long>(st.groups));
  }
  for (const auto& [what, n] : counts_) {
    std::printf("  count %-18s %.0f\n", what.c_str(), n);
  }
}

// ---- loopback transport probe ----------------------------------------------

TransportProbe probe_transport(std::size_t round_trips) {
  using namespace netsample;
  auto listener = shard::Listener::open("127.0.0.1:0");
  if (!listener.has_value()) throw std::runtime_error("listen failed");
  auto client = shard::dial(listener->address());
  if (!client.has_value()) throw std::runtime_error("dial failed");
  std::unique_ptr<shard::Transport> server;
  while (!server) server = listener->accept_connection();

  // The echo peer: one thread bouncing every line back.
  std::thread echo([&server] {
    std::string line;
    while (server->read_line(&line) == shard::ReadResult::kLine) {
      if (!server->write_line(line)) break;
    }
  });
  auto rtt = [&](const std::string& line, std::size_t n) {
    std::string back;
    std::vector<double> v;
    for (std::size_t i = 0; i < n; ++i) {
      const double t0 = now_s();
      if (!(*client)->write_line(line) ||
          (*client)->read_line(&back) != shard::ReadResult::kLine ||
          back != line) {
        throw std::runtime_error("echo mismatch");
      }
      v.push_back(now_s() - t0);
    }
    return median(v);
  };
  const std::string small = "LEASE 12";
  const std::string big(64 * 1024, 'x');
  TransportProbe p;
  try {
    (void)rtt(small, round_trips / 4 + 1);  // warm-up
    p.small_rtt_s = rtt(small, round_trips);
    const double big_rtt = rtt(big, round_trips / 4 + 1);
    p.ns_per_byte = std::max(0.0, big_rtt - p.small_rtt_s) * 1e9 /
                    (2.0 * static_cast<double>(big.size()));
    p.samples = round_trips;
  } catch (...) {
    (*client)->close();
    echo.join();
    throw;
  }
  (*client)->close();
  echo.join();
  return p;
}

}  // namespace perfbench
