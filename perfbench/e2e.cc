// perfbench_e2e — the benchmark's end-to-end driver. It measures hc2l the way
// a user meets it: the hc2l CLI generates the seeded road network and builds
// the index, hc2ld serves it, and this process drives hc2ld over loopback TCP
// with one of two traffic mixes, then checks the answers against its own
// Dijkstra. It links nothing from the library.
//
//   perfbench_e2e --workload W --seed N --seconds T --trace 0|1
//                 --bin DIR --work DIR
//
// --bin holds the hc2l and hc2ld executables; --work is scratch space for
// the graph, index files, logs and span files. Prints one JSON object on
// stdout: {"attempted","failed","wrong","checked","metrics":{...},"notes":{...}}.
// With --trace 0 the run serves kInstances daemon instances in turn, each
// for T/kInstances seconds, and the metrics are the end-to-end ones.
// With --trace 1 one daemon serves kTraceRounds rounds of an untraced and a
// traced window on the same traffic, then a socket probe and route checks;
// the metrics are the reactor and tracing per-layer ones
// (perfbench/README.md).

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <charconv>
#include <chrono>
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <queue>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

namespace {

// ------------------------------------------------------------ basics ---

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<pid_t> g_children;  // stopped by Fail() on any error path

[[noreturn]] void Fail(const char* fmt, ...) {
  std::va_list args;
  va_start(args, fmt);
  std::fprintf(stderr, "perfbench_e2e: ");
  std::vfprintf(stderr, fmt, args);
  std::fprintf(stderr, "\n");
  va_end(args);
  for (const pid_t pid : g_children) {
    kill(pid, SIGKILL);
    waitpid(pid, nullptr, 0);
  }
  std::_Exit(1);  // load threads may still run; skip static destructors
}

/// SplitMix64: the benchmark's only source of randomness, so one seed fixes
/// every input.
struct Rng {
  uint64_t state;
  explicit Rng(uint64_t seed) : state(seed) {}
  uint64_t Next() {
    state += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  uint32_t Below(uint32_t n) { return static_cast<uint32_t>(Next() % n); }
};

uint64_t StreamSeed(uint64_t seed, uint64_t stream) {
  Rng r(seed * 0x2545f4914f6cdd1dULL + stream);
  return r.Next();
}

void AppendUint(std::string* out, uint64_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

double Percentile(std::vector<uint32_t>* v, double q) {
  if (v->empty()) return 0.0;
  const size_t idx =
      static_cast<size_t>(q * static_cast<double>(v->size() - 1));
  std::nth_element(v->begin(), v->begin() + idx, v->end());
  return (*v)[idx];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

// ------------------------------------------------------------- graph ---

/// The road network as the oracle sees it: CSR adjacency over undirected
/// edges, with an index from each arc to its edge's weight.
struct RoadGraph {
  uint32_t n = 0;
  std::vector<uint32_t> offsets;  // n + 1
  std::vector<uint32_t> to;       // arc heads
  std::vector<uint32_t> edge_of;  // arc -> edge index
  std::vector<std::array<uint32_t, 2>> edges;  // u < v
  std::vector<uint32_t> weights;               // per edge, as generated

  /// Index of edge {u, v}, or -1 when there is none.
  int64_t EdgeIndex(uint32_t u, uint32_t v) const {
    if (u >= n || v >= n) return -1;
    for (uint32_t a = offsets[u]; a < offsets[u + 1]; ++a) {
      if (to[a] == v) return edge_of[a];
    }
    return -1;
  }
};

/// Reads a DIMACS .gr file the way hc2l does: each `a u v w` line is an
/// undirected edge, duplicates keep the minimum weight, self-loops drop.
RoadGraph ReadDimacs(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) Fail("cannot open %s", path.c_str());
  RoadGraph g;
  std::vector<std::array<uint32_t, 3>> raw;  // u, v, w
  char line[256];
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    unsigned long long a = 0, b = 0, c = 0;
    if (line[0] == 'p' &&
        std::sscanf(line, "p sp %llu %llu", &a, &b) == 2) {
      g.n = static_cast<uint32_t>(a);
      raw.reserve(b);
    } else if (line[0] == 'a' &&
               std::sscanf(line, "a %llu %llu %llu", &a, &b, &c) == 3) {
      if (a == 0 || b == 0 || a > g.n || b > g.n || a == b) continue;
      const uint32_t u = static_cast<uint32_t>(std::min(a, b) - 1);
      const uint32_t v = static_cast<uint32_t>(std::max(a, b) - 1);
      raw.push_back({u, v, static_cast<uint32_t>(c)});
    }
  }
  std::fclose(f);
  if (g.n == 0 || raw.empty()) Fail("%s holds no graph", path.c_str());
  std::sort(raw.begin(), raw.end());
  std::vector<uint32_t> degree(g.n, 0);
  for (size_t i = 0; i < raw.size(); ++i) {
    if (i > 0 && raw[i][0] == raw[i - 1][0] && raw[i][1] == raw[i - 1][1]) {
      continue;  // sorted: the first copy has the minimum weight
    }
    g.edges.push_back({raw[i][0], raw[i][1]});
    g.weights.push_back(raw[i][2]);
    ++degree[raw[i][0]];
    ++degree[raw[i][1]];
  }
  g.offsets.assign(g.n + 1, 0);
  for (uint32_t v = 0; v < g.n; ++v) g.offsets[v + 1] = g.offsets[v] + degree[v];
  g.to.resize(g.offsets[g.n]);
  g.edge_of.resize(g.offsets[g.n]);
  std::vector<uint32_t> fill(g.offsets.begin(), g.offsets.end() - 1);
  for (uint32_t e = 0; e < g.edges.size(); ++e) {
    const auto [u, v] = g.edges[e];
    g.to[fill[u]] = v;
    g.edge_of[fill[u]++] = e;
    g.to[fill[v]] = u;
    g.edge_of[fill[v]++] = e;
  }
  return g;
}

constexpr uint64_t kInf = UINT64_MAX;

/// Textbook Dijkstra — the benchmark's correctness oracle, independent of
/// the library under test.
class Oracle {
 public:
  explicit Oracle(const RoadGraph& g) : g_(g), dist_(g.n, kInf) {}

  /// d(s, t); stops once t is settled.
  uint64_t Distance(uint32_t s, uint32_t t) {
    Run(s, t);
    return dist_[t];
  }

  /// d(s, v) for every v.
  const std::vector<uint64_t>& From(uint32_t s) {
    Run(s, UINT32_MAX);
    return dist_;
  }

 private:
  void Run(uint32_t s, uint32_t target) {
    const std::vector<uint32_t>& w = g_.weights;
    std::fill(dist_.begin(), dist_.end(), kInf);
    using Item = std::pair<uint64_t, uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<Item>> heap;
    dist_[s] = 0;
    heap.push({0, s});
    while (!heap.empty()) {
      const auto [d, v] = heap.top();
      heap.pop();
      if (d != dist_[v]) continue;
      if (v == target) return;
      for (uint32_t a = g_.offsets[v]; a < g_.offsets[v + 1]; ++a) {
        const uint64_t nd = d + w[g_.edge_of[a]];
        if (nd < dist_[g_.to[a]]) {
          dist_[g_.to[a]] = nd;
          heap.push({nd, g_.to[a]});
        }
      }
    }
  }

  const RoadGraph& g_;
  std::vector<uint64_t> dist_;
};

// ---------------------------------------------------------- processes ---

/// Starts argv[0] with stdout/stderr appended to `log_path`, or stdout on a
/// pipe whose read end lands in *stdout_fd. The child dies with this process
/// (PR_SET_PDEATHSIG), so a killed benchmark leaves no daemon behind.
pid_t Spawn(const std::vector<std::string>& argv, const std::string& log_path,
            int* stdout_fd) {
  int pipe_fds[2] = {-1, -1};
  if (stdout_fd != nullptr && pipe(pipe_fds) != 0) Fail("pipe failed");
  const int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                          0644);
  if (log_fd < 0) Fail("cannot open %s", log_path.c_str());
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) Fail("fork failed");
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (getppid() != parent) _exit(127);
    dup2(stdout_fd != nullptr ? pipe_fds[1] : log_fd, STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    std::vector<char*> args;
    for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
    args.push_back(nullptr);
    execv(args[0], args.data());
    _exit(127);
  }
  close(log_fd);
  if (stdout_fd != nullptr) {
    close(pipe_fds[1]);
    *stdout_fd = pipe_fds[0];
  }
  g_children.push_back(pid);
  return pid;
}

void Reap(pid_t pid) {
  g_children.erase(std::remove(g_children.begin(), g_children.end(), pid),
                   g_children.end());
}

/// Runs argv to completion; fails the benchmark on a non-zero exit.
void RunTool(const std::vector<std::string>& argv, const std::string& log) {
  const pid_t pid = Spawn(argv, log, nullptr);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  Reap(pid);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    Fail("%s failed (see %s)", argv[0].c_str(), log.c_str());
  }
}

/// Sends `sig`, waits up to 10 s, then SIGKILLs.
void StopProcess(pid_t pid, int sig) {
  kill(pid, sig);
  for (int i = 0; i < 1000; ++i) {
    if (waitpid(pid, nullptr, WNOHANG) == pid) {
      Reap(pid);
      return;
    }
    usleep(10'000);
  }
  kill(pid, SIGKILL);
  waitpid(pid, nullptr, 0);
  Reap(pid);
}

/// VmHWM — peak resident set — of a live process, in kB.
uint64_t PeakRssKb(pid_t pid) {
  std::ifstream status("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtoull(line.c_str() + 6, nullptr, 10);
  }
  Fail("no VmHWM for pid %d", static_cast<int>(pid));
}

/// CPU time — user + system, all threads — a live process has used, in s.
/// Time the hypervisor stole from its threads is not in it.
double CpuSeconds(pid_t pid) {
  std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
  std::string text;
  std::getline(stat, text);
  // Fields after the parenthesised command name: state is field 3, utime
  // and stime are fields 14 and 15.
  const size_t paren = text.rfind(')');
  if (paren == std::string::npos) Fail("no stat for pid %d", static_cast<int>(pid));
  const char* p = text.c_str() + paren + 2;
  char* end = nullptr;
  for (int field = 3; field < 14; ++field) {
    p = std::strchr(p, ' ');
    if (p == nullptr) Fail("short stat for pid %d", static_cast<int>(pid));
    ++p;
  }
  const double utime = std::strtod(p, &end);
  const double stime = std::strtod(end, nullptr);
  return (utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

// ---------------------------------------------------------------- net ---

int Connect(uint16_t port) {
  const int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) Fail("socket failed");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    close(fd);
    return -1;
  }
  const int one = 1;
  setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool SendAll(int fd, std::string_view data) {
  while (!data.empty()) {
    const ssize_t n = send(fd, data.data(), data.size(), MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    data.remove_prefix(static_cast<size_t>(n));
  }
  return true;
}

/// Buffered reader splitting a socket's byte stream into response lines.
class LineReader {
 public:
  explicit LineReader(int fd) : fd_(fd) {}

  /// The next complete line (without '\n') if one is buffered. The view
  /// stays valid until the next Fill().
  bool TryLine(std::string_view* line) {
    const size_t nl = buf_.find('\n', scan_);
    if (nl == std::string::npos) {
      scan_ = buf_.size();
      return false;
    }
    *line = std::string_view(buf_).substr(start_, nl - start_);
    start_ = scan_ = nl + 1;
    return true;
  }

  /// One recv() into the buffer; false on EOF or error. With `block` false
  /// an empty socket returns true without data.
  bool Fill(bool block) {
    if (start_ > 0 && start_ * 2 >= buf_.size()) {
      buf_.erase(0, start_);
      scan_ -= start_;
      start_ = 0;
    }
    const size_t old = buf_.size();
    buf_.resize(old + (1 << 16));
    ssize_t n;
    do {
      n = recv(fd_, buf_.data() + old, 1 << 16, block ? 0 : MSG_DONTWAIT);
    } while (n < 0 && errno == EINTR);
    buf_.resize(old + (n > 0 ? static_cast<size_t>(n) : 0));
    if (n < 0 && !block && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      return true;
    }
    return n > 0;
  }

  /// Blocks until a full line is buffered.
  bool ReadLine(std::string_view* line) {
    while (!TryLine(line)) {
      if (!Fill(true)) return false;
    }
    return true;
  }

 private:
  int fd_;
  std::string buf_;
  size_t start_ = 0;  // first unconsumed byte
  size_t scan_ = 0;   // no '\n' in [start_, scan_)
};

/// One request line on a fresh connection; returns the response line.
std::string Exchange(uint16_t port, const std::string& request) {
  const int fd = Connect(port);
  if (fd < 0) Fail("cannot connect to hc2ld on port %u", port);
  LineReader reader(fd);
  std::string_view line;
  if (!SendAll(fd, request) || !reader.ReadLine(&line)) {
    close(fd);
    Fail("no answer to %s", request.c_str());
  }
  std::string out(line);
  close(fd);
  return out;
}

/// The number after `"key":` in `json` (searched from `from`), or -1.
double JsonNumber(std::string_view json, std::string_view key,
                  size_t from = 0) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const size_t at = json.find(needle, from);
  if (at == std::string_view::npos) return -1.0;
  double v = -1.0;
  const char* p = json.data() + at + needle.size();
  std::from_chars(p, json.data() + json.size(), v);
  return v;
}

/// A quantile inside one of the "info" histograms ({"count":..,"p50":..}).
double InfoHistogram(std::string_view json, std::string_view histogram,
                     std::string_view quantile) {
  const size_t at = json.find("\"" + std::string(histogram) + "\":{");
  if (at == std::string_view::npos) return -1.0;
  return JsonNumber(json, quantile, at);
}

/// Parses one unsigned integer or `null` (kInf) at *p; advances past it.
bool ParseDist(const char** p, const char* end, uint64_t* out) {
  if (end - *p >= 4 && std::memcmp(*p, "null", 4) == 0) {
    *out = kInf;
    *p += 4;
    return true;
  }
  const auto res = std::from_chars(*p, end, *out);
  if (res.ec != std::errc()) return false;
  *p = res.ptr;
  return true;
}

/// Parses the array following `"key":[` into *out; false when malformed.
bool ParseArray(std::string_view line, std::string_view key,
                std::vector<uint64_t>* out) {
  out->clear();
  const std::string needle = "\"" + std::string(key) + "\":[";
  const size_t at = line.find(needle);
  if (at == std::string_view::npos) return false;
  const char* p = line.data() + at + needle.size();
  const char* end = line.data() + line.size();
  if (p < end && *p == ']') return true;
  for (;;) {
    uint64_t v = 0;
    if (!ParseDist(&p, end, &v)) return false;
    out->push_back(v);
    if (p >= end) return false;
    if (*p == ']') return true;
    if (*p != ',') return false;
    ++p;
  }
}

bool IsOk(std::string_view line) {
  return line.substr(0, 11) == "{\"ok\":true,";
}

// -------------------------------------------------------------- spans ---

/// A client-side span, recorded only in the traced window: the span
/// (parent_layer, parent_id) caused it; an empty parent_layer means none.
struct Span {
  const char* layer;
  uint64_t id;
  const char* parent_layer;
  uint64_t parent_id;
  int64_t start;
  int64_t end;
};

/// Per-thread span buffer: a fixed ring, so tracing costs the same at any
/// request rate and memory stays bounded; the newest kCapacity spans win.
class SpanRing {
 public:
  static constexpr size_t kCapacity = size_t{1} << 16;

  void Enable() { spans_.resize(kCapacity); }

  void Record(const char* layer, uint64_t id, const char* parent_layer,
              uint64_t parent_id, int64_t start, int64_t end) {
    spans_[next_++ % kCapacity] = {layer, id, parent_layer, parent_id, start,
                                   end};
  }

  void AppendCsv(std::string* out) const {
    const size_t count = std::min<uint64_t>(next_, kCapacity);
    for (size_t i = 0; i < count; ++i) {
      const Span& s = spans_[(next_ - count + i) % kCapacity];
      out->append(s.layer);
      out->push_back(',');
      AppendUint(out, s.id);
      out->push_back(',');
      out->append(s.parent_layer);
      out->push_back(',');
      AppendUint(out, s.parent_id);
      out->push_back(',');
      AppendUint(out, static_cast<uint64_t>(s.start));
      out->push_back(',');
      AppendUint(out, static_cast<uint64_t>(s.end));
      out->push_back('\n');
    }
  }

 private:
  std::vector<Span> spans_;
  uint64_t next_ = 0;
};

void WriteSpans(const std::string& path, const std::vector<SpanRing>& rings) {
  std::string csv = "layer,id,parent_layer,parent_id,start_ns,end_ns\n";
  for (const SpanRing& r : rings) r.AppendCsv(&csv);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) Fail("cannot write %s", path.c_str());
  std::fwrite(csv.data(), 1, csv.size(), f);
  std::fclose(f);
}

// ------------------------------------------------------------ results ---

/// Per-thread outcome counters. `wrong` counts answers the oracle rejected;
/// `failed` counts ok:false, shed, malformed and missing answers.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t shed = 0;
  uint64_t wrong = 0;
  uint64_t checked = 0;

  void Add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
    shed += o.shed;
    wrong += o.wrong;
    checked += o.checked;
  }
  void Reject(std::string_view line) {
    if (++failed <= 3) {
      std::fprintf(stderr, "perfbench_e2e: rejected answer: %.*s\n",
                   static_cast<int>(std::min<size_t>(line.size(), 200)),
                   line.data());
    }
    if (line.find("\"Overloaded\"") != std::string_view::npos) ++shed;
  }
};

/// A sampled pairwise answer, checked after the run.
struct PointSample {
  uint32_t s, t;
  uint64_t answer;
};

/// What one traffic window produced. Answers are binned into fixed time
/// slices from the window's start; rates and percentiles are reported as
/// medians over the full slices, so a burst of noise from outside the
/// benchmark (this runs on shared cores) costs one slice, not the run.
struct Window {
  Tally tally;
  int64_t start = 0;
  int64_t slice_ns = 1'000'000'000;
  std::vector<uint64_t> pairs;                    // per slice
  std::vector<std::vector<uint32_t>> latency_ns;  // per slice, primary requests
  std::vector<uint32_t> batch_ns;
  uint64_t all_pairs = 0;  // warm-up and tail included

  /// An answer carrying `n` distance pairs arrived at `at`; a negative
  /// `latency` keeps it out of the primary latency distribution.
  void Answered(int64_t at, uint64_t n, int64_t latency) {
    all_pairs += n;
    if (at < start) return;  // warm-up traffic
    const size_t k = static_cast<size_t>((at - start) / slice_ns);
    if (pairs.size() <= k) {
      pairs.resize(k + 1, 0);
      latency_ns.resize(k + 1);
    }
    pairs[k] += n;
    if (latency >= 0) {
      latency_ns[k].push_back(
          static_cast<uint32_t>(std::min<int64_t>(latency, UINT32_MAX)));
    }
  }
};

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string bin;
  std::string work;
};

constexpr uint32_t kVertices = 20000;
// The graph is the same in every run; --seed drives the traffic. Graphs of
// different seeds differ in label lengths and answer sizes, which would move
// bulk throughput by a few percent and hide smaller changes in the spread.
constexpr uint64_t kGraphSeed = 1;
constexpr int kBurst = 16;          // point lines pipelined per burst
constexpr uint32_t kMatrixSide = 256;
constexpr uint32_t kBatchTargets = 4096;
constexpr uint32_t kReplayPairs = 4096;
constexpr uint32_t kRouteChecks = 64;  // replay pairs also sent as routes
constexpr double kWarmup = 0.25;  // seconds of unmeasured traffic per window
constexpr int kInstances = 10;    // daemon instances per measured run
constexpr int kSetups = 3;        // instances that build their own index
constexpr int kTraceRounds = 6;   // untraced/traced window pairs, --trace 1

// --------------------------------------------------- point-burst load ---

/// Closed loop: each thread owns two connections, each pipelining bursts of
/// kBurst single-pair point lines over uniform random pairs. A request's
/// latency runs from the write of its burst to the arrival of its line.
struct PointConn {
  int fd = -1;
  LineReader reader{-1};
  Rng rng{0};
  uint32_t n = 0;  // vertex ids are drawn from [0, n)
  uint32_t src[kBurst] = {}, dst[kBurst] = {};
  int answered = kBurst;
  int64_t sent_at = 0;
  uint64_t seq = 0;
  uint64_t burst_id = 0;
  bool done = false;
};

void SendBurst(PointConn* c, std::string* out) {
  out->clear();
  for (int i = 0; i < kBurst; ++i) {
    c->src[i] = c->rng.Below(c->n);
    c->dst[i] = c->rng.Below(c->n);
    out->append("{\"op\":\"point\",\"sources\":[");
    AppendUint(out, c->src[i]);
    out->append("],\"targets\":[");
    AppendUint(out, c->dst[i]);
    out->append("]}\n");
  }
  c->answered = 0;
  c->burst_id = c->seq;
  c->sent_at = NowNs();
  if (!SendAll(c->fd, *out)) Fail("point burst send failed");
}

void PointBurstThread(uint16_t port, uint64_t seed, int thread, int64_t end,
                      uint32_t n, Window* w, std::vector<PointSample>* samples,
                      SpanRing* spans) {
  constexpr int kConns = 2;
  PointConn conns[kConns];
  std::string out;
  for (int i = 0; i < kConns; ++i) {
    conns[i].n = n;
    conns[i].fd = Connect(port);
    if (conns[i].fd < 0) Fail("point connect failed");
    conns[i].reader = LineReader(conns[i].fd);
    conns[i].rng = Rng(StreamSeed(seed, 100 + thread * kConns + i));
    conns[i].seq = (static_cast<uint64_t>(thread * kConns + i) << 40) + 1;
  }
  for (PointConn& c : conns) SendBurst(&c, &out);
  std::vector<uint64_t> d;
  for (int open = kConns; open > 0;) {
    pollfd fds[kConns];
    for (int i = 0; i < kConns; ++i) {
      fds[i] = {conns[i].done ? -1 : conns[i].fd, POLLIN, 0};
    }
    const int ready = poll(fds, kConns, 10'000);
    if (ready < 0 && errno == EINTR) continue;
    if (ready <= 0) Fail("hc2ld stopped answering point bursts");
    for (int i = 0; i < kConns; ++i) {
      if (fds[i].revents == 0) continue;
      PointConn& c = conns[i];
      if (!c.reader.Fill(false)) Fail("point connection closed");
      const int64_t now = NowNs();
      std::string_view line;
      while (c.answered < kBurst && c.reader.TryLine(&line)) {
        const int k = c.answered++;
        const uint64_t id = c.seq++;
        ++w->tally.attempted;
        if (!IsOk(line) || !ParseArray(line, "distances", &d) || d.size() != 1) {
          w->tally.Reject(line);
          continue;
        }
        w->Answered(now, 1, now - c.sent_at);
        if ((id & 1023) == 0 && samples->size() < 32) {
          samples->push_back({c.src[k], c.dst[k], d[0]});
        }
        if (spans != nullptr) {
          spans->Record("client.request", id, "client.burst", c.burst_id,
                        c.sent_at, now);
        }
      }
      if (c.answered == kBurst) {
        if (spans != nullptr) {
          spans->Record("client.burst", c.burst_id, "", 0, c.sent_at, now);
        }
        if (now < end) {
          SendBurst(&c, &out);
        } else {
          c.done = true;
          --open;
        }
      }
    }
  }
  for (PointConn& c : conns) close(c.fd);
}

// ----------------------------------------------- dispatch-matrix load ---

/// A sampled bulk answer: row-major distances for sources x targets.
struct BulkSample {
  std::vector<uint32_t> sources, targets;
  std::vector<uint64_t> distances;
};

void AppendIds(std::string* out, const std::vector<uint32_t>& ids) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (i > 0) out->push_back(',');
    AppendUint(out, ids[i]);
  }
}

/// Closed loop, one request in flight: alternate a kMatrixSide^2 matrix and a
/// 1 x kBatchTargets batch. Latency per request from send to the full line.
void DispatchThread(uint16_t port, uint64_t seed, int thread, int64_t end,
                    uint32_t n, Window* w, std::vector<BulkSample>* samples,
                    SpanRing* spans) {
  const int fd = Connect(port);
  if (fd < 0) Fail("dispatch connect failed");
  LineReader reader(fd);
  Rng rng(StreamSeed(seed, 200 + thread));
  std::string out;
  std::vector<uint32_t> sources, targets;
  std::vector<uint64_t> dists;
  const uint64_t base_id = (static_cast<uint64_t>(thread) << 40) + 1;
  for (uint64_t i = 0; NowNs() < end; ++i) {
    // Connection 1 starts on a batch: the two loops have the same period,
    // and starting them in phase would have their matrices collide on the
    // engine for as long as the phase happened to last.
    const bool matrix = (i + thread) % 2 == 0;
    sources.resize(matrix ? kMatrixSide : 1);
    targets.resize(matrix ? kMatrixSide : kBatchTargets);
    for (uint32_t& v : sources) v = rng.Below(n);
    for (uint32_t& v : targets) v = rng.Below(n);
    out.clear();
    if (matrix) {
      out.append("{\"op\":\"matrix\",\"sources\":[");
      AppendIds(&out, sources);
      out.append("],\"targets\":[");
    } else {
      out.append("{\"op\":\"batch\",\"source\":");
      AppendUint(&out, sources[0]);
      out.append(",\"targets\":[");
    }
    AppendIds(&out, targets);
    out.append("]}\n");
    const int64_t t0 = NowNs();
    std::string_view line;
    if (!SendAll(fd, out) || !reader.ReadLine(&line)) {
      Fail("dispatch connection closed");
    }
    const int64_t t1 = NowNs();
    ++w->tally.attempted;
    if (!IsOk(line)) {
      w->tally.Reject(line);
      continue;
    }
    const uint64_t pairs = uint64_t{sources.size()} * targets.size();
    // Parse in full only the sampled answers: a client that parses 65k
    // numbers per answer would become the bottleneck it is measuring.
    if (i % 32 < 2 && samples->size() < 8) {
      if (!ParseArray(line, "distances", &dists) || dists.size() != pairs) {
        ++w->tally.failed;
        continue;
      }
      samples->push_back({sources, targets, dists});
    }
    // The matrix is the primary request; mixing in the 16x smaller batch
    // would make the latency distribution bimodal.
    w->Answered(t1, pairs, matrix ? t1 - t0 : -1);
    if (!matrix) w->batch_ns.push_back(static_cast<uint32_t>(t1 - t0));
    if (spans != nullptr) {
      spans->Record(matrix ? "client.matrix" : "client.batch", base_id + i, "", 0,
                    t0, t1);
    }
  }
  close(fd);
}

// --------------------------------------------------------------- main ---

struct Daemon {
  pid_t pid = -1;
  int out_fd = -1;
  uint16_t port = 0;
};

/// Starts hc2ld on an ephemeral port and returns once a ping is answered.
Daemon StartDaemon(const Config& cfg, const std::string& index) {
  const std::vector<std::string> argv = {cfg.bin + "/hc2ld", "--index", index,
                                         "--port", "0", "--workers", "2",
                                         "--threads", "2"};
  Daemon d;
  d.pid = Spawn(argv, cfg.work + "/hc2ld.log", &d.out_fd);
  std::string banner;
  const int64_t deadline = NowNs() + 120'000'000'000LL;
  while (banner.find('\n') == std::string::npos) {
    pollfd pfd{d.out_fd, POLLIN, 0};
    if (NowNs() > deadline || poll(&pfd, 1, 1000) < 0) {
      Fail("hc2ld did not start (see %s/hc2ld.log)", cfg.work.c_str());
    }
    if (pfd.revents == 0) continue;
    char buf[256];
    const ssize_t n = read(d.out_fd, buf, sizeof(buf));
    if (n <= 0) Fail("hc2ld exited at start (see %s/hc2ld.log)", cfg.work.c_str());
    banner.append(buf, static_cast<size_t>(n));
  }
  const size_t colon = banner.find(':', banner.find("listening on"));
  if (colon == std::string::npos) Fail("unexpected hc2ld banner: %s", banner.c_str());
  d.port = static_cast<uint16_t>(std::strtoul(banner.c_str() + colon + 1, nullptr, 10));
  if (Exchange(d.port, "{\"op\":\"ping\"}\n") != "{\"ok\":true,\"op\":\"ping\"}") {
    Fail("hc2ld ping failed");
  }
  return d;
}

void StopDaemon(Daemon* d) {
  StopProcess(d->pid, SIGINT);
  close(d->out_fd);
  d->pid = -1;
}

std::string Info(uint16_t port) { return Exchange(port, "{\"op\":\"info\"}\n"); }

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void AppendDouble(std::string* out, double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out->append(buf, res.ptr);
}

void AppendMetrics(std::string* out, const char* key,
                   const std::vector<Metric>& metrics) {
  out->append(",\"");
  out->append(key);
  out->append("\":{");
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out->push_back(',');
    out->append("\"" + metrics[i].name + "\":{\"value\":");
    AppendDouble(out, metrics[i].value);
    out->append(",\"unit\":\"" + metrics[i].unit + "\"}");
  }
  out->push_back('}');
}

/// Answers kept for the checks after a window.
struct Samples {
  std::vector<PointSample> points;
  std::vector<BulkSample> bulk;
};

/// Runs kWarmup s of traffic and then a measured window of `seconds` against
/// the daemon, and merges the per-thread results; with `rings` non-null each
/// thread records spans.
Window RunWindow(const Config& cfg, const RoadGraph& g, uint16_t port,
                 double seconds, uint64_t seed, std::vector<SpanRing>* rings,
                 Samples* samples) {
  const int64_t start = NowNs() + static_cast<int64_t>(kWarmup * 1e9);
  const int64_t end = start + static_cast<int64_t>(seconds * 1e9);
  const bool point = cfg.workload == "point-burst";
  constexpr int threads = 2;
  // A dispatch slice is the whole window: ~1,200 matrices per 3 s.
  const double slice_s = point ? 0.5 : seconds;
  std::vector<Window> parts(threads);
  for (Window& p : parts) {
    p.start = start;
    p.slice_ns = static_cast<int64_t>(slice_s * 1e9);
  }
  std::vector<Samples> sample_parts(threads);
  if (rings != nullptr) {
    rings->assign(threads, SpanRing());
    for (SpanRing& r : *rings) r.Enable();
  }
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    SpanRing* spans = rings != nullptr ? &(*rings)[t] : nullptr;
    Samples* out = &sample_parts[t];
    if (point) {
      pool.emplace_back(PointBurstThread, port, seed, t, end, g.n, &parts[t],
                        &out->points, spans);
    } else {
      pool.emplace_back(DispatchThread, port, seed, t, end, g.n, &parts[t],
                        &out->bulk, spans);
    }
  }
  for (std::thread& t : pool) t.join();
  Window all;
  all.start = start;
  all.slice_ns = parts[0].slice_ns;
  for (int t = 0; t < threads; ++t) {
    Window& p = parts[t];
    all.tally.Add(p.tally);
    all.pairs.resize(std::max(all.pairs.size(), p.pairs.size()), 0);
    all.latency_ns.resize(all.pairs.size());
    for (size_t k = 0; k < p.pairs.size(); ++k) {
      all.pairs[k] += p.pairs[k];
      all.latency_ns[k].insert(all.latency_ns[k].end(),
                               p.latency_ns[k].begin(), p.latency_ns[k].end());
    }
    all.batch_ns.insert(all.batch_ns.end(), p.batch_ns.begin(), p.batch_ns.end());
    all.all_pairs += p.all_pairs;
    Samples& sp = sample_parts[t];
    samples->points.insert(samples->points.end(), sp.points.begin(),
                           sp.points.end());
    for (BulkSample& b : sp.bulk) samples->bulk.push_back(std::move(b));
  }
  return all;
}

/// Rates and latency percentiles: medians over the full slices of all the
/// windows given (one per daemon instance).
struct Rates {
  double pairs_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  uint64_t samples = 0;  // primary-request latencies in the full slices
  size_t slices = 0;
};

Rates Summarize(std::vector<Window>* windows, double seconds) {
  Rates r;
  std::vector<double> rate, p50, p99;
  for (Window& w : *windows) {
    const size_t full = std::min<size_t>(
        w.pairs.size(),
        static_cast<size_t>(seconds * 1e9 / static_cast<double>(w.slice_ns) +
                            1e-6));
    r.slices += full;
    for (size_t k = 0; k < full; ++k) {
      rate.push_back(static_cast<double>(w.pairs[k]) * 1e9 /
                     static_cast<double>(w.slice_ns));
      std::vector<uint32_t>& lat = w.latency_ns[k];
      if (lat.empty()) continue;
      r.samples += lat.size();
      p50.push_back(Percentile(&lat, 0.50) / 1e3);
      p99.push_back(Percentile(&lat, 0.99) / 1e3);
    }
  }
  if (r.slices == 0 || p50.empty()) Fail("no request was answered in time");
  r.pairs_per_s = Median(rate);
  r.p50_us = Median(p50);
  r.p99_us = Median(p99);
  return r;
}

/// Checks every sampled answer against the oracle.
void CheckAnswers(const RoadGraph& g, const Samples& samples, Tally* tally) {
  Oracle oracle(g);
  const auto verdict = [&](bool ok) {
    ++tally->checked;
    if (!ok) ++tally->wrong;
  };
  for (const PointSample& p : samples.points) {
    verdict(p.answer == oracle.Distance(p.s, p.t));
  }
  for (const BulkSample& b : samples.bulk) {
    // The batch's single row, or the first and middle rows of a matrix.
    const size_t rows = b.sources.size();
    for (const size_t i : {size_t{0}, rows / 2}) {
      if (i == rows / 2 && rows == 1) continue;
      const std::vector<uint64_t>& d = oracle.From(b.sources[i]);
      bool ok = true;
      for (size_t j = 0; j < b.targets.size(); ++j) {
        ok = ok && b.distances[i * b.targets.size() + j] == d[b.targets[j]];
      }
      verdict(ok);
    }
  }
}

/// A route answer is right when its vertices run from s to t over edges of
/// the graph, their weights sum to the returned distance, and that distance
/// is the oracle's.
bool RouteIsRight(const RoadGraph& g, Oracle* oracle, uint32_t s, uint32_t t,
                  std::string_view line) {
  std::vector<uint64_t> v;
  const double distance = JsonNumber(line, "distance");
  if (distance < 0 || !ParseArray(line, "vertices", &v) || v.empty() ||
      v.front() != s || v.back() != t) {
    return false;
  }
  uint64_t sum = 0;
  for (size_t i = 1; i < v.size(); ++i) {
    const int64_t e = g.EdgeIndex(static_cast<uint32_t>(v[i - 1]),
                                  static_cast<uint32_t>(v[i]));
    if (e < 0) return false;
    sum += g.weights[e];
  }
  return sum == static_cast<uint64_t>(distance) &&
         sum == oracle->Distance(s, t);
}

/// Requests hc2ld's info counts as shed between two snapshots, beyond those
/// the client saw answered Overloaded, still failed.
void CountShed(const std::string& before, const std::string& after, Tally* t) {
  const double shed =
      JsonNumber(after, "requests_shed") - JsonNumber(before, "requests_shed");
  if (shed > static_cast<double>(t->shed)) {
    t->failed += static_cast<uint64_t>(shed) - t->shed;
  }
}

Config ParseArgs(int argc, char** argv) {
  Config cfg;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") cfg.workload = val;
    else if (key == "--seed") cfg.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") cfg.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") cfg.trace = val == "1";
    else if (key == "--bin") cfg.bin = val;
    else if (key == "--work") cfg.work = val;
    else Fail("unknown flag %s", key.c_str());
  }
  if (cfg.workload != "point-burst" && cfg.workload != "dispatch-matrix") {
    Fail("unknown --workload '%s'", cfg.workload.c_str());
  }
  if (cfg.bin.empty() || cfg.work.empty() || cfg.seconds <= 0) {
    Fail("usage: perfbench_e2e --workload W --seed N --seconds T --trace 0|1 "
         "--bin DIR --work DIR");
  }
  return cfg;
}

/// A --trace 1 run on one daemon. Tracing overhead: kTraceRounds rounds,
/// each an untraced and a traced window on the same traffic, run in
/// alternating order so drift between them cancels; the overhead is the
/// median of the per-round throughput differences, and their interquartile
/// range says whether it stands above the noise. Then a depth-1 socket probe
/// of the replay pairs (the reactor spans the layer driver's wire spans nest
/// in) and the route checks. Answers to check land in *samples. Returns the
/// reactor and tracing per-layer metrics.
std::vector<Metric> TraceDaemon(const Config& cfg, const RoadGraph& g,
                                const Daemon& daemon, Samples* samples,
                                Tally* tally) {
  const double window_s = cfg.seconds / (2 * kTraceRounds);
  const std::string info_before = Info(daemon.port);
  std::vector<SpanRing> rings;
  std::vector<double> overhead_pct;
  std::vector<Window> untraced;
  for (int k = 0; k < kTraceRounds; ++k) {
    double rate[2] = {0, 0};  // untraced, traced
    for (int i = 0; i < 2; ++i) {
      const bool traced = (i + k) % 2 == 1;
      std::vector<Window> w = {RunWindow(
          cfg, g, daemon.port, window_s, StreamSeed(cfg.seed, 900 + k),
          traced ? &rings : nullptr, samples)};
      tally->Add(w[0].tally);
      rate[traced] = Summarize(&w, window_s).pairs_per_s;
      if (!traced) untraced.push_back(std::move(w[0]));
    }
    overhead_pct.push_back(100.0 * (rate[0] - rate[1]) / rate[0]);
  }
  const double p99_us = Summarize(&untraced, window_s).p99_us;
  const std::string info_after = Info(daemon.port);
  CountShed(info_before, info_after, tally);
  WriteSpans(cfg.work + "/spans-client.csv", rings);  // the last traced window

  Rng rng(StreamSeed(cfg.seed, 500));
  std::string pairs_txt;
  std::vector<std::pair<uint32_t, uint32_t>> replay(kReplayPairs);
  for (auto& [s, t] : replay) {
    s = rng.Below(g.n);
    t = rng.Below(g.n);
    AppendUint(&pairs_txt, s);
    pairs_txt.push_back(' ');
    AppendUint(&pairs_txt, t);
    pairs_txt.push_back('\n');
  }
  std::ofstream(cfg.work + "/pairs.txt") << pairs_txt;
  const int fd = Connect(daemon.port);
  if (fd < 0) Fail("reactor probe connect failed");
  LineReader reader(fd);
  std::vector<SpanRing> reactor(1);
  reactor[0].Enable();
  std::vector<uint32_t> rtt;
  std::string request;
  Oracle oracle(g);
  for (uint32_t i = 0; i < kReplayPairs + kRouteChecks; ++i) {
    const bool route = i >= kReplayPairs;
    const auto [s, t] = replay[route ? i - kReplayPairs : i];
    request = route ? "{\"op\":\"route\",\"source\":" : "{\"op\":\"point\",\"sources\":[";
    AppendUint(&request, s);
    request.append(route ? ",\"target\":" : "],\"targets\":[");
    AppendUint(&request, t);
    request.append(route ? "}\n" : "]}\n");
    const int64_t t0 = NowNs();
    std::string_view line;
    if (!SendAll(fd, request) || !reader.ReadLine(&line)) {
      Fail("reactor probe connection closed");
    }
    const int64_t t1 = NowNs();
    ++tally->attempted;
    if (!IsOk(line)) {
      tally->Reject(line);
    } else if (route) {
      ++tally->checked;
      if (!RouteIsRight(g, &oracle, s, t, line)) ++tally->wrong;
    } else {
      reactor[0].Record("reactor", i + 1, "", 0, t0, t1);
      rtt.push_back(static_cast<uint32_t>(t1 - t0));
    }
  }
  close(fd);
  WriteSpans(cfg.work + "/spans-reactor.csv", reactor);

  const auto delta = [&](const char* key) {
    return JsonNumber(info_after, key) - JsonNumber(info_before, key);
  };
  const double executed = delta("requests_executed");
  std::sort(overhead_pct.begin(), overhead_pct.end());
  const size_t n = overhead_pct.size();
  return {
      {"client.p99_us", p99_us, "us"},
      {"reactor.rtt_us", Percentile(&rtt, 0.5) / 1e3, "us"},
      {"reactor.coalesced_frac",
       executed > 0 ? delta("coalesced_requests") / executed : 0.0, "ratio"},
      {"reactor.coalesce_batch_p50",
       std::max(0.0, InfoHistogram(info_after, "coalesce_batch_size", "p50")),
       "count"},
      {"reactor.loop_lag_p99_us",
       std::max(0.0, InfoHistogram(info_after, "loop_lag_ns", "p99")) / 1e3,
       "us"},
      {"reactor.shed", delta("requests_shed"), "count"},
      {"trace.e2e_overhead_pct", Median(overhead_pct), "%"},
      // The middle half of the rounds' differences: with 6 rounds, from the
      // 2nd smallest to the 2nd largest.
      {"trace.e2e_overhead_iqr_pct",
       overhead_pct[n - 1 - n / 4] - overhead_pct[n / 4], "%"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = ParseArgs(argc, argv);
  signal(SIGPIPE, SIG_IGN);
  mkdir(cfg.work.c_str(), 0755);
  const std::string log = cfg.work + "/tools.log";

  // Inputs: the graph (generation is not part of set-up).
  const std::string graph_path = cfg.work + "/graph.gr";
  RunTool({cfg.bin + "/hc2l", "generate", "--model", "road", "--vertices",
           std::to_string(kVertices), "--seed", std::to_string(kGraphSeed),
           "--out", graph_path},
          log);
  const RoadGraph g = ReadDimacs(graph_path);
  if (g.n > kVertices + kVertices / 4) Fail("graph larger than expected");

  // Each instance starts hc2ld and serves a window of seconds / instances,
  // and rates and percentiles are medians over the 0.5 s slices of all the
  // windows. On a shared 4-vCPU VM this cut the spread of point-burst's
  // figures over 5 seeds from 20% / 5.5% / 251% (throughput / p50 / p99;
  // one daemon, one 30 s window, whole-window figures) to 3.5% / 5.9% /
  // 14%: a burst of outside noise costs one slice, and per-process luck
  // (thread placement, the physical pages the index lands on) one instance.
  // The first kSetups instances also time set-up: index build and save,
  // hc2ld start, first ping answered; later ones restart hc2ld on the same
  // index.
  const std::string index = cfg.work + "/index.idx";
  const int instances = cfg.trace ? 1 : kInstances;
  const double window_s = cfg.seconds / instances;
  std::vector<double> setup_s, rss_mb, cpu_ns_per_pair;
  std::vector<Window> windows;
  std::vector<Metric> metrics;
  Tally tally;
  for (int r = 0; r < instances; ++r) {
    const int64_t t0 = NowNs();
    if (r < kSetups) {
      RunTool({cfg.bin + "/hc2l", "build", "--graph", graph_path, "--out",
               index},
              log);
    }
    Daemon daemon = StartDaemon(cfg, index);
    if (r < kSetups) setup_s.push_back(static_cast<double>(NowNs() - t0) * 1e-9);
    Samples samples;
    Tally t;
    if (cfg.trace) {
      metrics = TraceDaemon(cfg, g, daemon, &samples, &t);
    } else {
      const std::string info_before = Info(daemon.port);
      const double cpu_before = CpuSeconds(daemon.pid);
      windows.push_back(RunWindow(cfg, g, daemon.port, window_s,
                                  StreamSeed(cfg.seed, 1000 + r), nullptr,
                                  &samples));
      const double cpu_s = CpuSeconds(daemon.pid) - cpu_before;
      const std::string info_after = Info(daemon.port);
      rss_mb.push_back(static_cast<double>(PeakRssKb(daemon.pid)) / 1024.0);
      cpu_ns_per_pair.push_back(
          cpu_s * 1e9 / static_cast<double>(windows.back().all_pairs));
      t = windows.back().tally;
      CountShed(info_before, info_after, &t);
    }
    StopDaemon(&daemon);
    CheckAnswers(g, samples, &t);
    tally.Add(t);
  }

  std::vector<Metric> notes;
  if (!cfg.trace) {
    const Rates rates = Summarize(&windows, window_s);
    metrics = {
        {"setup_s", Median(setup_s), "s"},
        {"server_peak_rss_mb", Median(rss_mb), "MB"},
        {"server_cpu_ns_per_pair", Median(cpu_ns_per_pair), "ns"},
        {"pairs_per_s", rates.pairs_per_s, "1/s"},
        {"p50_us", rates.p50_us, "us"},
    };
    // p99 is printed, not a metric: on a shared VM it would not hold still
    // enough to bound (perfbench/README.md).
    notes = {{"p99_us", rates.p99_us, "us"},
             {"samples", static_cast<double>(rates.samples), "count"},
             {"slices", static_cast<double>(rates.slices), "count"}};
    std::vector<uint32_t> batch_ns;
    for (const Window& w : windows) {
      batch_ns.insert(batch_ns.end(), w.batch_ns.begin(), w.batch_ns.end());
    }
    if (!batch_ns.empty()) {
      notes.push_back({"batch_p50_us", Percentile(&batch_ns, 0.5) / 1e3, "us"});
    }
  }
  notes.push_back({"checked", static_cast<double>(tally.checked), "count"});

  std::string out = "{\"attempted\":";
  AppendUint(&out, tally.attempted);
  out.append(",\"failed\":");
  AppendUint(&out, tally.failed + tally.wrong);
  out.append(",\"wrong\":");
  AppendUint(&out, tally.wrong);
  out.append(",\"checked\":");
  AppendUint(&out, tally.checked);
  AppendMetrics(&out, "metrics", metrics);
  AppendMetrics(&out, "notes", notes);
  out.append("}\n");
  std::fputs(out.c_str(), stdout);
  return 0;
}

