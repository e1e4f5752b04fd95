//===- DaemonMixed.cpp - Open-loop warm/edit traffic against mariond -------==//
//
// Independent build jobs hitting one resident daemon. The harness spawns
// `mariond --workers=2` (cache on, all four targets warmed), warms every
// suite cell once, then drives an open loop of seeded Poisson arrivals
// over four persistent protocol-v2 connections with pipelined frames:
//
//   warm (7/10)  an unchanged bundled file: every function is a final-MIR
//                cache hit;
//   edit (3/10)  the bundled file plus 1-3 freshly generated functions:
//                the untouched functions hit, the new ones run the whole
//                pipeline.
//
// Phases: the fixed `mid` rate for 60% of the run, then for the rest a
// closed loop, one client sending each request as soon as the previous one
// is answered: its completion rate is the throughput one build client gets.
// The traced run times the fixed `high` rate instead of the closed loop. Open-loop requests are
// timed from their scheduled send time. One sender thread and one receiver
// thread make the load; in the open loop the sender runs a short host-speed
// calibration in every gap of more than 1 ms.
//
// After the daemon stops, every response is checked against a local
// compile of the same request (64-bit digests of assembly and
// diagnostics), each suite cell's local compile is simulated (main must
// return 1, the stall ledger must reconcile), and every generated function
// is simulated against its host-computed value.
//
//===----------------------------------------------------------------------===//

#include "ProgramGen.h"
#include "Workloads.h"

#include "driver/Compiler.h"
#include "obs/Metrics.h"
#include "service/Client.h"
#include "service/CompileService.h"
#include "shard/WireFormat.h"
#include "sim/Simulator.h"

#include <atomic>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <mutex>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

namespace perfbench {

namespace {

constexpr unsigned Connections = 4;
/// The loadgen has fallen behind when its p99 send delay exceeds this.
constexpr double LateLimitMs = 10.0;
/// Arrival rate of the closed-loop phase's request list: above anything one
/// client can reach, so the list never runs out before the phase ends.
constexpr double ClosedLoopScheduleRps = 5000;
/// Consecutive slices of the closed-loop phase whose rates are medianed.
constexpr size_t ClosedLoopWindows = 10;

uint64_t fnv1a(const std::string &S, uint64_t H = 1469598103934665603ull) {
  for (unsigned char C : S) {
    H ^= C;
    H *= 1099511628211ull;
  }
  return H;
}

uint64_t digestOf(bool Ok, const std::string &Asm, const std::string &Diag) {
  return mix64(fnv1a(Asm) ^ mix64(fnv1a(Diag)) ^ (Ok ? 1 : 0));
}

double unitRandom(uint64_t &State) {
  State = mix64(State);
  return static_cast<double>(State >> 11) * 0x1.0p-53;
}

/// Takes the next value from \p Bag, refilling it from \p Fill in a seeded
/// order whenever it runs empty.
template <typename T>
T drawFrom(std::vector<T> &Bag, const std::vector<T> &Fill, uint64_t &State) {
  if (Bag.empty()) {
    Bag = Fill;
    shuffleSeeded(Bag, State);
  }
  T V = Bag.back();
  Bag.pop_back();
  return V;
}

//===----------------------------------------------------------------------===//
// The request stream
//===----------------------------------------------------------------------===//

struct Request {
  uint32_t Cell = 0;
  bool Edit = false;
  uint8_t NumGen = 0;
  uint64_t GenSeed = 0;
  double DueMicros = 0; ///< Offset from the phase start.
  std::string ReqId;
};

struct Outcome {
  Clock::time_point Due, SendBegin, SendEnd, Done;
  double SerializeEndMicros = 0; ///< Trace timebase.
  double ExtractBeginMicros = 0;
  bool Answered = false, Ok = false, Busy = false, TimedOut = false;
  bool Transport = false, WrongId = false;
  uint64_t Digest = 0;
  double BackendMs = 0;
  uint64_t Functions = 0, GlueRuns = 0;
  std::vector<PassTime> Passes;
  int64_t RootSpan = 0, WireSpan = 0;
  uint8_t Conn = 0; ///< Connection the request was sent on.
  std::string Diag; ///< First diagnostics of a failed compile.
};

class Traffic {
public:
  Traffic(const RunConfig &Cfg, const std::map<std::string, std::string> &Src)
      : Cfg(Cfg), Sources(Src), Cells(suiteCells()) {}

  /// Poisson arrivals at \p Rps for \p Seconds; request ids continue the
  /// run-wide numbering so every reqid and generated name is unique.
  std::vector<Request> schedule(double Rps, double Seconds, uint64_t Stream) {
    std::vector<Request> Out;
    uint64_t State = mix64(Cfg.Seed * 0x9e37u + Stream);
    // A stratified mix: every 36 requests visit each cell once, every 10
    // hold exactly 3 edits, and every 3 edits add 1, 2 and 3 generated
    // functions, each group in a seeded order. The seed moves the arrivals
    // and the order, not the proportions the latency percentiles rest on.
    std::vector<uint32_t> AllCells, CellBag;
    for (uint32_t C = 0; C < Cells.size(); ++C)
      AllCells.push_back(C);
    const std::vector<uint8_t> EditFill = {1, 1, 1, 0, 0, 0, 0, 0, 0, 0};
    const std::vector<uint8_t> GenFill = {1, 2, 3};
    std::vector<uint8_t> EditBag, GenBag;
    double T = 0;
    for (;;) {
      T += -std::log(1 - unitRandom(State)) / Rps * 1e6;
      if (T >= Seconds * 1e6)
        break;
      Request R;
      R.Cell = drawFrom(CellBag, AllCells, State);
      R.Edit = drawFrom(EditBag, EditFill, State) != 0;
      if (R.Edit) {
        R.NumGen = drawFrom(GenBag, GenFill, State);
        State = mix64(State);
        R.GenSeed = mix64(State ^ Serial);
      }
      R.DueMicros = T;
      R.ReqId = "pb" + std::to_string(Cfg.Seed) + "-" + std::to_string(Serial++);
      Out.push_back(std::move(R));
    }
    return Out;
  }

  std::vector<GeneratedFunction> generated(const Request &R) const {
    std::vector<GeneratedFunction> G;
    char Hex[20];
    std::snprintf(Hex, sizeof(Hex), "%016llx",
                  static_cast<unsigned long long>(R.GenSeed));
    const bool FullOps = Cells[R.Cell].Machine != "toyp";
    for (unsigned K = 0; K < R.NumGen; ++K)
      G.push_back(generateFunction("pbgen_" + std::string(Hex) + "_" +
                                       std::to_string(K),
                                   mix64(R.GenSeed + K), FullOps));
    return G;
  }

  std::string source(const Request &R) const {
    std::string S = Sources.at(Cells[R.Cell].File);
    for (const GeneratedFunction &G : generated(R))
      S += "\n" + G.Source;
    return S;
  }

  shard::CompileRequestFrame frame(const Request &R, int Index) const {
    const Cell &C = Cells[R.Cell];
    shard::CompileRequestFrame F;
    F.Proto = shard::kWireProtoVersion;
    F.Index = Index;
    F.Path = C.File + ".mc";
    F.Machine = C.Machine;
    F.Strategy = strategy::strategyName(C.Strategy);
    F.ReqId = R.ReqId;
    F.Source = source(R);
    return F;
  }

  service::CompileRequest localRequest(const Request &R) const {
    const Cell &C = Cells[R.Cell];
    service::CompileRequest Q;
    Q.Path = C.File + ".mc";
    Q.Source = source(R);
    Q.Opts.Machine = C.Machine;
    Q.Opts.Strategy = C.Strategy;
    return Q;
  }

  const RunConfig &Cfg;
  const std::map<std::string, std::string> &Sources;
  std::vector<Cell> Cells;
  uint64_t Serial = 0;
};

//===----------------------------------------------------------------------===//
// The daemon process and its connections
//===----------------------------------------------------------------------===//

int connectUnix(const std::string &Path) {
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return -1;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (Fd < 0)
    return -1;
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    ::close(Fd);
    return -1;
  }
  return Fd;
}

bool writeAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += static_cast<size_t>(N);
  }
  return true;
}

class Daemon {
public:
  ~Daemon() { stop(); }

  /// Spawns mariond and waits for its first `health` answer.
  bool start(const RunConfig &Cfg, const std::string &Socket,
             const std::string &AccessLog, std::string &Error) {
    ::unlink(Socket.c_str());
    std::vector<std::string> Args = {Cfg.DaemonPath, "--listen=" + Socket,
                                     "--workers=2"};
    if (!AccessLog.empty()) {
      Args.push_back("--access-log=" + AccessLog);
      Args.push_back("--access-log-max-bytes=4000000000");
    }
    const std::string LogPath = Cfg.OutDir + "/mariond.log";
    std::fflush(nullptr);
    Pid = ::fork();
    if (Pid < 0) {
      Error = "fork failed";
      return false;
    }
    if (Pid == 0) {
      int Log = ::open(LogPath.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
      if (Log >= 0) {
        ::dup2(Log, 1);
        ::dup2(Log, 2);
      }
      std::vector<char *> Argv;
      for (std::string &A : Args)
        Argv.push_back(A.data());
      Argv.push_back(nullptr);
      ::execv(Argv[0], Argv.data());
      ::_exit(127);
    }
    for (int I = 0; I < 2000; ++I) {
      std::string Payload, Err;
      if (service::adminRequest(Socket, "health", Payload, Err))
        return true;
      int Status = 0;
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        Error = "mariond exited during start-up (see " + LogPath + ")";
        return false;
      }
      ::usleep(2000);
    }
    Error = "mariond did not answer health within 4 s";
    return false;
  }

  /// SIGTERM (drain), then SIGKILL after 20 s; always reaps.
  void stop() {
    if (Pid <= 0)
      return;
    ::kill(Pid, SIGTERM);
    int Status = 0;
    for (int I = 0; I < 2000; ++I) {
      if (::waitpid(Pid, &Status, WNOHANG) == Pid) {
        Pid = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(Pid, SIGKILL);
    ::waitpid(Pid, &Status, 0);
    Pid = -1;
  }

  pid_t pid() const { return Pid; }

private:
  pid_t Pid = -1;
};

/// Reads `%ADMIN stats` into name -> value.
bool adminStats(const std::string &Socket, std::map<std::string, int64_t> &Out) {
  std::string Payload, Err;
  if (!service::adminRequest(Socket, "stats", Payload, Err))
    return false;
  size_t Pos = 0;
  while ((Pos = Payload.find("\n    \"", Pos)) != std::string::npos) {
    size_t B = Pos + 6, E = Payload.find('"', B);
    size_t Colon = Payload.find(':', E);
    if (E == std::string::npos || Colon == std::string::npos)
      break;
    Out[Payload.substr(B, E - B)] =
        std::strtoll(Payload.c_str() + Colon + 1, nullptr, 10);
    Pos = E;
  }
  return !Out.empty();
}

/// Percentile (ms) of the histogram \p Prefix between two stats snapshots.
double histDeltaMs(const std::map<std::string, int64_t> &Before,
                   const std::map<std::string, int64_t> &After,
                   const std::string &Prefix, double P) {
  obs::Histogram H;
  const std::string Key = Prefix + ".b";
  for (auto It = After.lower_bound(Key);
       It != After.end() && It->first.compare(0, Key.size(), Key) == 0; ++It) {
    unsigned Idx = 0;
    if (!obs::Histogram::bucketIndexFromSuffix(It->first.substr(Prefix.size() + 1),
                                               Idx))
      continue;
    auto B = Before.find(It->first);
    int64_t D = It->second - (B == Before.end() ? 0 : B->second);
    if (D > 0)
      H.addBucketCount(Idx, static_cast<uint64_t>(D));
  }
  return static_cast<double>(H.percentileUpper(P)) / 1000.0;
}

//===----------------------------------------------------------------------===//
// The open loop
//===----------------------------------------------------------------------===//

struct Conn {
  int Fd = -1;
  std::mutex M;
  std::deque<size_t> Pending; ///< Requests awaiting a response, in order.
  std::string Buf;
  std::atomic<int> Outstanding{0};
  bool Dead = false; ///< Receiver only.
};

struct PhaseResult {
  std::vector<Request> Reqs;
  std::vector<Outcome> Out;
  /// Host-speed calibrations the sender ran in idle gaps: (seconds into
  /// the phase, ns per step).
  std::vector<std::pair<double, double>> Cal;
  /// Per request, the median calibration of the seconds around its due
  /// time (0: none); set by calibrate().
  std::vector<double> CalNs;

  /// Gives each request the median calibration of the 2.5 s around it, so
  /// its latency can be scaled to the reference host speed.
  void calibrate() {
    constexpr double Bucket = 0.5;
    std::vector<std::vector<double>> ByBucket;
    for (const auto &[At, Ns] : Cal) {
      size_t B = static_cast<size_t>(At / Bucket);
      if (ByBucket.size() <= B)
        ByBucket.resize(B + 1);
      ByBucket[B].push_back(Ns);
    }
    std::vector<double> Around(ByBucket.size(), 0);
    for (size_t B = 0; B < ByBucket.size(); ++B) {
      std::vector<double> V;
      for (size_t K = B >= 2 ? B - 2 : 0; K <= B + 2 && K < ByBucket.size(); ++K)
        V.insert(V.end(), ByBucket[K].begin(), ByBucket[K].end());
      Around[B] = median(V);
    }
    CalNs.assign(Reqs.size(), 0);
    for (size_t I = 0; I < Reqs.size() && !Around.empty(); ++I)
      CalNs[I] = Around[std::min(
          Around.size() - 1, static_cast<size_t>(Reqs[I].DueMicros / 1e6 / Bucket))];
  }

  /// Latency of answered request \p I, in ms; at the reference host speed
  /// when \p AtRef.
  double latency(size_t I, bool AtRef) const {
    const double Ms = millisBetween(Out[I].Due, Out[I].Done);
    return AtRef && I < CalNs.size()
               ? atReferenceSpeed(Ms, CalNs[I], kCpuReferenceNsPerStep)
               : Ms;
  }
  std::vector<double> latencies(bool AtRef = false) const {
    std::vector<double> V;
    for (size_t I = 0; I < Out.size(); ++I)
      if (Out[I].Answered)
        V.push_back(latency(I, AtRef));
    return V;
  }
  /// The median over \p Windows consecutive slices of the phase of each
  /// slice's requests per second of round-trip time: a stretch of
  /// interference from other tenants moves one slice, not the result.
  double windowRate(size_t Windows, bool AtRef) const {
    std::vector<double> Lat = latencies(AtRef), Rates;
    for (size_t W = 0; W < Windows; ++W) {
      double Ms = 0;
      size_t B = W * Lat.size() / Windows, E = (W + 1) * Lat.size() / Windows;
      for (size_t I = B; I < E; ++I)
        Ms += Lat[I];
      if (Ms > 0)
        Rates.push_back(static_cast<double>(E - B) / (Ms / 1000));
    }
    return median(Rates);
  }
  /// The median over cells of each cell's median latency: the pooled
  /// median of 36 cells of different cost falls between two cells'
  /// latencies and reads the tail of one of them.
  double cellMedian(bool AtRef) const {
    std::map<uint32_t, std::vector<double>> ByCell;
    for (size_t I = 0; I < Out.size(); ++I)
      if (Out[I].Answered)
        ByCell[Reqs[I].Cell].push_back(latency(I, AtRef));
    std::vector<double> Medians;
    for (const auto &[Cell, Lat] : ByCell)
      Medians.push_back(median(Lat));
    return median(Medians);
  }
  std::vector<double> lateness() const {
    std::vector<double> V;
    for (const Outcome &O : Out)
      V.push_back(millisBetween(O.Due, O.SendBegin));
    return V;
  }
};

class LoadGen {
public:
  LoadGen(const Traffic &T, bool Trace) : T(T), Trace(Trace) {}
  ~LoadGen() {
    for (auto &C : Conns)
      if (C.Fd >= 0)
        ::close(C.Fd);
  }

  bool connect(const std::string &Socket) {
    for (Conn &C : Conns)
      if ((C.Fd = connectUnix(Socket)) < 0)
        return false;
    return true;
  }

  /// Sends \p P.Reqs and collects every answer. Open loop: each request at
  /// its due time. Closed loop: each as soon as the previous one is
  /// answered, until \p Deadline; the rest are dropped.
  void run(PhaseResult &P, bool Closed = false,
           Clock::time_point Deadline = {}) {
    P.Out.assign(P.Reqs.size(), Outcome());
    Out = &P.Out;
    Reqs = &P.Reqs;
    SendingDone.store(false);
    std::thread Receiver([this] { receiveLoop(); });
    const Clock::time_point Start = Clock::now() + std::chrono::milliseconds(5);
    size_t Sent = 0;
    for (size_t I = 0; I < P.Reqs.size(); Sent = ++I) {
      Outcome &O = P.Out[I];
      if (Closed) {
        for (int N; (N = InFlight.load()) > 0;)
          InFlight.wait(N);
        if (Clock::now() >= Deadline)
          break;
        // Every 16th request, a short calibration before the request is
        // due, so it is not part of any round trip.
        if (I % 16 == 0)
          P.Cal.push_back({secondsSince(Start), cpuCalibrationNsPerStep(1 << 14)});
        O.Due = Clock::now();
        P.Reqs[I].DueMicros =
            std::chrono::duration<double, std::micro>(O.Due - Start).count();
      } else {
        O.Due = Start + std::chrono::microseconds(
                            static_cast<int64_t>(P.Reqs[I].DueMicros));
        std::this_thread::sleep_until(O.Due);
      }
      // Join the shortest queue: the daemon admits one frame per
      // connection at a time.
      Conn *Best = nullptr;
      for (Conn &C : Conns)
        if (!Best || C.Outstanding.load() < Best->Outstanding.load())
          Best = &C;
      O.Conn = static_cast<uint8_t>(Best - Conns);
      O.RootSpan = newSpanId();
      O.WireSpan = newSpanId();
      O.SendBegin = Clock::now();
      std::string Bytes;
      {
        LayerSpan S("shard", "shard::serializeRequestFrame", P.Reqs[I].ReqId,
                    O.WireSpan);
        Bytes = shard::serializeRequestFrame(T.frame(P.Reqs[I], static_cast<int>(I)));
      }
      O.SerializeEndMicros = Trace ? obs::wallMicros() : 0;
      {
        std::lock_guard<std::mutex> L(Best->M);
        Best->Pending.push_back(I);
      }
      Best->Outstanding.fetch_add(1);
      InFlight.fetch_add(1);
      if (!writeAll(Best->Fd, Bytes))
        O.Transport = true;
      O.SendEnd = Clock::now();
      // A short calibration (~0.1 ms) when the next request is due more
      // than 1 ms from now, so the schedule never waits for it.
      if (!Closed && I + 1 < P.Reqs.size() &&
          Start + std::chrono::microseconds(static_cast<int64_t>(
                      P.Reqs[I + 1].DueMicros)) - O.SendEnd >
              std::chrono::milliseconds(1))
        P.Cal.push_back({std::chrono::duration<double>(O.SendEnd - Start).count(),
                         cpuCalibrationNsPerStep(1 << 14)});
    }
    SendingDone.store(true);
    Receiver.join();
    P.Reqs.resize(Sent);
    P.Out.resize(Sent);
    Out = nullptr;
  }

private:
  /// Counts answers (or failures) off the in-flight total and wakes a
  /// closed-loop sender waiting for room.
  void settle(int N) {
    InFlight.fetch_sub(N);
    InFlight.notify_one();
  }

  void receiveLoop() {
    Clock::time_point IdleSince = Clock::now();
    for (;;) {
      int Left = 0;
      for (Conn &C : Conns)
        Left += C.Dead ? 0 : C.Outstanding.load();
      if (SendingDone.load() && Left == 0)
        return;
      if (Left == 0)
        IdleSince = Clock::now();
      // A daemon that stops answering for 30 s is a transport failure.
      if (secondsSince(IdleSince) > 30) {
        failAll();
        return;
      }
      pollfd Fds[Connections];
      for (unsigned I = 0; I < Connections; ++I)
        Fds[I] = {Conns[I].Dead ? -1 : Conns[I].Fd, POLLIN, 0};
      if (::poll(Fds, Connections, 20) <= 0)
        continue;
      for (unsigned I = 0; I < Connections; ++I) {
        if (!(Fds[I].revents & (POLLIN | POLLHUP | POLLERR)))
          continue;
        Conn &C = Conns[I];
        char Buf[1 << 16];
        ssize_t N = ::read(C.Fd, Buf, sizeof(Buf));
        if (N <= 0) {
          if (N < 0 && errno == EINTR)
            continue;
          failConn(C);
          continue;
        }
        IdleSince = Clock::now();
        C.Buf.append(Buf, static_cast<size_t>(N));
        drainRecords(C);
      }
    }
  }

  void drainRecords(Conn &C) {
    for (;;) {
      size_t Consumed = 0;
      shard::FileResult R;
      const double ExtractBegin = Trace ? obs::wallMicros() : 0;
      size_t Front;
      {
        std::lock_guard<std::mutex> L(C.M);
        if (C.Pending.empty())
          return;
        Front = C.Pending.front();
      }
      Outcome &O = (*Out)[Front];
      bool Got;
      {
        LayerSpan S("shard", "shard::extractResultRecord", {}, O.WireSpan);
        Got = shard::extractResultRecord(C.Buf, Consumed, R);
      }
      if (!Got)
        return;
      C.Buf.erase(0, Consumed);
      {
        std::lock_guard<std::mutex> L(C.M);
        C.Pending.pop_front();
      }
      C.Outstanding.fetch_sub(1);
      settle(1);
      O.Done = Clock::now();
      O.ExtractBeginMicros = ExtractBegin;
      O.Answered = true;
      O.Busy = R.Busy;
      O.TimedOut = R.TimedOut;
      O.Ok = R.Ok && R.Complete;
      O.WrongId = R.ReqId != (*Reqs)[Front].ReqId;
      O.Digest = digestOf(R.Ok, R.Assembly, R.DiagText);
      if (!O.Ok)
        O.Diag = R.DiagText.substr(0, 300);
      O.BackendMs = R.BackendMillis;
      O.Functions = R.Functions.size();
      for (const pipeline::PassStats &PS : R.Passes) {
        if (PS.Name == "glue")
          O.GlueRuns += PS.Runs;
        if (Trace) {
          O.Passes.push_back({PS.Name, PS.Micros});
          if (PS.CachedMicros > 0)
            O.Passes.push_back({PS.Name + "(cached)", PS.CachedMicros});
        }
      }
    }
  }

  void failConn(Conn &C) {
    std::lock_guard<std::mutex> L(C.M);
    for (size_t I : C.Pending)
      (*Out)[I].Transport = true;
    C.Outstanding.fetch_sub(static_cast<int>(C.Pending.size()));
    settle(static_cast<int>(C.Pending.size()));
    C.Pending.clear();
    C.Dead = true;
  }

  void failAll() {
    for (Conn &C : Conns)
      failConn(C);
  }

  const Traffic &T;
  bool Trace;
  Conn Conns[Connections];
  std::vector<Outcome> *Out = nullptr;
  const std::vector<Request> *Reqs = nullptr;
  std::atomic<bool> SendingDone{false};
  /// Requests sent and not yet answered, over all connections.
  std::atomic<int> InFlight{0};
};

} // namespace

namespace {

/// Compiles every suite cell once over one connection, so the measured
/// traffic finds them in the daemon's cache. False on any failure.
bool warmUp(const Traffic &T, const std::string &Socket) {
  int Fd = connectUnix(Socket);
  if (Fd < 0)
    return false;
  std::string Bytes;
  for (size_t C = 0; C < T.Cells.size(); ++C) {
    Request Rq;
    Rq.Cell = static_cast<uint32_t>(C);
    Rq.ReqId = "pbwarm-" + std::to_string(C);
    Bytes += shard::serializeRequestFrame(T.frame(Rq, static_cast<int>(C)));
  }
  bool Ok = writeAll(Fd, Bytes);
  std::string Buf;
  for (size_t Got = 0; Ok && Got < T.Cells.size();) {
    size_t Consumed = 0;
    shard::FileResult R;
    if (shard::extractResultRecord(Buf, Consumed, R)) {
      Buf.erase(0, Consumed);
      Ok = R.Ok && !R.Busy;
      ++Got;
      continue;
    }
    char Chunk[1 << 16];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N <= 0)
      Ok = false;
    else
      Buf.append(Chunk, static_cast<size_t>(N));
  }
  ::close(Fd);
  return Ok;
}

struct AccessEntry {
  double QueueMicros = 0, CompileMicros = 0, TotalMicros = 0;
};

/// Parses mariond's access log into reqid -> costs.
std::map<std::string, AccessEntry> readAccessLog(const std::string &Path) {
  std::map<std::string, AccessEntry> Out;
  std::string Text;
  if (!slurp(Path, Text))
    return Out;
  auto Field = [](const std::string &Line, const char *Key) {
    size_t P = Line.find(std::string("\"") + Key + "\": ");
    return P == std::string::npos
               ? 0.0
               : std::strtod(Line.c_str() + P + std::strlen(Key) + 4, nullptr);
  };
  size_t Pos = 0;
  while (Pos < Text.size()) {
    size_t End = Text.find('\n', Pos);
    if (End == std::string::npos)
      End = Text.size();
    const std::string Line = Text.substr(Pos, End - Pos);
    Pos = End + 1;
    size_t K = Line.find("\"reqid\": \"");
    if (K == std::string::npos)
      continue;
    size_t B = K + 10, E = Line.find('"', B);
    Out[Line.substr(B, E - B)] = {Field(Line, "queue_micros"),
                                  Field(Line, "compile_micros"),
                                  Field(Line, "total_micros")};
  }
  return Out;
}

/// Records the span tree of every answered request of \p P: the request
/// root (due -> answer), the loadgen's send delay, the wire span and,
/// inside it, the daemon's own costs from its access log and the pass
/// records of the response. Returns the summed request latency (us).
double recordRequestSpans(const PhaseResult &P,
                          const std::map<std::string, AccessEntry> &Log,
                          Clock::time_point SteadyBase, double WallBase) {
  auto Wall = [&](Clock::time_point T) {
    return WallBase +
           std::chrono::duration<double, std::micro>(T - SteadyBase).count();
  };
  auto Us = [](Clock::time_point A, Clock::time_point B) {
    return std::chrono::duration<double, std::micro>(B - A).count();
  };
  double Sum = 0;
  Clock::time_point PrevDone[Connections] = {};
  for (size_t I = 0; I < P.Out.size(); ++I) {
    const Outcome &O = P.Out[I];
    const std::string &Id = P.Reqs[I].ReqId;
    Clock::time_point Prev = PrevDone[O.Conn];
    PrevDone[O.Conn] = O.Done;
    if (!O.Answered)
      continue;
    Sum += Us(O.Due, O.Done);
    recordSpan("other", "request", Wall(O.Due), Us(O.Due, O.Done), 0, Id,
               O.RootSpan);
    recordSpan("loadgen", "loadgen.send-delay", Wall(O.Due),
               Us(O.Due, O.SendBegin), O.RootSpan, Id);
    recordSpan("shard", "wire", Wall(O.SendBegin), Us(O.SendBegin, O.Done),
               O.RootSpan, Id, O.WireSpan);
    auto It = Log.find(Id);
    if (It == Log.end())
      continue;
    const AccessEntry &A = It->second;
    // mariond admits one frame per connection at a time: a frame waits in
    // the daemon's connection buffer until the previous answer is out.
    double WaitEnd = Wall(O.SendEnd);
    if (Prev > O.SendEnd) {
      recordSpan("service", "connection-wait", Wall(O.SendEnd),
                 Us(O.SendEnd, Prev), O.WireSpan, Id);
      WaitEnd = Wall(Prev);
    }
    const double From = std::max(O.SerializeEndMicros, WaitEnd);
    const double Room = O.ExtractBeginMicros - From;
    const double Start = From + std::max(0.0, (Room - A.TotalMicros) / 2);
    int64_t D = recordSpan("service", "mariond request", Start, A.TotalMicros,
                           O.WireSpan, Id);
    recordSpan("service", "queue", Start, A.QueueMicros, D, Id);
    int64_t C = recordSpan("service", "compile", Start + A.QueueMicros,
                           A.CompileMicros, D, Id);
    int64_t B = recordSpan("cache", "backend", Start + A.QueueMicros,
                           O.BackendMs * 1000, C, Id);
    recordPassSpans(O.Passes, Start + A.QueueMicros, B, Id);
  }
  return Sum;
}

struct CheckTotals {
  uint64_t SimCycles = 0, StaticInstrs = 0, SimInstrs = 0;
  double SimMicros = 0, TargetBuildMs = 0;
};

/// Verifies every response of \p Phases against a local compile of the
/// same request; see the file comment.
CheckTotals checkResponses(const Traffic &T, const std::deque<PhaseResult> &Phases,
                           RunResult &R) {
  CheckTotals Tot;
  for (const std::string &M : suiteMachines()) {
    Clock::time_point T0 = Clock::now();
    DiagnosticEngine D;
    driver::loadTarget(M, D);
    Tot.TargetBuildMs += millisBetween(T0, Clock::now()) / suiteMachines().size();
  }
  service::CompileService::Config SC;
  SC.UseCache = true;
  service::CompileService Svc(SC);

  std::vector<uint64_t> BaseDigest(T.Cells.size());
  for (size_t C = 0; C < T.Cells.size(); ++C) {
    Request Rq;
    Rq.Cell = static_cast<uint32_t>(C);
    std::optional<driver::Compilation> Keep;
    shard::FileResult Res = Svc.compile(T.localRequest(Rq), &Keep);
    BaseDigest[C] = digestOf(Res.Ok, Res.Assembly, Res.DiagText);
    const std::string Where = T.Cells[C].File + " on " + T.Cells[C].Machine +
                              "/" + strategy::strategyName(T.Cells[C].Strategy);
    ++R.Attempted;
    if (!Res.Ok || !Keep) {
      R.fail("local reference compile failed: " + Where);
      continue;
    }
    Clock::time_point S0 = Clock::now();
    sim::SimResult S;
    {
      LayerSpan Span("sim", "sim::runProgram");
      S = sim::runProgram(Keep->Module, *Keep->Target, "main");
    }
    Tot.SimMicros += millisBetween(S0, Clock::now()) * 1000;
    if (!S.Ok || S.IntResult != 1 ||
        S.Stalls.total() != S.Cycles - S.IssueCycles) {
      R.fail("reference simulation failed: " + Where);
      continue;
    }
    Tot.SimCycles += S.Cycles;
    Tot.SimInstrs += S.Instructions;
    Tot.StaticInstrs += staticInstrCount(Keep->Module);
  }

  // Flatten the requests, then check edits on four threads.
  std::vector<std::pair<const Request *, const Outcome *>> All;
  for (const PhaseResult &P : Phases)
    for (size_t I = 0; I < P.Reqs.size(); ++I)
      All.push_back({&P.Reqs[I], &P.Out[I]});
  std::vector<std::string> Why(All.size());
  std::atomic<size_t> Next{0};
  auto Worker = [&] {
    for (size_t I; (I = Next.fetch_add(1)) < All.size();) {
      const Request &Rq = *All[I].first;
      const Outcome &O = *All[I].second;
      if (O.Transport || !O.Answered) {
        Why[I] = "no answer (transport failure)";
      } else if (O.Busy) {
        Why[I] = "%BUSY";
      } else if (O.TimedOut) {
        Why[I] = "timed out";
      } else if (O.WrongId) {
        Why[I] = "answer carried another request's id";
      } else if (!O.Ok) {
        Why[I] = "compile failed on " + T.Cells[Rq.Cell].Machine + ": " +
                 O.Diag;
      } else if (!Rq.Edit) {
        if (O.Digest != BaseDigest[Rq.Cell])
          Why[I] = "answer differs from the local compile";
      } else {
        std::optional<driver::Compilation> Keep;
        shard::FileResult Res = Svc.compile(T.localRequest(Rq), &Keep);
        if (!Keep || digestOf(Res.Ok, Res.Assembly, Res.DiagText) != O.Digest) {
          Why[I] = "answer differs from the local compile";
          continue;
        }
        sim::SimOptions SO;
        SO.Timing = false;
        for (const GeneratedFunction &G : T.generated(Rq)) {
          sim::SimResult S =
              sim::runProgram(Keep->Module, *Keep->Target, G.Name, SO);
          if (!S.Ok || static_cast<int32_t>(S.IntResult) != G.Expected) {
            Why[I] = G.Name + " returned " + std::to_string(S.IntResult) +
                     ", host value " + std::to_string(G.Expected);
            break;
          }
        }
      }
      if (!Why[I].empty())
        Why[I] = Rq.ReqId + ": " + Why[I];
    }
  };
  std::vector<std::thread> Pool;
  for (int K = 0; K < 4; ++K)
    Pool.emplace_back(Worker);
  for (std::thread &Th : Pool)
    Th.join();
  for (const std::string &W : Why) {
    ++R.Attempted;
    if (!W.empty())
      R.fail(W);
  }
  return Tot;
}

} // namespace

RunResult runDaemonMixed(const RunConfig &Cfg) {
  RunResult R;
  std::signal(SIGPIPE, SIG_IGN);
  std::map<std::string, std::string> Sources;
  ++R.Attempted;
  if (!readSuiteSources(Cfg, Sources) || Cfg.DaemonPath.empty() ||
      Cfg.MidRps <= 0 || Cfg.HighRps <= 0) {
    R.fail("missing workloads, mariond path or rates");
    return R;
  }
  Traffic T(Cfg, Sources);
  const std::string Socket =
      Cfg.OutDir + "/pb-" + std::to_string(::getpid()) + ".sock";
  const std::string AccessLog =
      Cfg.Trace ? Cfg.OutDir + "/access-" + std::to_string(Cfg.Seed) + ".log"
                : std::string();
  if (!AccessLog.empty())
    ::unlink(AccessLog.c_str());

  // Set-up: spawn, first health answer, every cell warmed, scaled to the
  // reference host speed. Repeated; the last daemon serves the measured
  // traffic.
  std::vector<double> SetupS;
  Daemon D;
  for (int I = 0, K = Cfg.Tiny ? 1 : 7; I < K; ++I) {
    D.stop();
    Clock::time_point T0 = Clock::now();
    std::string Err;
    if (!D.start(Cfg, Socket, AccessLog, Err)) {
      R.fail(Err);
      return R;
    }
    if (!warmUp(T, Socket)) {
      R.fail("warm-up compiles failed");
      return R;
    }
    const double Seconds = secondsSince(T0);
    SetupS.push_back(atReferenceSpeed(Seconds, cpuCalibrationNsPerStep(1 << 18),
                                      kCpuReferenceNsPerStep));
  }

  LoadGen G(T, Cfg.Trace);
  if (!G.connect(Socket)) {
    R.fail("cannot connect to mariond");
    return R;
  }
  std::deque<PhaseResult> Phases;
  uint64_t Stream = 0;
  auto RunPhase = [&](double Rps, double Seconds) -> PhaseResult & {
    PhaseResult &P = Phases.emplace_back();
    P.Reqs = T.schedule(Rps, Seconds, ++Stream);
    G.run(P);
    const std::string Tag = "phase" + std::to_string(Stream) + ".";
    R.Facts[Tag + "late_p50_ms"] = percentile(P.lateness(), 0.5);
    R.Facts[Tag + "late_p99_ms"] = percentile(P.lateness(), 0.99);
    R.Facts[Tag + "late_max_ms"] = percentile(P.lateness(), 1);
    if (percentile(P.lateness(), 0.99) > LateLimitMs)
      R.fail("loadgen fell behind its schedule at " +
             std::to_string(static_cast<int>(Rps)) + " req/s");
    return P;
  };
  const double S = Cfg.Tiny ? 0.4 : Cfg.Seconds;

  if (!Cfg.Trace) {
    // The untraced run times the fixed mid rate, then one client that
    // sends each request as soon as the previous one is answered (a closed
    // loop needs one core at a time; saturating both workers would measure
    // how many cores other tenants leave free). Latencies at the high rate,
    // where queueing amplifies the host's own noise, are reported by the
    // traced run.
    PhaseResult &Mid = RunPhase(Cfg.MidRps, 0.6 * S);
    PhaseResult &Closed = Phases.emplace_back();
    Closed.Reqs = T.schedule(ClosedLoopScheduleRps, 0.4 * S, ++Stream);
    G.run(Closed, true,
          Clock::now() + std::chrono::microseconds(
                             static_cast<int64_t>(0.4 * S * 1e6)));
    // Times are scaled to the reference host speed measured by the
    // sender's calibrations: each latency by those of the seconds around
    // it. The raw values stay in the facts.
    Mid.calibrate();
    Closed.calibrate();
    std::vector<double> CalNs;
    for (const auto &[At, Ns] : Mid.Cal)
      CalNs.push_back(Ns);
    R.Facts["calibration.ns_per_step"] = median(CalNs);
    R.Facts["calibration.samples"] = static_cast<double>(CalNs.size());
    R.set("peak_rss_mb", peakRssMiB(D.pid()), "MiB");
    R.Facts["ops_per_s.raw"] = Closed.windowRate(ClosedLoopWindows, false);
    R.set("ops_per_s", Closed.windowRate(ClosedLoopWindows, true), "1/s");
    R.set("lat_p50_ms", Mid.cellMedian(true), "ms");
    R.Facts["lat_p50_ms.raw"] = Mid.cellMedian(false);
    R.Facts["lat_p50_ms.pooled.raw"] = percentile(Mid.latencies(), 0.5);
    R.set("lat_p90_ms", percentile(Mid.latencies(true), 0.90), "ms");
    R.Facts["lat_p90_ms.raw"] = percentile(Mid.latencies(false), 0.90);
    R.Facts["lat_p99_ms"] = percentile(Mid.latencies(true), 0.99);
    R.Facts["samples.mid"] = static_cast<double>(Mid.Reqs.size());
    R.Facts["samples.closed_loop"] = static_cast<double>(Closed.Reqs.size());
    D.stop();
    CheckTotals Tot = checkResponses(T, Phases, R);
    R.set("setup_s", median(SetupS), "s");
    R.set("out_cycles", static_cast<double>(Tot.SimCycles), "cycles");
    R.set("out_instrs", static_cast<double>(Tot.StaticInstrs), "instrs");
    R.Facts["samples.setup"] = static_cast<double>(SetupS.size());
    R.Facts["samples.requests"] = static_cast<double>(R.Attempted);
    return R;
  }

  // Traced: an untraced mid phase as the overhead baseline, then traced mid
  // and high phases feeding the layer metrics and the ledger.
  PhaseResult &MidU = RunPhase(Cfg.MidRps, 0.2 * S);
  std::map<std::string, int64_t> Before, After;
  adminStats(Socket, Before);
  obs::TraceCollector::instance().enable();
  const Clock::time_point SteadyBase = Clock::now();
  const double WallBase = obs::wallMicros();
  PhaseResult &MidT = RunPhase(Cfg.MidRps, 0.3 * S);
  PhaseResult &HighT = RunPhase(Cfg.HighRps, 0.3 * S);
  adminStats(Socket, After);
  const auto Access = readAccessLog(AccessLog);
  double WallMicros = 0;
  for (const PhaseResult *P : {&MidT, &HighT})
    WallMicros += recordRequestSpans(*P, Access, SteadyBase, WallBase);
  reportLedger(computeLedger(drainAndWriteTrace(Cfg), WallMicros), R);
  D.stop();

  auto Mean = [](const std::vector<double> &V) {
    double Sum = 0;
    for (double X : V)
      Sum += X;
    return V.empty() ? 0.0 : Sum / static_cast<double>(V.size());
  };
  const double UntracedMean = Mean(MidU.latencies());
  if (UntracedMean > 0)
    R.set("trace.overhead", Mean(MidT.latencies()) / UntracedMean - 1, "ratio");

  std::vector<double> Wire, Late, EditBackend;
  std::map<std::string, double> PassMicros;
  uint64_t Functions = 0, GlueRuns = 0, Answered = 0;
  for (const PhaseResult *P : {&MidT, &HighT}) {
    Clock::time_point PrevDone[Connections] = {};
    for (size_t I = 0; I < P->Out.size(); ++I) {
      const Outcome &O = P->Out[I];
      Late.push_back(millisBetween(O.Due, O.SendBegin));
      Clock::time_point Prev = PrevDone[O.Conn];
      PrevDone[O.Conn] = O.Done;
      if (!O.Answered)
        continue;
      ++Answered;
      Functions += O.Functions;
      GlueRuns += O.GlueRuns;
      if (P->Reqs[I].Edit)
        EditBackend.push_back(O.BackendMs);
      for (const PassTime &PT : O.Passes)
        PassMicros[PT.Name] += PT.Micros;
      auto It = Access.find(P->Reqs[I].ReqId);
      if (It != Access.end()) {
        const double Wait = Prev > O.SendEnd ? millisBetween(O.SendEnd, Prev) : 0;
        Wire.push_back(millisBetween(O.SendBegin, O.Done) -
                       It->second.TotalMicros / 1000 - Wait);
      }
    }
  }
  auto PerReq = [&](std::initializer_list<const char *> Names) {
    double Sum = 0;
    for (const char *N : Names)
      Sum += PassMicros[N];
    return Answered ? Sum / 1000 / static_cast<double>(Answered) : 0.0;
  };
  CheckTotals Tot = checkResponses(T, Phases, R);
  R.set("target.build_ms", Tot.TargetBuildMs, "ms");
  R.set("select.ms", PerReq({"glue", "select"}), "ms");
  R.set("sched.build_dag_ms", PerReq({"build-dag"}), "ms");
  R.set("sched.prepass_ms", PerReq({"prepass-sched"}), "ms");
  R.set("sched.rase_probe_ms", PerReq({"rase-probe"}), "ms");
  R.set("sched.postpass_ms", PerReq({"postpass-sched"}), "ms");
  R.set("regalloc.allocate_ms", PerReq({"allocate"}), "ms");
  R.set("strategy.frame_lower_ms", PerReq({"frame-lower"}), "ms");
  R.set("sim.ms", Tot.SimMicros / 1000, "ms");
  R.set("sim.instrs_per_s",
        Tot.SimMicros > 0 ? Tot.SimInstrs / (Tot.SimMicros / 1e6) : 0, "1/s");
  R.set("service.queue_ms_p50", histDeltaMs(Before, After, "latency.queue", 0.5),
        "ms");
  R.set("service.queue_ms_p99",
        histDeltaMs(Before, After, "latency.queue", 0.99), "ms");
  R.set("service.compile_ms_p50",
        histDeltaMs(Before, After, "latency.compile", 0.5), "ms");
  R.set("service.compile_ms_p99",
        histDeltaMs(Before, After, "latency.compile", 0.99), "ms");
  R.set("service.backend_ms_p50.edit", percentile(EditBackend, 0.5), "ms");
  R.set("wire.ms_p50", percentile(Wire, 0.5), "ms");
  R.set("cache.hit_ratio",
        Functions ? 1 - static_cast<double>(GlueRuns) / Functions : 0, "ratio");
  R.set("service.rejected",
        static_cast<double>(After["service.rejected"] - Before["service.rejected"]),
        "count");
  R.set("service.max_queue_depth",
        static_cast<double>(After["service.max_queue_depth"]), "count");
  R.set("loadgen.late_p99_ms", percentile(Late, 0.99), "ms");
  R.set("loadgen.lat_p99_ms.high", percentile(HighT.latencies(), 0.99), "ms");
  R.set("loadgen.lat_p50_ms.high", percentile(HighT.latencies(), 0.50), "ms");
  R.Facts["samples.requests"] = static_cast<double>(Answered);
  R.Facts["access_log.entries"] = static_cast<double>(Access.size());
  fillPerLayerDefaults(R);
  return R;
}

} // namespace perfbench
