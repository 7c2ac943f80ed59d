//===- perfbench/harness.cpp - Bayonet benchmark harness ------------------===//
//
// Part of the Bayonet reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload in one process and prints JSON lines on
/// standard output: one per answer, then one "result" line with the
/// metrics. The harness times and answers; perfbench/run.py writes the
/// workload from the seed and checks the answers against
/// perfbench/reference.py.
///
/// Usage: perfbench_harness WORKLOAD_FILE, where the file holds lines
///
///   lanes N          threads of every query
///   seconds S        how long the timed passes run
///   trace 0|1        end-to-end run, or the traced per-layer run
///   trace_out PATH   where the traced run writes its Chrome trace
///   sweep L...       traced run: time the sweep query at these lanes
///   query ID ENGINE PARTICLES SEED SOURCE...   answered in every pass
///   check ID ENGINE PARTICLES SEED SOURCE...   answered once, after them
///   sweep_query ID exact PARTICLES SEED SOURCE...   traced run only
///
/// ENGINE is exact, translated or smc. SOURCE is one of: file PATH,
/// chain DIAMONDS PFAIL, ring NODES PHOP, gossip K, bayes IDS STRATEGY,
/// lb OBSERVATIONS PRIOR (PRIOR: paper, bad or good).
///
/// End-to-end run: set-up (every network loaded, cold, timed from process
/// start), one pass to capture the answers, then passes until the time is
/// up. A pass is runInference plus formatExactAnswer for every query; the
/// run reports the sum over queries of each query's fastest time, because
/// on a shared host the slow phases (1.3-1.6x, lasting seconds to minutes)
/// move medians far more than minima, and a single query fits into a short
/// quiet window more often than a whole pass does. The traced run
/// interleaves facade passes with passes that call each layer's public
/// entry point under a span, and times the sweep query alone at each sweep
/// lane count.
///
//===----------------------------------------------------------------------===//

#include "AllocCount.h"

#include "api/Bayonet.h"
#include "lang/Lexer.h"
#include "scenarios/Scenarios.h"
#include "translate/Translator.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

using namespace bayonet;

namespace {

using Clock = std::chrono::steady_clock;

/// Initialized before main runs: set-up is timed from here.
const Clock::time_point ProcessStart = Clock::now();

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) { return T.tv_sec + T.tv_usec * 1e-6; };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

double peakRssMb() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss / 1024.0; // ru_maxrss is in KiB on Linux.
}

[[noreturn]] void die(const std::string &Msg) {
  std::fprintf(stderr, "perfbench_harness: %s\n", Msg.c_str());
  std::exit(2);
}

//===----------------------------------------------------------------------===//
// Workload
//===----------------------------------------------------------------------===//

struct Query {
  std::string Id;
  EngineChoice Engine = EngineChoice::Exact;
  unsigned Particles = 1000;
  uint64_t Seed = 0;
  std::vector<std::string> SourceArgs;
  std::string Source;
  std::optional<LoadedNetwork> Net;

  /// The family a query's per-layer time is reported under: its id up to
  /// the first '.'.
  std::string family() const { return Id.substr(0, Id.find('.')); }
};

struct Workload {
  unsigned Lanes = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string TraceOut;
  std::vector<unsigned> SweepLanes;
  std::optional<Query> SweepQuery;
  std::vector<Query> Queries;
  std::vector<Query> Checks;
};

EngineChoice parseEngine(const std::string &S) {
  if (S == "exact")
    return EngineChoice::Exact;
  if (S == "translated")
    return EngineChoice::Translated;
  if (S == "smc")
    return EngineChoice::Smc;
  die("unknown engine '" + S + "'");
}

Workload readWorkload(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot open workload file '" + Path + "'");
  Workload W;
  std::string Line;
  while (std::getline(In, Line)) {
    std::istringstream LS(Line);
    std::vector<std::string> Tok;
    for (std::string T; LS >> T;)
      Tok.push_back(T);
    if (Tok.empty())
      continue;
    const std::string &Key = Tok[0];
    auto Need = [&](size_t N) {
      if (Tok.size() < N)
        die("malformed workload line: " + Line);
    };
    if (Key == "lanes") {
      Need(2);
      W.Lanes = std::stoul(Tok[1]);
    } else if (Key == "seconds") {
      Need(2);
      W.Seconds = std::stod(Tok[1]);
    } else if (Key == "trace") {
      Need(2);
      W.Trace = Tok[1] == "1";
    } else if (Key == "trace_out") {
      Need(2);
      W.TraceOut = Tok[1];
    } else if (Key == "sweep") {
      for (size_t I = 1; I < Tok.size(); ++I)
        W.SweepLanes.push_back(std::stoul(Tok[I]));
    } else if (Key == "query" || Key == "check" || Key == "sweep_query") {
      Need(7);
      Query Q;
      Q.Id = Tok[1];
      Q.Engine = parseEngine(Tok[2]);
      Q.Particles = std::stoul(Tok[3]);
      Q.Seed = std::stoull(Tok[4]);
      Q.SourceArgs.assign(Tok.begin() + 5, Tok.end());
      if (Key == "sweep_query")
        W.SweepQuery = std::move(Q);
      else
        (Key == "query" ? W.Queries : W.Checks).push_back(std::move(Q));
    } else {
      die("unknown workload line: " + Line);
    }
  }
  if (W.Queries.empty())
    die("workload has no queries");
  if (!W.SweepLanes.empty() &&
      (!W.SweepQuery || W.SweepQuery->Engine != EngineChoice::Exact))
    die("a lane sweep needs an exact sweep_query");
  return W;
}

std::string readFile(const std::string &Path) {
  std::ifstream In(Path);
  if (!In)
    die("cannot open '" + Path + "'");
  std::ostringstream Buf;
  Buf << In.rdbuf();
  return Buf.str();
}

/// The load-balancing network with S0's prior on a bad hash left at the
/// paper's 1/10, or fixed to bad or to good.
std::string loadBalancingSource(const std::string &Obs,
                                const std::string &Prior) {
  std::string Src = scenarios::loadBalancing(Obs);
  if (Prior == "paper")
    return Src;
  const std::string From = "bad_hash(flip(1/10))";
  size_t At = Src.find(From);
  if (At == std::string::npos || (Prior != "bad" && Prior != "good"))
    die("cannot fix the load-balancing prior to '" + Prior + "'");
  return Src.replace(At, From.size(),
                     Prior == "bad" ? "bad_hash(1)" : "bad_hash(0)");
}

std::string makeSource(const Query &Q) {
  const std::vector<std::string> &A = Q.SourceArgs;
  auto Need = [&](size_t N) {
    if (A.size() != N)
      die("query " + Q.Id + ": wrong number of source arguments");
  };
  const std::string &Kind = A[0];
  if (Kind == "file") {
    Need(2);
    return readFile(A[1]);
  }
  if (Kind == "chain") {
    Need(3);
    return scenarios::reliabilityChain(std::stoul(A[1]), "uniform", A[2]);
  }
  if (Kind == "ring") {
    Need(3);
    return scenarios::ringReliability(std::stoul(A[1]), A[2]);
  }
  if (Kind == "gossip") {
    Need(2);
    return scenarios::gossip(std::stoul(A[1]));
  }
  if (Kind == "bayes") {
    Need(3);
    return scenarios::reliabilityBayes(A[1], A[2]);
  }
  if (Kind == "lb") {
    Need(3);
    return loadBalancingSource(A[1], A[2]);
  }
  die("query " + Q.Id + ": unknown source kind '" + Kind + "'");
}

void load(Query &Q) {
  Q.Source = makeSource(Q);
  DiagEngine Diags;
  Q.Net = loadNetwork(Q.Source, Diags);
  if (!Q.Net)
    die("query " + Q.Id + " does not load:\n" + Diags.toString());
}

//===----------------------------------------------------------------------===//
// Answers
//===----------------------------------------------------------------------===//

struct Answer {
  bool Failed = false;
  /// What passes compare: the rendered exact answer, every digit of an SMC
  /// estimate, or the failure.
  std::string Text;
  std::string OkMass; ///< Check queries: the concrete surviving mass.
  double Value = 0, StdError = 0;
  unsigned Survivors = 0, Particles = 0;
};

ExactResult asExact(PsiExactResult &&P) {
  ExactResult E;
  E.Kind = P.Kind;
  E.QueryMass = std::move(P.QueryMass);
  E.OkMass = std::move(P.OkMass);
  E.ErrorMass = std::move(P.ErrorMass);
  E.QueryUnsupported = P.QueryUnsupported;
  E.UnsupportedReason = std::move(P.UnsupportedReason);
  return E;
}

Answer failed(const std::string &Why) {
  Answer A;
  A.Failed = true;
  A.Text = "failed: " + Why;
  return A;
}

Answer exactAnswer(const ExactResult &R, const ParamTable &Params,
                   bool WithOkMass = false) {
  Answer A;
  A.Text = formatExactAnswer(R, Params);
  if (WithOkMass && R.OkMass.isConcrete())
    A.OkMass = R.OkMass.concreteValue().toString();
  return A;
}

Answer sampleAnswer(const SampleResult &R) {
  Answer A;
  A.Value = R.Value;
  A.StdError = R.StdError;
  A.Survivors = R.Survivors;
  A.Particles = R.Particles;
  char Buf[96];
  std::snprintf(Buf, sizeof(Buf), "%.17g +- %.17g (%u/%u)", R.Value,
                R.StdError, R.Survivors, R.Particles);
  A.Text = Buf;
  return A;
}

/// One query through the public facade: runInference, then rendering.
Answer answerFacade(const Query &Q, unsigned Lanes, bool WithOkMass = false) {
  InferenceOptions O;
  O.Engine = Q.Engine;
  O.Threads = Lanes;
  O.Particles = Q.Particles;
  O.Seed = Q.Seed;
  InferenceResult R = runInference(*Q.Net, O);
  if (!R.Status.ok())
    return failed(R.Status.toString());
  if (R.Exact)
    return exactAnswer(*R.Exact, Q.Net->Spec.Params, WithOkMass);
  if (R.Translated)
    return exactAnswer(asExact(std::move(*R.Translated)), Q.Net->Spec.Params);
  if (R.Sampled)
    return sampleAnswer(*R.Sampled);
  return failed("no result");
}

//===----------------------------------------------------------------------===//
// Output
//===----------------------------------------------------------------------===//

std::string jsonStr(const std::string &S) {
  std::string Out = "\"";
  for (unsigned char C : S) {
    if (C == '"' || C == '\\') {
      Out += '\\';
      Out += static_cast<char>(C);
    } else if (C == '\n') {
      Out += "\\n";
    } else if (C < 0x20) {
      char Buf[8];
      std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
      Out += Buf;
    } else {
      Out += static_cast<char>(C);
    }
  }
  return Out + "\"";
}

std::string jsonNum(double V) {
  if (!std::isfinite(V))
    return "null";
  char Buf[32];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printAnswer(const Query &Q, const Answer &A) {
  std::string Line = "{\"kind\":\"answer\",\"id\":" + jsonStr(Q.Id) +
                     ",\"engine\":" + jsonStr(engineChoiceName(Q.Engine)) +
                     ",\"failed\":" + (A.Failed ? "true" : "false") +
                     ",\"text\":" + jsonStr(A.Text);
  if (!A.OkMass.empty())
    Line += ",\"ok_mass\":" + jsonStr(A.OkMass);
  if (Q.Engine == EngineChoice::Smc)
    Line += ",\"value\":" + jsonNum(A.Value) +
            ",\"stderr\":" + jsonNum(A.StdError) +
            ",\"survivors\":" + std::to_string(A.Survivors) +
            ",\"particles\":" + std::to_string(A.Particles);
  std::printf("%s}\n", Line.c_str());
}

using Metrics = std::map<std::string, double>;

//===----------------------------------------------------------------------===//
// Timed passes
//===----------------------------------------------------------------------===//

/// Runs the workload's queries: the first pass captures the answers, the
/// later ones are compared with it.
struct Passes {
  const Workload &W;
  std::vector<Answer> First;
  /// Each query's fastest time over the passes so far.
  std::vector<double> Fastest;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  bool Consistent = true;

  explicit Passes(const Workload &W)
      : W(W), Fastest(W.Queries.size(),
                      std::numeric_limits<double>::infinity()) {}

  /// One facade pass; returns its wall time in seconds.
  double run() {
    std::vector<Answer> Got;
    Got.reserve(W.Queries.size());
    double Pass = 0;
    for (size_t I = 0; I < W.Queries.size(); ++I) {
      auto T0 = Clock::now();
      Got.push_back(answerFacade(W.Queries[I], W.Lanes));
      double Dt = secondsSince(T0);
      Fastest[I] = std::min(Fastest[I], Dt);
      Pass += Dt;
    }
    record(Got);
    return Pass;
  }

  /// A pass as fast as each query has gone on its own.
  double fastestSum() const {
    double S = 0;
    for (double T : Fastest)
      S += T;
    return S;
  }

  /// Counts a pass's answers; any answer that differs from the first
  /// pass's makes the run inconsistent.
  void record(const std::vector<Answer> &Got) {
    bool Capture = First.empty();
    for (size_t I = 0; I < Got.size(); ++I) {
      ++Attempted;
      if (Got[I].Failed)
        ++Failed;
      if (!Capture && Got[I].Text != First[I].Text) {
        Consistent = false;
        std::fprintf(stderr, "query %s changed its answer: %s, then %s\n",
                     W.Queries[I].Id.c_str(), First[I].Text.c_str(),
                     Got[I].Text.c_str());
      }
    }
    if (Capture)
      First = Got;
  }
};

//===----------------------------------------------------------------------===//
// Traced run
//===----------------------------------------------------------------------===//

/// Spans recorded around calls into each layer, kept in memory and written
/// as a Chrome/Perfetto trace when the run ends.
class SpanLog {
public:
  struct Rec {
    std::string Name;
    std::string Detail;
    int Parent = -1;
    unsigned Pass = 0;
    Clock::time_point Start, End;
    uint64_t AllocStart = 0, Allocs = 0;
  };

  int open(std::string Name, std::string Detail, unsigned Pass) {
    Rec R;
    R.Name = std::move(Name);
    R.Detail = std::move(Detail);
    R.Parent = Cur;
    R.Pass = Pass;
    R.AllocStart = perfbench::allocsNow();
    R.Start = Clock::now();
    Recs.push_back(std::move(R));
    Cur = static_cast<int>(Recs.size()) - 1;
    return Cur;
  }

  void close(int Id) {
    Rec &R = Recs[Id];
    R.End = Clock::now();
    R.Allocs = perfbench::allocsNow() - R.AllocStart;
    Cur = R.Parent;
  }

  const std::vector<Rec> &recs() const { return Recs; }

  static double seconds(const Rec &R) {
    return std::chrono::duration<double>(R.End - R.Start).count();
  }

  /// Each span's duration minus the part its child spans cover.
  std::vector<double> selfSeconds() const {
    std::vector<double> Self(Recs.size());
    for (size_t I = 0; I < Recs.size(); ++I)
      Self[I] += seconds(Recs[I]);
    for (const Rec &R : Recs)
      if (R.Parent >= 0)
        Self[R.Parent] -= seconds(R);
    return Self;
  }

  bool writeChrome(const std::string &Path, Clock::time_point Origin) const {
    std::FILE *F = std::fopen(Path.c_str(), "w");
    if (!F)
      return false;
    std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    std::fprintf(F, "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
                    "\"tid\":1,\"args\":{\"name\":\"perfbench\"}}");
    auto Us = [&](Clock::time_point T) {
      return std::chrono::duration<double, std::micro>(T - Origin).count();
    };
    for (size_t I = 0; I < Recs.size(); ++I) {
      const Rec &R = Recs[I];
      std::string Cat = R.Name.substr(0, R.Name.find('.'));
      std::fprintf(F,
                   ",\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"pass\":%u,\"allocs\":%llu,\"detail\":%s}}",
                   jsonStr(R.Name).c_str(), jsonStr(Cat).c_str(), Us(R.Start),
                   Us(R.End) - Us(R.Start), I, R.Parent, R.Pass,
                   static_cast<unsigned long long>(R.Allocs),
                   jsonStr(R.Detail).c_str());
    }
    std::fprintf(F, "\n]}\n");
    return std::fclose(F) == 0;
  }

private:
  std::vector<Rec> Recs;
  int Cur = -1;
};

class Scope {
public:
  Scope(SpanLog &L, std::string Name, unsigned Pass, std::string Detail = {})
      : L(L), Id(L.open(std::move(Name), std::move(Detail), Pass)) {}
  ~Scope() { L.close(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  SpanLog &L;
  int Id;
};

/// Counts of one traced pass, read from what the engines return.
struct Counts {
  uint64_t Tokens = 0, PsiVars = 0, PsiStmts = 0;
  uint64_t PsiBranches = 0, PsiMaxDist = 0, PsiHits = 0, PsiAttempts = 0;
  uint64_t Configs = 0, MaxFrontier = 0, Steps = 0;
  uint64_t MergeHits = 0, MergeAttempts = 0;
  uint64_t TxHits = 0, TxLookups = 0, InternHits = 0, InternLookups = 0;
  uint64_t BudgetPeakBytes = 0, ParticleSteps = 0, Regions = 0;
};

uint64_t countStmts(const std::vector<PStmtPtr> &Body) {
  uint64_t N = 0;
  for (const PStmtPtr &S : Body)
    N += 1 + countStmts(S->Then) + countStmts(S->Else);
  return N;
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Loads a network through the frontend's own entry points, one span each.
LoadedNetwork loadTraced(const Query &Q, SpanLog &L, unsigned Pass,
                         Counts &C) {
  DiagEngine Diags;
  std::vector<Token> Tokens;
  {
    Scope S(L, "lang.lex", Pass, Q.Id);
    Tokens = Lexer(Q.Source, Diags).lexAll();
  }
  C.Tokens += Tokens.size();
  auto File = std::make_unique<SourceFile>();
  {
    Scope S(L, "lang.parse", Pass, Q.Id);
    *File = Parser(std::move(Tokens), Diags).parseFile();
  }
  std::optional<NetworkSpec> Spec;
  if (!Diags.hasErrors()) {
    Scope S(L, "lang.check", Pass, Q.Id);
    Spec = checkNetwork(*File, Diags);
  }
  if (!Spec)
    die("query " + Q.Id + " does not load:\n" + Diags.toString());
  LoadedNetwork Net;
  Net.File = std::move(File);
  Net.Spec = std::move(*Spec);
  return Net;
}

/// One query through each layer's public entry point, the same calls
/// runInference and loadNetwork make, each under its span.
Answer answerTraced(const Query &Q, const LoadedNetwork &Net, unsigned Lanes,
                    SpanLog &L, unsigned Pass, Counts &C) {
  Scope QS(L, "query", Pass, Q.Id);
  auto Tracker = std::make_shared<BudgetTracker>();
  switch (Q.Engine) {
  case EngineChoice::Exact: {
    ExactOptions EO;
    EO.Threads = Lanes;
    EO.Budget = Tracker;
    ExactResult R;
    {
      Scope S(L, "interp.exact", Pass, Q.family());
      R = ExactEngine(Net.Spec, EO).run();
    }
    if (!R.Status.ok())
      return failed(R.Status.toString());
    C.Configs += R.ConfigsExpanded;
    C.MaxFrontier = std::max<uint64_t>(C.MaxFrontier, R.MaxFrontierSize);
    C.Steps += R.StepsUsed;
    C.MergeHits += R.MergeHits;
    C.MergeAttempts += R.MergeAttempts;
    C.TxHits += R.TxHits;
    C.TxLookups += R.TxHits + R.TxMisses;
    C.InternHits += R.InternHits;
    C.InternLookups += R.InternHits + R.InternMisses;
    C.BudgetPeakBytes = std::max(C.BudgetPeakBytes, Tracker->peakBytes());
    Answer A;
    {
      Scope S(L, "symbolic.cases", Pass, Q.Id);
      A = exactAnswer(R, Net.Spec.Params);
    }
    if (!R.concreteValue())
      C.Regions += std::count(A.Text.begin(), A.Text.end(), '\n') + 1;
    return A;
  }
  case EngineChoice::Translated: {
    DiagEngine Diags;
    std::optional<PsiProgram> Psi;
    {
      Scope S(L, "translate", Pass, Q.Id);
      Psi = translateToPsi(Net.Spec, Diags);
    }
    if (!Psi)
      return failed(Diags.toString());
    C.PsiVars += Psi->VarNames.size();
    C.PsiStmts += countStmts(Psi->Body);
    PsiExactOptions PO;
    PO.Threads = Lanes;
    PO.Budget = Tracker;
    PsiExactResult R;
    {
      Scope S(L, "psi.run", Pass, Q.Id);
      R = PsiExact(*Psi, PO).run();
    }
    if (!R.Status.ok())
      return failed(R.Status.toString());
    C.PsiBranches += R.BranchesExpanded;
    C.PsiMaxDist = std::max<uint64_t>(C.PsiMaxDist, R.MaxDistSize);
    C.PsiHits += R.MergeHits;
    C.PsiAttempts += R.MergeAttempts;
    ExactResult E = asExact(std::move(R));
    Answer A;
    {
      Scope S(L, "symbolic.cases", Pass, Q.Id);
      A = exactAnswer(E, Net.Spec.Params);
    }
    if (!E.concreteValue())
      C.Regions += std::count(A.Text.begin(), A.Text.end(), '\n') + 1;
    return A;
  }
  case EngineChoice::Smc:
  case EngineChoice::Reject: {
    SampleOptions SO;
    SO.Particles = Q.Particles;
    SO.Seed = Q.Seed;
    SO.Threads = Lanes;
    SO.Budget = Tracker;
    SampleResult R;
    {
      Scope S(L, "interp.smc", Pass, Q.Id);
      R = Sampler(Net.Spec, SO).run();
    }
    if (!R.Status.ok())
      return failed(R.Status.toString());
    C.ParticleSteps += Tracker->statesSpent();
    return sampleAnswer(R);
  }
  }
  return failed("unknown engine");
}

/// Per-layer metrics of a traced run: times are the minimum over traced
/// passes of the layer's self time in a pass; counts come from the last
/// pass (they repeat exactly at 1 lane).
struct TracedRun {
  const Workload &W;
  Passes &P;
  SpanLog Log;
  Counts Last;
  unsigned Pass = 0;
  std::map<std::string, double> MinTime;
  std::vector<double> HeapDebt;
  double MinTraced = std::numeric_limits<double>::infinity();
  /// Heap allocations of each layer in the last traced pass.
  struct {
    uint64_t Lang = 0, Psi = 0, Exact = 0, Smc = 0;
  } Allocs;
  /// The sweep query's answer, and every digit of it and its masses.
  Answer SweepFirst;
  std::string SweepText;
  /// max/mean of WorkerConfigsExpanded per sweep lane count.
  std::map<unsigned, double> Imbalance;

  TracedRun(const Workload &W, Passes &P) : W(W), P(P) {}

  void noteMin(const std::string &Name, double V) {
    auto [It, New] = MinTime.emplace(Name, V);
    if (!New)
      It->second = std::min(It->second, V);
  }

  /// Loads every source and answers every query with spans around each
  /// layer call; returns the answer phase's wall time.
  double tracedPass() {
    Counts C;
    std::vector<LoadedNetwork> Nets;
    {
      Scope S(Log, "load", Pass);
      for (const Query &Q : W.Queries)
        Nets.push_back(loadTraced(Q, Log, Pass, C));
    }
    std::vector<Answer> Got;
    auto T0 = Clock::now();
    {
      Scope S(Log, "answer", Pass);
      for (size_t I = 0; I < W.Queries.size(); ++I)
        Got.push_back(
            answerTraced(W.Queries[I], Nets[I], W.Lanes, Log, Pass, C));
    }
    double Dt = secondsSince(T0);
    P.record(Got);
    Last = std::move(C);
    return Dt;
  }

  /// The sweep query alone through ExactEngine::run at each sweep lane
  /// count; every answer, masses included, must be bit-identical.
  void sweep() {
    if (W.SweepLanes.empty())
      return;
    const Query &Q = *W.SweepQuery;
    for (unsigned Lanes : W.SweepLanes) {
      std::string T = "_t" + std::to_string(Lanes);
      ExactOptions EO;
      EO.Threads = Lanes;
      EO.Budget = std::make_shared<BudgetTracker>();
      ExactResult R;
      double Cpu0 = cpuSeconds();
      auto T0 = Clock::now();
      {
        Scope S(Log, "interp.exact", Pass, "sweep t" + std::to_string(Lanes));
        R = ExactEngine(Q.Net->Spec, EO).run();
      }
      noteMin("interp.exact_run_s" + T, secondsSince(T0));
      noteMin("interp.exact_cpu_s" + T, cpuSeconds() - Cpu0);
      ++P.Attempted;
      if (!R.Status.ok()) {
        ++P.Failed;
        continue;
      }
      const std::vector<uint64_t> &Lane = R.WorkerConfigsExpanded;
      if (!Lane.empty()) {
        uint64_t Sum = 0;
        for (uint64_t N : Lane)
          Sum += N;
        Imbalance[Lanes] = ratio(*std::max_element(Lane.begin(), Lane.end()),
                                 double(Sum) / Lane.size());
      }
      std::string Text = formatExactAnswer(R, Q.Net->Spec.Params) +
                         " query=" + R.QueryMass.toString(Q.Net->Spec.Params) +
                         " ok=" + R.OkMass.toString(Q.Net->Spec.Params);
      if (SweepText.empty()) {
        SweepText = Text;
        SweepFirst = exactAnswer(R, Q.Net->Spec.Params);
      }
      if (Text != SweepText) {
        P.Consistent = false;
        std::fprintf(stderr, "%u lanes answer %s, not %s\n", Lanes,
                     Text.c_str(), SweepText.c_str());
      }
    }
  }

  /// The first load of a source right after Sampler::run, against the same
  /// load once the heap has settled.
  void heapDebtProbe() {
    for (const Query &Q : W.Queries) {
      if (Q.Engine != EngineChoice::Smc)
        continue;
      SampleOptions SO;
      SO.Particles = Q.Particles;
      SO.Seed = Q.Seed;
      SO.Threads = W.Lanes;
      {
        Scope S(Log, "probe.smc", Pass, Q.Id);
        Sampler(Q.Net->Spec, SO).run();
      }
      ++P.Attempted;
      double After = loadSeconds(Q, "probe.load_after_smc");
      double Quiet = loadSeconds(Q, "probe.load_quiet");
      HeapDebt.push_back(After - Quiet);
    }
  }

  double loadSeconds(const Query &Q, const char *Name) {
    DiagEngine Diags;
    auto T0 = Clock::now();
    Scope S(Log, Name, Pass, Q.Id);
    auto Net = loadNetwork(Q.Source, Diags);
    if (!Net)
      die("query " + Q.Id + " does not reload");
    return secondsSince(T0);
  }

  /// Rounds of (facade pass, probe, traced pass, sweep) until time is up.
  /// The probe ends on a settled heap, so the traced pass's frontend spans
  /// do not pay for the facade pass's SMC population.
  Metrics run() {
    double MinFacade = std::numeric_limits<double>::infinity();
    auto Start = Clock::now();
    do {
      ++Pass;
      MinFacade = std::min(MinFacade, P.run());
      heapDebtProbe();
      MinTraced = std::min(MinTraced, tracedPass());
      collectTimes();
      sweep();
    } while (secondsSince(Start) < W.Seconds);
    return metrics(MinFacade);
  }

  /// Folds the last pass's span self times into per-layer minima.
  void collectTimes() {
    std::vector<double> Self = Log.selfSeconds();
    std::map<std::string, double> Sum;
    uint64_t LangAllocs = 0, PsiAllocs = 0, ExactAllocs = 0, SmcAllocs = 0;
    for (size_t I = 0; I < Log.recs().size(); ++I) {
      const SpanLog::Rec &R = Log.recs()[I];
      if (R.Pass != Pass)
        continue;
      const std::string &N = R.Name;
      if (N == "lang.lex" || N == "lang.parse" || N == "lang.check") {
        Sum[N + "_s"] += Self[I];
        LangAllocs += R.Allocs;
      } else if (N == "translate") {
        Sum["translate.translate_s"] += Self[I];
      } else if (N == "psi.run") {
        Sum["psi.run_s"] += Self[I];
        PsiAllocs += R.Allocs;
      } else if (N == "interp.exact") {
        Sum["interp.exact_run_s"] += Self[I];
        Sum["interp.exact_run_s." + R.Detail] += Self[I];
        ExactAllocs += R.Allocs;
      } else if (N == "interp.smc") {
        Sum["interp.smc_run_s"] += Self[I];
        SmcAllocs += R.Allocs;
      } else if (N == "symbolic.cases") {
        Sum["symbolic.cases_s"] += Self[I];
      }
    }
    for (const auto &[Name, V] : Sum)
      noteMin(Name, V);
    Allocs.Lang = LangAllocs;
    Allocs.Psi = PsiAllocs;
    Allocs.Exact = ExactAllocs;
    Allocs.Smc = SmcAllocs;
  }


  Metrics metrics(double MinFacade) {
    Metrics M;
    for (const auto &[Name, V] : MinTime)
      M[Name] = V;
    const Counts &C = Last;
    M["lang.tokens"] = C.Tokens;
    M["lang.allocs"] = Allocs.Lang;
    M["translate.psi_vars"] = C.PsiVars;
    M["translate.psi_stmts"] = C.PsiStmts;
    M["psi.branches"] = C.PsiBranches;
    M["psi.max_dist"] = C.PsiMaxDist;
    M["psi.merge_hit_rate"] = ratio(C.PsiHits, C.PsiAttempts);
    M["psi.allocs"] = Allocs.Psi;
    M["interp.configs"] = C.Configs;
    M["interp.max_frontier"] = C.MaxFrontier;
    M["interp.steps"] = C.Steps;
    M["interp.merge_hit_rate"] = ratio(C.MergeHits, C.MergeAttempts);
    M["interp.txcache_hit_rate"] = ratio(C.TxHits, C.TxLookups);
    M["interp.intern_hit_rate"] = ratio(C.InternHits, C.InternLookups);
    M["interp.allocs"] = Allocs.Exact;
    M["interp.budget_peak_bytes"] = C.BudgetPeakBytes;
    for (const auto &[Lanes, V] : Imbalance)
      M["interp.lane_imbalance_t" + std::to_string(Lanes)] = V;
    M["interp.particle_steps"] = C.ParticleSteps;
    M["interp.smc_allocs"] = Allocs.Smc;
    if (!HeapDebt.empty()) {
      std::sort(HeapDebt.begin(), HeapDebt.end());
      M["interp.smc_heap_debt_s"] = HeapDebt[HeapDebt.size() / 2];
    }
    double T1 = M.count("interp.exact_run_s_t1") ? M["interp.exact_run_s_t1"]
                                                   : 0;
    for (unsigned Lanes : W.SweepLanes)
      if (Lanes != 1)
        M["interp.speedup_t" + std::to_string(Lanes)] =
            ratio(T1, M["interp.exact_run_s_t" + std::to_string(Lanes)]);
    M["symbolic.regions"] = C.Regions;
    M["trace.base_s"] = MinFacade;
    M["trace.overhead"] = ratio(MinTraced, MinFacade);
    return M;
  }
};

} // namespace

int main(int Argc, char **Argv) {
  if (Argc != 2) {
    std::fprintf(stderr, "usage: %s WORKLOAD_FILE\n", Argv[0]);
    return 2;
  }
  Workload W = readWorkload(Argv[1]);

  // Set-up, cold and before any engine runs: every network is generated or
  // read, then lexed, parsed and checked.
  for (Query &Q : W.Queries)
    load(Q);
  for (Query &Q : W.Checks)
    load(Q);
  if (W.SweepQuery)
    load(*W.SweepQuery);
  double SetupS = secondsSince(ProcessStart);

  Passes P(W);
  P.run(); // Captures the answers; warms the caches.
  for (size_t I = 0; I < W.Queries.size(); ++I)
    printAnswer(W.Queries[I], P.First[I]);

  Metrics M;
  if (W.Trace) {
    TracedRun T(W, P);
    M = T.run();
    if (!W.SweepLanes.empty())
      printAnswer(*W.SweepQuery, T.SweepFirst);
    if (!W.TraceOut.empty() && !T.Log.writeChrome(W.TraceOut, ProcessStart))
      die("cannot write trace '" + W.TraceOut + "'");
  } else {
    std::vector<double> Times;
    auto Start = Clock::now();
    do
      Times.push_back(P.run());
    while (secondsSince(Start) < W.Seconds);
    std::string Log;
    for (double T : Times)
      Log += " " + std::to_string(T);
    std::fprintf(stderr, "passes (s):%s\n", Log.c_str());
    M["answer_s"] = P.fastestSum();
    M["setup_s"] = SetupS;
  }

  // Answered once, after the timed passes, so their heap does not carry
  // into them.
  for (Query &Q : W.Checks) {
    Answer A = answerFacade(Q, W.Lanes, /*WithOkMass=*/true);
    ++P.Attempted;
    P.Failed += A.Failed;
    printAnswer(Q, A);
  }
  if (!W.Trace)
    M["peak_rss_mb"] = peakRssMb();

  std::string Line = "{\"kind\":\"result\",\"attempted\":" +
                     std::to_string(P.Attempted) +
                     ",\"failed\":" + std::to_string(P.Failed) +
                     ",\"consistent\":" + (P.Consistent ? "true" : "false") +
                     ",\"metrics\":{";
  bool FirstMetric = true;
  for (const auto &[Name, V] : M) {
    Line += (FirstMetric ? "" : ",") + jsonStr(Name) + ":" + jsonNum(V);
    FirstMetric = false;
  }
  std::printf("%s}}\n", Line.c_str());
  return 0;
}
