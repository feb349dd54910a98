//===- eval/ProgramStore.cpp - Content-addressed program store ---------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "eval/ProgramStore.h"

#include "support/Json.h"
#include "support/Logging.h"
#include "support/Metrics.h"
#include "wire/Wire.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <sstream>

using namespace oppsla;

//===----------------------------------------------------------------------===//
// Key
//===----------------------------------------------------------------------===//

std::string ProgramStoreKey::canonical() const {
  char Buf[64];
  std::string S = "dsl=";
  S += std::to_string(Dsl);
  S += " victim=";
  S += VictimStem;
  S += " cls=";
  S += std::to_string(Label);
  S += " iters=";
  S += std::to_string(MaxIter);
  std::snprintf(Buf, sizeof(Buf), " beta=%.17g", Beta);
  S += Buf;
  S += " cap=";
  S += std::to_string(QueryCap);
  S += " seed=";
  S += std::to_string(Seed);
  S += " islands=";
  S += std::to_string(Islands);
  S += " exch=";
  // A single chain never exchanges: normalize so islands=1 runs with
  // different ExchangeInterval settings share one entry.
  S += std::to_string(Islands > 1 ? ExchangeInterval : 0);
  S += " train=";
  S += std::to_string(TrainPerClass);
  return S;
}

uint64_t ProgramStoreKey::hash() const {
  // FNV-1a 64.
  uint64_t H = 1469598103934665603ULL;
  for (unsigned char C : canonical()) {
    H ^= C;
    H *= 1099511628211ULL;
  }
  return H;
}

//===----------------------------------------------------------------------===//
// Program text round-trip
//===----------------------------------------------------------------------===//

std::string oppsla::programToStoreText(const Program &P) {
  std::string Out;
  char Line[128];
  for (const Condition &C : P.Conds) {
    std::snprintf(Line, sizeof(Line), "%d %d %d %.17g\n",
                  static_cast<int>(C.Func), static_cast<int>(C.Source),
                  static_cast<int>(C.Cmp), C.Threshold);
    Out += Line;
  }
  return Out;
}

bool oppsla::programFromStoreText(const std::string &Text, Program &P) {
  std::istringstream In(Text);
  Program Out;
  for (Condition &C : Out.Conds) {
    std::string Line;
    if (!std::getline(In, Line))
      return false;
    int Func = 0, Source = 0, Cmp = 0;
    double Threshold = 0.0;
    if (std::sscanf(Line.c_str(), "%d %d %d %lg", &Func, &Source, &Cmp,
                    &Threshold) != 4)
      return false;
    if (Func < 0 || Func >= static_cast<int>(NumFuncKinds) || Source < 0 ||
        Source > 1 || Cmp < 0 || Cmp > 1)
      return false;
    C.Func = static_cast<FuncKind>(Func);
    C.Source = static_cast<PixelSource>(Source);
    C.Cmp = static_cast<CmpKind>(Cmp);
    C.Threshold = Threshold;
  }
  P = Out;
  return true;
}

//===----------------------------------------------------------------------===//
// Portfolio selection
//===----------------------------------------------------------------------===//

const StoredProgram &
oppsla::selectFromPortfolio(const std::vector<StoredProgram> &Portfolio) {
  assert(!Portfolio.empty() && "empty portfolio");
  const StoredProgram *Best = nullptr;
  for (const StoredProgram &S : Portfolio) {
    if (S.Successes == 0)
      continue;
    if (!Best || S.AvgQueries < Best->AvgQueries)
      Best = &S;
  }
  return Best ? *Best : Portfolio.front();
}

//===----------------------------------------------------------------------===//
// Store
//===----------------------------------------------------------------------===//

namespace {

/// True for a JSON number that is a whole, non-negative count small enough
/// to be exact in a double (and hence in a size_t).
bool isCount(double X) {
  return std::isfinite(X) && X >= 0.0 && X <= 0x1p53 && X == std::floor(X);
}

} // namespace

ProgramStore::ProgramStore(std::string R) : Root(std::move(R)) {
  if (Root.empty())
    Root = defaultRoot();
}

std::string ProgramStore::defaultRoot() {
  std::string Cache = ".oppsla-cache";
  if (const char *Env = std::getenv("OPPSLA_CACHE_DIR"))
    Cache = Env;
  return Cache + "/programs";
}

std::string ProgramStore::entryPath(const ProgramStoreKey &K) const {
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(K.hash()));
  return Root + "/" + Hex + ".opwf";
}

bool ProgramStore::load(const ProgramStoreKey &K,
                        std::vector<StoredProgram> &Portfolio) const {
  static telemetry::Counter &Hits = telemetry::counter("synth.store.hits");
  static telemetry::Counter &Misses =
      telemetry::counter("synth.store.misses");
  const std::string Path = entryPath(K);

  auto Miss = [&](const char *Why, bool Log) {
    if (Log)
      logWarn() << "program store entry " << Path << " rejected (" << Why
                << "); falling back to synthesis";
    Misses.inc();
    return false;
  };

  wire::WireContents Contents;
  std::string Error;
  {
    std::error_code EC;
    if (!std::filesystem::exists(Path, EC))
      return Miss("absent", /*Log=*/false);
  }
  // The wire reader is all-or-nothing: a truncated file, a bad magic, or
  // any failed record CRC rejects the whole entry.
  if (!wire::readWireFile(Path, Contents, Error))
    return Miss(Error.c_str(), /*Log=*/true);

  json::Value Meta;
  if (!json::parse(Contents.JobSpecJson, Meta, Error))
    return Miss("unparseable metadata", /*Log=*/true);
  // Byte-verify the key: content addressing only picks the file name, the
  // canonical string is the entry's real identity.
  if (Meta.getString("store_key") != K.canonical())
    return Miss("key mismatch", /*Log=*/true);
  const json::Value *Stats = Meta.find("programs");
  if (!Stats || !Stats->isArray())
    return Miss("missing program stats", /*Log=*/true);
  if (Contents.Programs.empty() ||
      Stats->array().size() != Contents.Programs.size())
    return Miss("stats/program count mismatch", /*Log=*/true);

  std::vector<StoredProgram> Out;
  Out.reserve(Contents.Programs.size());
  for (size_t I = 0; I != Contents.Programs.size(); ++I) {
    StoredProgram S;
    if (!programFromStoreText(Contents.Programs[I], S.P))
      return Miss("unparseable program", /*Log=*/true);
    const json::Value &V = Stats->array()[I];
    // The counts steer portfolio selection, so anything save() could not
    // have written is a miss, never a wrapped-around size_t.
    const double Successes = V.getNumber("successes");
    const double Attacks = V.getNumber("attacks");
    if (!isCount(Successes) || !isCount(Attacks) || Successes > Attacks)
      return Miss("invalid program stats", /*Log=*/true);
    S.AvgQueries = V.getNumber("avg_queries");
    S.Successes = static_cast<size_t>(Successes);
    S.Attacks = static_cast<size_t>(Attacks);
    Out.push_back(std::move(S));
  }
  Portfolio = std::move(Out);
  Hits.inc();
  return true;
}

bool ProgramStore::save(const ProgramStoreKey &K,
                        const std::vector<StoredProgram> &Portfolio) const {
  if (Portfolio.empty())
    return false;
  std::error_code EC;
  std::filesystem::create_directories(Root, EC);

  std::string Meta = "{\"store_key\":\"";
  json::escape(Meta, K.canonical());
  Meta += "\",\"programs\":[";
  char Buf[128];
  for (size_t I = 0; I != Portfolio.size(); ++I) {
    const StoredProgram &S = Portfolio[I];
    if (I)
      Meta += ",";
    // %.17g so AvgQueries round-trips exactly: portfolio selection on a
    // rehydrated entry must match selection on the live elites.
    std::snprintf(Buf, sizeof(Buf),
                  "{\"avg_queries\":%.17g,\"successes\":%zu,\"attacks\":%zu}",
                  S.AvgQueries, S.Successes, S.Attacks);
    Meta += Buf;
  }
  Meta += "]}";

  wire::WireBuilder Builder;
  Builder.addJobSpecJson(Meta);
  for (const StoredProgram &S : Portfolio)
    Builder.addProgram(programToStoreText(S.P));

  std::string Error;
  if (!wire::writeFileAtomic(entryPath(K), Builder.finish(), Error)) {
    logWarn() << "program store write failed: " << Error;
    return false;
  }
  return true;
}
