//===- perfbench/src/Spans.cpp - In-memory span recorder ------------------===//
//
// Part of the OPPSLA reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Spans.h"

#include "support/Json.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <memory>
#include <mutex>

namespace perfbench {

namespace {

struct RawSpan {
  Span S;
  int64_t Parent = -1; ///< index into the same thread's buffer
};

struct ThreadBuffer {
  uint32_t Tid = 0;
  std::vector<RawSpan> Spans;
  std::vector<int64_t> Open; ///< stack of open span indices
  uint64_t Id = 0;
  int16_t Attack = -1, Victim = -1;
};

std::atomic<bool> Recording{false};
std::mutex RegistryMu; ///< guards Buffers, External and NextTid
std::vector<std::shared_ptr<ThreadBuffer>> Buffers;
std::vector<Span> External;
uint32_t NextTid = 1;

ThreadBuffer &threadBuffer() {
  thread_local std::shared_ptr<ThreadBuffer> Buf = [] {
    auto B = std::make_shared<ThreadBuffer>();
    std::lock_guard<std::mutex> Lock(RegistryMu);
    B->Tid = NextTid++;
    Buffers.push_back(B);
    return B;
  }();
  return *Buf;
}

/// Chrome Trace keeps every span up to this many; beyond it only spans of
/// depth 0 and 1 are written (their extents already cover the deeper ones).
constexpr size_t MaxTraceEvents = 300000;

} // namespace

uint64_t nowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void setRecording(bool On) { Recording.store(On, std::memory_order_relaxed); }
bool recording() { return Recording.load(std::memory_order_relaxed); }

void setSpanContext(uint64_t Id, int Attack, int Victim) {
  if (!recording())
    return;
  ThreadBuffer &B = threadBuffer();
  B.Id = Id;
  B.Attack = static_cast<int16_t>(Attack);
  B.Victim = static_cast<int16_t>(Victim);
}

ScopedSpan::ScopedSpan(const char *Name, uint32_t Count) {
  if (!recording())
    return;
  ThreadBuffer &B = threadBuffer();
  RawSpan R;
  R.S.Name = Name;
  R.S.Id = B.Id;
  R.S.Count = Count;
  R.S.Tid = B.Tid;
  R.S.Depth = static_cast<int32_t>(B.Open.size());
  R.S.Attack = B.Attack;
  R.S.Victim = B.Victim;
  R.Parent = B.Open.empty() ? -1 : B.Open.back();
  Slot = static_cast<int64_t>(B.Spans.size());
  B.Spans.push_back(R);
  B.Open.push_back(Slot);
  B.Spans.back().S.StartNs = nowNs();
}

ScopedSpan::~ScopedSpan() {
  if (Slot < 0)
    return;
  const uint64_t End = nowNs();
  ThreadBuffer &B = threadBuffer();
  B.Spans[static_cast<size_t>(Slot)].S.EndNs = End;
  B.Open.pop_back();
}

void addExternalSpan(const char *Name, uint64_t Id, uint64_t StartNs,
                     uint64_t EndNs, uint32_t Tid) {
  Span S;
  S.Name = Name;
  S.Id = Id;
  S.StartNs = StartNs;
  S.EndNs = std::max(StartNs, EndNs);
  S.SelfNs = S.EndNs - S.StartNs;
  S.Tid = Tid;
  std::lock_guard<std::mutex> Lock(RegistryMu);
  External.push_back(S);
}

std::vector<Span> collect() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  std::vector<Span> Out;
  for (const auto &B : Buffers) {
    std::vector<uint64_t> ChildNs(B->Spans.size(), 0);
    for (const RawSpan &R : B->Spans)
      if (R.Parent >= 0 && R.S.EndNs != 0)
        ChildNs[static_cast<size_t>(R.Parent)] += R.S.EndNs - R.S.StartNs;
    for (size_t I = 0; I != B->Spans.size(); ++I) {
      Span S = B->Spans[I].S;
      if (S.EndNs == 0)
        continue; // still open: not part of a finished pass
      const uint64_t Dur = S.EndNs - S.StartNs;
      S.SelfNs = Dur > ChildNs[I] ? Dur - ChildNs[I] : 0;
      Out.push_back(S);
    }
  }
  Out.insert(Out.end(), External.begin(), External.end());
  return Out;
}

void resetSpans() {
  std::lock_guard<std::mutex> Lock(RegistryMu);
  for (const auto &B : Buffers) {
    B->Spans.clear();
    B->Open.clear();
  }
  External.clear();
}

double uncoveredPct(const std::vector<Span> &Spans, uint64_t BeginNs,
                    uint64_t EndNs) {
  if (EndNs <= BeginNs)
    return 0.0;
  std::vector<std::pair<uint64_t, uint64_t>> Iv;
  Iv.reserve(Spans.size());
  for (const Span &S : Spans) {
    const uint64_t B = std::max(S.StartNs, BeginNs);
    const uint64_t E = std::min(S.EndNs, EndNs);
    if (E > B)
      Iv.emplace_back(B, E);
  }
  std::sort(Iv.begin(), Iv.end());
  uint64_t Covered = 0, Reach = BeginNs;
  for (const auto &[B, E] : Iv) {
    const uint64_t From = std::max(B, Reach);
    if (E > From) {
      Covered += E - From;
      Reach = E;
    }
  }
  const double Wall = static_cast<double>(EndNs - BeginNs);
  return 100.0 * (Wall - static_cast<double>(Covered)) / Wall;
}

bool writeChromeTrace(const std::string &Path, const std::vector<Span> &Spans,
                      uint64_t OriginNs, const std::string &Host) {
  const bool Shallow = Spans.size() > MaxTraceEvents;
  std::vector<const Span *> Sorted;
  Sorted.reserve(Spans.size());
  for (const Span &S : Spans)
    if (S.StartNs >= OriginNs && (!Shallow || S.Depth < 2))
      Sorted.push_back(&S);
  std::sort(Sorted.begin(), Sorted.end(), [](const Span *A, const Span *B) {
    return A->Tid != B->Tid ? A->Tid < B->Tid : A->StartNs < B->StartNs;
  });

  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  if (!Out)
    return false;
  std::string Buf = "{\"traceEvents\":[";
  char Num[160];
  bool First = true;
  for (const Span *S : Sorted) {
    if (!First)
      Buf += ",";
    First = false;
    Buf += "{\"name\":\"";
    oppsla::json::escape(Buf, S->Name);
    std::snprintf(Num, sizeof(Num),
                  "\",\"cat\":\"perfbench\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%" PRIu32
                  ",\"args\":{\"id\":%" PRIu64 ",\"count\":%" PRIu32 "}}",
                  static_cast<double>(S->StartNs - OriginNs) * 1e-3,
                  static_cast<double>(S->EndNs - S->StartNs) * 1e-3, S->Tid,
                  S->Id, S->Count);
    Buf += Num;
    if (Buf.size() > (1u << 20)) {
      Out << Buf;
      Buf.clear();
    }
  }
  Buf += "],\"displayTimeUnit\":\"ms\",\"otherData\":{\"host\":\"";
  oppsla::json::escape(Buf, Host);
  Buf += Shallow ? "\",\"depth_limit\":1}}\n" : "\"}}\n";
  Out << Buf;
  return static_cast<bool>(Out);
}

} // namespace perfbench
