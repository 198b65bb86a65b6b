//===- detect/RaceConfirmer.cpp - RaceFuzzer-style confirmation ----------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "detect/RaceConfirmer.h"

#include "obs/Metrics.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <charconv>
#include <limits>

using namespace narada;

LabelSite::LabelSite(const std::string &Label) {
  size_t Colon = Label.rfind(':');
  if (Colon == std::string::npos)
    return;
  const char *End = Label.data() + Label.size();
  uint64_t Parsed = 0;
  auto [Ptr, Ec] = std::from_chars(Label.data() + Colon + 1, End, Parsed);
  if (Ec != std::errc() || Ptr != End ||
      Parsed > std::numeric_limits<uint32_t>::max())
    return;
  std::string Name = Label.substr(0, Colon);
  // "007" or "+7" parse too, but no program point formats that way.
  if (formatString("%s:%u", Name.c_str(), static_cast<uint32_t>(Parsed)) !=
      Label)
    return;
  RoundTrips = true;
  FuncName = std::move(Name);
  Pc = static_cast<uint32_t>(Parsed);
}

void LabelSite::resolve(const IRModule &M) {
  Func = RoundTrips ? M.findFunction(FuncName) : nullptr;
}

/// The name of the field a pending field access touches.
static const std::string &fieldName(const PendingAccess &Access) {
  return Access.Func->instrs()[Access.Pc].Member;
}

/// A uniformly random element of \p Runnable other than \p Skip, which
/// \p Runnable holds along with at least one more thread.  Draws exactly as
/// indexing a copy of \p Runnable without \p Skip would.
static ThreadId pickOther(const std::vector<ThreadId> &Runnable,
                          ThreadId Skip, RNG &Rand) {
  size_t Index = Rand.nextBelow(Runnable.size() - 1);
  for (ThreadId T : Runnable) {
    if (T == Skip)
      continue;
    if (Index-- == 0)
      return T;
  }
  narada_unreachable("skipped thread not in the runnable set");
}

RaceConfirmPolicy::~RaceConfirmPolicy() {
  obs::MetricsRegistry &Metrics = obs::MetricsRegistry::global();
  if (ThreadsPaused)
    Metrics.counter("confirm.threads_paused").inc(ThreadsPaused);
  if (PauseTimeouts)
    Metrics.counter("confirm.pause_timeouts").inc(PauseTimeouts);
  if (RacesPaired)
    Metrics.counter("confirm.races_paired").inc(RacesPaired);
}

std::optional<std::pair<PendingAccess, bool>>
RaceConfirmPolicy::matchAt(ThreadId T, VM &M) {
  std::optional<PendingAccess> Access = M.peekAccess(T);
  if (!Access)
    return std::nullopt;
  if (SiteA.matches(Access->Func, Access->Pc))
    return std::make_pair(*Access, true);
  if (SiteB.matches(Access->Func, Access->Pc))
    return std::make_pair(*Access, false);
  return std::nullopt;
}

ThreadId RaceConfirmPolicy::pick(const std::vector<ThreadId> &Runnable,
                                 VM &M) {
  if (!Resolved) {
    SiteA.resolve(M.module());
    SiteB.resolve(M.module());
    Resolved = true;
  }

  // After a confirmation, fire the second racer immediately so the two
  // accesses are adjacent in the chosen order.
  if (FireNext != NoThread) {
    ThreadId Next = FireNext;
    FireNext = NoThread;
    if (std::find(Runnable.begin(), Runnable.end(), Next) != Runnable.end())
      return Next;
    return Runnable[Rand.nextBelow(Runnable.size())];
  }

  bool PausedRunnable =
      Paused != NoThread &&
      std::find(Runnable.begin(), Runnable.end(), Paused) != Runnable.end();

  if (Paused != NoThread && PausedRunnable) {
    // Look for a partner at the complementary access on the same location.
    for (ThreadId T : Runnable) {
      if (T == Paused)
        continue;
      std::optional<std::pair<PendingAccess, bool>> Match = matchAt(T, M);
      if (!Match)
        continue;
      // For distinct labels the partner must sit at the *other* access; for
      // a same-label pair (the "concurrent access at the same label from a
      // different thread" case) any second thread at the label qualifies.
      if (!SameLabel && Match->second == PausedIsA)
        continue;
      const PendingAccess &Other = Match->first;
      if (Other.Obj != PausedAccess.Obj ||
          Other.IsElem != PausedAccess.IsElem ||
          (Other.IsElem && Other.ElemIndex != PausedAccess.ElemIndex))
        continue;
      if (!Other.IsWrite && !PausedAccess.IsWrite)
        continue;

      // Reproduced: both threads are at the racy accesses simultaneously.
      // The report is the one place this policy builds strings.
      RaceReport R;
      R.Detector = "confirm";
      if (M.heap().isValid(PausedAccess.Obj) &&
          M.heap().object(PausedAccess.Obj).Class)
        R.ClassName = M.heap().object(PausedAccess.Obj).Class->Name;
      R.Field = PausedAccess.IsElem ? "[]" : fieldName(PausedAccess);
      R.Obj = PausedAccess.Obj;
      R.IsElem = PausedAccess.IsElem;
      R.ElemIndex = PausedAccess.ElemIndex;
      R.FirstLabel = formatLabel(PausedAccess.Func, PausedAccess.Pc);
      R.SecondLabel = formatLabel(Other.Func, Other.Pc);
      R.FirstThread = Paused;
      R.SecondThread = T;
      R.FirstIsWrite = PausedAccess.IsWrite;
      R.SecondIsWrite = Other.IsWrite;
      Confirmed = std::move(R);
      ++RacesPaired;

      ThreadId First = SecondFirst ? T : Paused;
      ThreadId Second = SecondFirst ? Paused : T;
      Paused = NoThread;
      FireNext = Second;
      return First;
    }

    if (++PausedFor > PauseBudget) {
      // Give up: the partner never arrived (the context may not share the
      // object).  Release the paused thread.
      ++PauseTimeouts;
      ThreadId Released = Paused;
      Paused = NoThread;
      PausedFor = 0;
      return Released;
    }

    // Keep the paused thread parked; run anyone else.
    if (Runnable.size() == 1) {
      ThreadId Released = Paused;
      Paused = NoThread;
      return Released;
    }
    return pickOther(Runnable, Paused, Rand);
  }

  Paused = NoThread;

  // No pause active: park the first thread that reaches a candidate access
  // (unless a confirmation already happened — then just run randomly).
  if (!Confirmed) {
    for (ThreadId T : Runnable) {
      std::optional<std::pair<PendingAccess, bool>> Match = matchAt(T, M);
      if (!Match)
        continue;
      if (Runnable.size() == 1)
        break; // Cannot park the only runnable thread.
      ++ThreadsPaused;
      Paused = T;
      PausedAccess = Match->first;
      PausedIsA = Match->second;
      PausedFor = 0;
      return pickOther(Runnable, T, Rand);
    }
  }

  return Runnable[Rand.nextBelow(Runnable.size())];
}

void AccessValueHasher::onEvent(const TraceEvent &Event) {
  if (!Event.isAccess())
    return;
  if (!SiteA.matches(Event.Func, Event.Pc) &&
      !SiteB.matches(Event.Func, Event.Pc))
    return;
  mix(static_cast<uint64_t>(Event.Val.kind()));
  if (Event.Val.isInt())
    mix(static_cast<uint64_t>(Event.Val.asInt()));
  else if (Event.Val.isBool())
    mix(Event.Val.asBool() ? 1 : 0);
  else if (Event.Val.isRef())
    mix(Event.Val.asRef());
}
