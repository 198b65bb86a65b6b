//===- perfbench/src/RaceCheck.cpp - Output checks against references -----===//

#include "RaceCheck.h"

#include <fstream>
#include <sstream>

using namespace perfbench;
using narada::Error;
using narada::Result;
using narada::obs::JsonValue;

namespace {

Result<JsonValue> readJson(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return Error("cannot read " + Path);
  std::stringstream Buffer;
  Buffer << In.rdbuf();
  std::optional<JsonValue> Doc = narada::obs::parseJson(Buffer.str());
  if (!Doc || !Doc->isObject())
    return Error(Path + " is not a JSON object");
  return *Doc;
}

bool flag(const JsonValue &Entry, const char *Name) {
  const JsonValue *V = Entry.find(Name);
  return V && V->K == JsonValue::Kind::Bool && V->BoolVal;
}

Result<RaceSet> parseRaces(const JsonValue &Array, const std::string &Where) {
  if (!Array.isArray())
    return Error(Where + ": races is not an array");
  RaceSet Out;
  for (const JsonValue &Entry : Array.Elements) {
    const JsonValue *Key = Entry.find("key");
    if (!Key || !Key->isString())
      return Error(Where + ": race entry without a key");
    Out[Key->StringVal] = {flag(Entry, "reproduced"), flag(Entry, "harmful")};
  }
  return Out;
}

Result<std::set<std::string>> parseStrings(const JsonValue &Array,
                                           const std::string &Where) {
  if (!Array.isArray())
    return Error(Where + " is not an array");
  std::set<std::string> Out;
  for (const JsonValue &S : Array.Elements) {
    if (!S.isString())
      return Error(Where + " holds a non-string");
    Out.insert(S.StringVal);
  }
  return Out;
}

template <typename SetT, typename Describe>
void diffSets(const std::string &Class, const char *What, const SetT &Expected,
              const SetT &Observed, Describe Show,
              std::vector<std::string> &Out) {
  for (const auto &E : Expected)
    if (!Observed.count(Show.key(E)))
      Out.push_back(Class + ": " + What + " missing: " + Show.text(E));
  for (const auto &O : Observed)
    if (!Expected.count(Show.key(O)))
      Out.push_back(Class + ": " + What + " unexpected: " + Show.text(O));
}

struct ShowString {
  const std::string &key(const std::string &S) const { return S; }
  const std::string &text(const std::string &S) const { return S; }
};

std::string outcomeText(const RaceOutcome &O) {
  return std::string("reproduced=") + (O.Reproduced ? "true" : "false") +
         " harmful=" + (O.Harmful ? "true" : "false");
}

struct ShowRace {
  const std::string &key(const RaceSet::value_type &R) const {
    return R.first;
  }
  std::string text(const RaceSet::value_type &R) const {
    return R.first + " (" + outcomeText(R.second) + ")";
  }
};

} // namespace

Result<OutputMap>
perfbench::loadTrajectoryReference(const std::string &Path,
                                   const std::vector<std::string> &Classes) {
  Result<JsonValue> Doc = readJson(Path);
  if (!Doc)
    return Doc.error();
  const JsonValue *Benches = Doc->find("benches");
  if (!Benches || !Benches->isObject())
    return Error(Path + ": no benches object");
  OutputMap Out;
  for (const std::string &Class : Classes) {
    const std::string Name = "pipeline:" + Class;
    const JsonValue *Bench = Benches->find(Name);
    const JsonValue *Races = Bench ? Bench->find("races") : nullptr;
    if (!Races)
      return Error(Path + ": no races for " + Name);
    Result<RaceSet> Set = parseRaces(*Races, Path + " " + Name);
    if (!Set)
      return Set.error();
    Out[Class].Races = Set.take();
    if (const JsonValue *Tests =
            Bench->at({"counters", "synth.tests_synthesized"}))
      Out[Class].Tests = static_cast<uint64_t>(Tests->numberOr(0));
  }
  return Out;
}

Result<OutputMap> perfbench::loadReferenceFile(const std::string &Path) {
  Result<JsonValue> Doc = readJson(Path);
  if (!Doc)
    return Doc.error();
  const JsonValue *Classes = Doc->find("classes");
  if (!Classes || !Classes->isObject())
    return Error(Path + ": no classes object");
  OutputMap Out;
  for (const auto &[Class, Entry] : Classes->Members) {
    ClassOutput &C = Out[Class];
    const std::string Where = Path + " " + Class;
    if (const JsonValue *Races = Entry.find("races")) {
      Result<RaceSet> Set = parseRaces(*Races, Where);
      if (!Set)
        return Set.error();
      C.Races = Set.take();
    }
    for (auto [Name, Target] : {std::pair{"seeds", &C.Seeds},
                                std::pair{"pairs", &C.Pairs}}) {
      if (const JsonValue *Array = Entry.find(Name)) {
        Result<std::set<std::string>> Set =
            parseStrings(*Array, Where + " " + Name);
        if (!Set)
          return Set.error();
        *Target = Set.take();
      }
    }
    if (const JsonValue *Tests = Entry.find("tests"))
      C.Tests = static_cast<uint64_t>(Tests->numberOr(0));
  }
  return Out;
}

std::string perfbench::renderReference(const std::string &Workload,
                                       uint64_t Seed,
                                       const OutputMap &Outputs) {
  narada::obs::JsonWriter W;
  W.beginObject();
  W.key("schema").value("narada.perfbench_reference/v1");
  W.key("workload").value(Workload);
  W.key("seed").value(Seed);
  W.key("classes").beginObject();
  for (const auto &[Class, C] : Outputs) {
    W.key(Class).beginObject();
    W.key("tests").value(C.Tests);
    if (!C.Races.empty()) {
      W.key("races").beginArray();
      for (const auto &[Key, O] : C.Races) {
        W.beginObject();
        W.key("harmful").value(O.Harmful);
        W.key("key").value(Key);
        W.key("reproduced").value(O.Reproduced);
        W.endObject();
      }
      W.endArray();
    }
    for (auto [Name, Set] :
         {std::pair{"seeds", &C.Seeds}, std::pair{"pairs", &C.Pairs}}) {
      if (Set->empty())
        continue;
      W.key(Name).beginArray();
      for (const std::string &S : *Set)
        W.value(S);
      W.endArray();
    }
    W.endObject();
  }
  W.endObject();
  W.endObject();
  return W.str() + "\n";
}

std::vector<std::string> perfbench::diffClass(const std::string &Class,
                                              const ClassOutput &Expected,
                                              const ClassOutput &Observed) {
  std::vector<std::string> Out;
  if (Expected.Tests && Expected.Tests != Observed.Tests)
    Out.push_back(Class + ": synthesized tests " +
                  std::to_string(Observed.Tests) + ", expected " +
                  std::to_string(Expected.Tests));
  if (!Expected.Races.empty()) {
    diffSets(Class, "race", Expected.Races, Observed.Races, ShowRace{}, Out);
    for (const auto &[Key, E] : Expected.Races) {
      auto It = Observed.Races.find(Key);
      if (It != Observed.Races.end() && !(It->second == E))
        Out.push_back(Class + ": race " + Key + " is " +
                      outcomeText(It->second) + ", expected " +
                      outcomeText(E));
    }
  }
  if (!Expected.Seeds.empty())
    diffSets(Class, "kept seed", Expected.Seeds, Observed.Seeds, ShowString{},
             Out);
  if (!Expected.Pairs.empty())
    diffSets(Class, "pair", Expected.Pairs, Observed.Pairs, ShowString{}, Out);
  return Out;
}
