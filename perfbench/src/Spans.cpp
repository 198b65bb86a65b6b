//===- perfbench/src/Spans.cpp - In-memory spans for the traced run -------===//

#include "Spans.h"

#include "obs/Json.h"

using namespace perfbench;

double SpanLog::now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Origin)
      .count();
}

int SpanLog::begin(std::string Name) {
  if (!Enabled)
    return -1;
  Span S;
  S.Name = std::move(Name);
  S.Parent = Open.empty() ? -1 : Open.back();
  S.Start = now();
  Spans.push_back(std::move(S));
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void SpanLog::end(int Index) {
  if (Index < 0)
    return;
  Spans[Index].End = now();
  if (!Open.empty() && Open.back() == Index)
    Open.pop_back();
}

std::map<std::string, double> SpanLog::selfSeconds() const {
  std::vector<double> Self(Spans.size());
  for (size_t I = 0; I < Spans.size(); ++I)
    Self[I] = Spans[I].End - Spans[I].Start;
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      Self[S.Parent] -= S.End - S.Start;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] += Self[I];
  return Out;
}

double SpanLog::topLevelSeconds() const {
  double Total = 0.0;
  for (const Span &S : Spans)
    if (S.Parent < 0)
      Total += S.End - S.Start;
  return Total;
}

std::string SpanLog::json() const {
  narada::obs::JsonWriter W;
  W.beginArray();
  for (const Span &S : Spans) {
    W.beginObject();
    W.key("name").value(S.Name);
    W.key("start").value(S.Start);
    W.key("end").value(S.End);
    W.key("parent").value(static_cast<int64_t>(S.Parent));
    W.endObject();
  }
  W.endArray();
  return W.str();
}
