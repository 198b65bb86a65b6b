//===- racedb/RaceDb.h - Durable race database ------------------*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The fleet-facing race store: one record per stable race identity
/// (support/RaceKey.h), accumulated across runs.  Each record carries
/// provenance (first/last-seen run id and module source digest, the
/// detectors that found it, the static verdict, a witness trace path),
/// the dynamic outcome bits, a certification level cross-checking the
/// static MustRace verdict against dynamic confirmation, and a lifecycle
/// state advanced on every ingest:
///
///   New ──seen again──▶ Persisting ──absent──▶ Resolved ──seen──▶ Regressed
///
/// (an absent New race resolves too; a Regressed race stays Regressed
/// until it goes absent again).  Persistence is the shared snapshot format
/// (support/SnapshotFile.h): length-prefixed Wire frames, a versioned
/// header, all-or-nothing load, atomic temp+rename save.  No wall-clock anywhere — run ids are a
/// monotonic counter — so ingest is deterministic and byte-identical at
/// any job count.  docs/TRIAGE.md documents the schema.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_RACEDB_RACEDB_H
#define NARADA_RACEDB_RACEDB_H

#include "support/Error.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace narada {
namespace racedb {

/// Lifecycle of one race identity across the ingested run history.
enum class Lifecycle {
  New,        ///< First seen in the latest ingested run.
  Persisting, ///< Seen in more than one run and still present.
  Resolved,   ///< Previously seen; absent from the latest covering run.
  Regressed,  ///< Resolved once, then seen again — a regression.
};

const char *lifecycleName(Lifecycle L);

/// Certification level: did the static must-race fragment and/or the
/// dynamic confirmation protocol vouch for the race?
enum class Certification {
  None,
  CertifiedStatic,  ///< Static verdict MustRace; not (yet) reproduced.
  CertifiedDynamic, ///< Reproduced dynamically; no static certificate.
  CertifiedBoth,    ///< MustRace *and* reproduced — the gold standard.
};

const char *certificationName(Certification C);

/// One race identity's durable record.
struct RaceRecord {
  std::string Key; ///< Canonical escaped identity (support/RaceKey.h).
  // Parsed identity components; empty when the key was opaque.
  std::string ClassName;
  std::string Field;
  std::string FirstLabel;
  std::string SecondLabel;

  std::string Input; ///< Run input ("corpus:C1", path) that first saw it;
                     ///< scopes resolution — only a later run of the same
                     ///< input can resolve the record.
  Lifecycle State = Lifecycle::New;
  uint64_t FirstSeenRun = 0; ///< Monotonic ingest run id, never wall-clock.
  uint64_t LastSeenRun = 0;
  std::string FirstSourceDigest; ///< Module source digest (hex) of the
                                 ///< first run that saw the race.
  std::string LastSourceDigest;
  std::vector<std::string> Detectors; ///< Sorted unique detector names.
  std::string StaticVerdict;          ///< Best static verdict seen.
  std::string WitnessPath;            ///< Latest recorded witness trace.
  bool Reproduced = false;
  bool Harmful = false;
  bool WriteWrite = false;
  Certification Cert = Certification::None;

  /// Harmful-vs-benign triage bucket, derived (never persisted):
  /// "harmful" (reproduction diverged), "harmful-write-write" (both sides
  /// write — a lost update waiting to happen even without an observed
  /// divergence), "benign-racy-read" (reproduced read/write race with no
  /// divergence), "unconfirmed" otherwise.
  std::string classification() const;
};

/// The whole database: records keyed by canonical race key, plus the next
/// run id to assign.  Deliberately a plain value type — triage logic
/// copies it freely (the gate ingests into a scratch copy).
struct RaceDb {
  uint64_t NextRunId = 1;
  std::map<std::string, RaceRecord> Races;
};

/// Load statistics the loader reports back (legacy-key migration count).
struct LoadStats {
  size_t MigratedKeys = 0;
};

/// Renders the database to its canonical byte string (the exact file
/// contents saveRaceDb writes).  Pure function of the db value, so two
/// equal databases always render byte-identically.
std::string renderRaceDb(const RaceDb &Db);

/// Atomically writes the database (temp file + rename); false on I/O
/// error, in which case the previous file is left untouched.
bool saveRaceDb(const std::string &Path, const RaceDb &Db);

/// Loads a database file.  All-or-nothing: a bad magic, unsupported
/// version, truncated frame, or malformed record yields an Error and no
/// partial state.  Keys written by the pre-escaping format are migrated
/// to the canonical escaped encoding (counted in \p Stats).
Result<RaceDb> loadRaceDb(const std::string &Path,
                          LoadStats *Stats = nullptr);

} // namespace racedb
} // namespace narada

#endif // NARADA_RACEDB_RACEDB_H
