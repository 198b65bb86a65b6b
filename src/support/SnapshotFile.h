//===- support/SnapshotFile.h - Versioned frame-file persistence -*- C++ -*-===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one on-disk snapshot format behind the daemon cache
/// (serve/CacheFile.h) and the race database (racedb/RaceDb.h): a sequence
/// of support/Wire.h frames whose first frame carries `magic` and
/// `version`.  Saving goes through a temp file and rename, so a crash
/// mid-save leaves the previous file intact.  Loading is all-or-nothing,
/// and every error names the file kind and path.
///
//===----------------------------------------------------------------------===//

#ifndef NARADA_SUPPORT_SNAPSHOTFILE_H
#define NARADA_SUPPORT_SNAPSHOTFILE_H

#include "support/Error.h"
#include "support/Wire.h"

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

namespace narada {
namespace snapshot {

/// What distinguishes one snapshot kind from another.
struct Format {
  const char *Noun;    ///< Names the file in errors ("cache", "racedb").
  const char *Magic;   ///< The header's magic value.
  uint64_t MinVersion; ///< Oldest version load() accepts.
  uint64_t Version;    ///< The version header() writes; newest accepted.
};

/// "<noun> file '<path>' <what>" — the shape of every load error.
Error fileError(const Format &F, const std::string &Path,
                const std::string &What);

/// A header record with magic and version set; callers may add fields.
wire::RecordWriter header(const Format &F);

/// Atomically replaces \p Path with \p Bytes (a whole framed document).
Status save(const Format &F, const std::string &Path, std::string_view Bytes);

using FrameHandler = std::function<Status(const wire::RecordReader &)>;

/// Reads \p Path: checks the header frame's magic and version range, hands
/// the header to \p OnHeader (if set), then every following frame to
/// \p OnFrame in file order.  A truncated frame or the first handler error
/// ends the load.
Status load(const Format &F, const std::string &Path,
            const FrameHandler &OnFrame, const FrameHandler &OnHeader = {});

} // namespace snapshot
} // namespace narada

#endif // NARADA_SUPPORT_SNAPSHOTFILE_H
