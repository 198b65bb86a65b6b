//===- support/SnapshotFile.cpp - Versioned frame-file persistence --------------===//
//
// Part of Narada-C++, a reproduction of "Synthesizing Racy Tests" (PLDI'15).
//
//===----------------------------------------------------------------------===//

#include "support/SnapshotFile.h"

#include <cstdio>
#include <fcntl.h>
#include <unistd.h>

using namespace narada;
using namespace narada::snapshot;

Error snapshot::fileError(const Format &F, const std::string &Path,
                          const std::string &What) {
  return Error(std::string(F.Noun) + " file '" + Path + "' " + What);
}

wire::RecordWriter snapshot::header(const Format &F) {
  wire::RecordWriter Header;
  Header.add("magic", std::string_view(F.Magic));
  Header.add("version", F.Version);
  return Header;
}

Status snapshot::save(const Format &F, const std::string &Path,
                      std::string_view Bytes) {
  const std::string TempPath = Path + ".tmp";
  int Fd = ::open(TempPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (Fd < 0)
    return Error(std::string("cannot write ") + F.Noun + " file '" +
                 TempPath + "'");
  bool Ok = wire::writeAll(Fd, Bytes.data(), Bytes.size());
  ::close(Fd);
  if (Ok && ::rename(TempPath.c_str(), Path.c_str()) == 0)
    return Status::success();
  ::unlink(TempPath.c_str());
  return Error(std::string("failed to persist ") + F.Noun + " file '" + Path +
               "'");
}

Status snapshot::load(const Format &F, const std::string &Path,
                      const FrameHandler &OnFrame,
                      const FrameHandler &OnHeader) {
  int Fd = ::open(Path.c_str(), O_RDONLY);
  if (Fd < 0)
    return Error(std::string("cannot open ") + F.Noun + " file '" + Path +
                 "'");
  auto Read = [&]() -> Status {
    std::string Payload;
    if (wire::readFrame(Fd, Payload) != wire::ReadStatus::Ok)
      return fileError(F, Path, "has no header frame");
    wire::RecordReader Header(Payload);
    if (Header.getOr("magic", "") != F.Magic)
      return fileError(F, Path, "has a bad magic");
    const uint64_t V = Header.getU64("version", 0);
    if (V < F.MinVersion || V > F.Version)
      return fileError(F, Path, "has an unsupported version");
    if (OnHeader)
      if (Status S = OnHeader(Header); !S.ok())
        return S;
    for (;;) {
      wire::ReadStatus St = wire::readFrame(Fd, Payload);
      if (St == wire::ReadStatus::Eof)
        return Status::success();
      if (St != wire::ReadStatus::Ok)
        return fileError(F, Path, "is truncated or corrupt");
      if (Status S = OnFrame(wire::RecordReader(Payload)); !S.ok())
        return S;
    }
  };
  Status S = Read();
  ::close(Fd);
  return S;
}
