// Crash-safe append-only job journal for masc-served.
//
// Every record is one JSON document, length-prefixed with the same
// 4-byte big-endian header as the wire protocol, appended to a single
// file. Durability is per-record: submissions and completions are
// fsync'd before the server acknowledges them, so a SIGKILL at any
// instant loses at most work the client was never told about.
// Checkpoint records (which can be hundreds of KiB and are pure
// optimization — losing one only means re-simulating from an earlier
// point) are appended without fsync.
//
// Replay tolerates a torn tail: a crash mid-append leaves a partial
// length or payload at the end of the file, which replay() detects,
// truncates off, and ignores — the journal is again a clean sequence
// of records for the reopened server to append to.
//
// Record schema (see docs/RELIABILITY.md): every record is an object
// with a "rec" member — "submit", "done", "ckpt", "extend", "release".
#pragma once

#include <mutex>
#include <string>
#include <vector>

namespace masc::serve {

class Journal {
 public:
  Journal() = default;
  ~Journal();

  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Open `path` for appending, creating it if absent. Throws ServeError
  /// when the file cannot be opened.
  void open(const std::string& path);

  bool is_open() const { return fd_ >= 0; }
  const std::string& path() const { return path_; }

  /// fsync + close. Safe to call when not open.
  void close();

  /// Append one length-prefixed record; fsync the file first when
  /// `sync`. Thread-safe (called from session and sweep
  /// worker threads). A no-op when the journal is not open, so call
  /// sites don't need to be gated on journaling being enabled.
  void append(const std::string& payload, bool sync);

  /// Read every intact record of the journal at `path`, in append
  /// order. A missing file yields an empty vector. A torn tail is
  /// truncated off the file so subsequent appends start at a record
  /// boundary. Throws ServeError on I/O errors.
  static std::vector<std::string> replay(const std::string& path);

 private:
  std::mutex mu_;
  int fd_ = -1;
  std::string path_;
};

}  // namespace masc::serve
