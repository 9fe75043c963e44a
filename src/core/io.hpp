// Atomic file publication for run artifacts.
//
// A crash (or injected kill) halfway through a write must never leave a torn
// checkpoint, CSV, or BENCH_*.json on disk: readers either see the previous
// complete file or the new complete file. The only portable way to get that
// on POSIX is write-to-temp + fsync + rename, which this header packages as
// an RAII stream (`AtomicFile`) and a one-shot helper (`atomic_write_file`).
// Everything in src/ that writes a run artifact goes through one of the two;
// the `atomic-write` lint rule (tools/lint.py) enforces it.
#pragma once

#include <cstdio>
#include <string>

#include "core/common.hpp"
#include "core/status.hpp"

namespace legw::core {

// RAII writer that stages content in `<path>.tmp` and atomically publishes
// it to `path` on commit(). If the object is destroyed without a successful
// commit the temp file is removed and `path` is untouched — a crash between
// construction and commit leaves at most a stale `.tmp`, never a torn
// artifact.
class AtomicFile {
 public:
  explicit AtomicFile(std::string path);
  ~AtomicFile();

  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  // False when the temp file could not be opened; stream() is nullptr then.
  bool ok() const { return f_ != nullptr; }
  std::FILE* stream() { return f_; }
  const std::string& path() const { return path_; }
  const std::string& tmp_path() const { return tmp_path_; }

  // Convenience forwarding to fwrite on the staged stream; returns false on
  // short write (and commit() will then also fail).
  bool write(const void* data, std::size_t n);

  // Flushes, fsyncs, closes and renames the temp file over `path`. Returns
  // an error Status on any failure, in which case the temp file is removed
  // and `path` keeps its previous contents. Calling commit() twice is an
  // error.
  Status commit();

  // Closes and deletes the temp file without publishing (also what the
  // destructor does for an uncommitted file). Used by the checkpoint crash
  // injector to model a process kill mid-write.
  void discard();

 private:
  std::string path_;
  std::string tmp_path_;
  std::FILE* f_ = nullptr;
  bool failed_ = false;
};

// Writes `n` bytes to `path` atomically (temp + fsync + rename). Returns an
// error Status on failure; `path` is untouched then.
Status atomic_write_file(const std::string& path, const void* data,
                         std::size_t n);
Status atomic_write_file(const std::string& path, const std::string& content);

// Reads the whole regular file at `path` into `out`. Directories and other
// non-regular files are refused (fopen succeeds on a directory, and its
// size is not a byte count), and the bytes are read to EOF rather than
// sized up front from ftell.
Status read_file(const std::string& path, std::string* out);

}  // namespace legw::core
