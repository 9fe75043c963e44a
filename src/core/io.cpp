#include "core/io.hpp"

#include <cerrno>
#include <cstring>

#include <sys/stat.h>
#include <unistd.h>

namespace legw::core {

namespace {
std::string errno_string() {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): errno snapshot on the error path
  return std::strerror(errno);
}
}  // namespace

AtomicFile::AtomicFile(std::string path)
    : path_(std::move(path)), tmp_path_(path_ + ".tmp") {
  // lint-allow: atomic-write — this *is* the atomic writer's staging open.
  f_ = std::fopen(tmp_path_.c_str(), "wb");
}

AtomicFile::~AtomicFile() { discard(); }

bool AtomicFile::write(const void* data, std::size_t n) {
  if (f_ == nullptr) return false;
  if (std::fwrite(data, 1, n, f_) != n) {
    failed_ = true;
    return false;
  }
  return true;
}

Status AtomicFile::commit() {
  if (f_ == nullptr) {
    return Status::error("AtomicFile: cannot open " + tmp_path_ + ": " +
                         errno_string());
  }
  bool ok = !failed_;
  std::string why = failed_ ? "short write" : "";
  if (ok && std::fflush(f_) != 0) {
    ok = false;
    why = "fflush failed: " + errno_string();
  }
  // fsync before rename: the rename must not be durable before the data is,
  // or a power loss could publish an empty/torn file.
  if (ok && ::fsync(::fileno(f_)) != 0) {
    ok = false;
    why = "fsync failed: " + errno_string();
  }
  if (std::fclose(f_) != 0 && ok) {
    ok = false;
    why = "fclose failed: " + errno_string();
  }
  f_ = nullptr;
  if (ok && std::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    ok = false;
    why = "rename failed: " + errno_string();
  }
  if (!ok) {
    std::remove(tmp_path_.c_str());
    return Status::error("AtomicFile: " + why + " (" + path_ + ")");
  }
  return {};
}

void AtomicFile::discard() {
  if (f_ != nullptr) {
    std::fclose(f_);
    f_ = nullptr;
    std::remove(tmp_path_.c_str());
  }
}

Status atomic_write_file(const std::string& path, const void* data,
                         std::size_t n) {
  AtomicFile f(path);
  f.write(data, n);
  return f.commit();
}

Status atomic_write_file(const std::string& path, const std::string& content) {
  return atomic_write_file(path, content.data(), content.size());
}

Status read_file(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::error("cannot open " + path + ": " + errno_string());
  }
  struct stat st {};
  if (::fstat(::fileno(f), &st) != 0 || !S_ISREG(st.st_mode)) {
    std::fclose(f);
    return Status::error(path + " is not a regular file");
  }
  std::string bytes;
  bytes.reserve(static_cast<std::size_t>(st.st_size));  // a hint only
  char buf[1 << 16];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) bytes.append(buf, n);
  const bool failed = std::ferror(f) != 0;
  std::fclose(f);
  if (failed) return Status::error("read error on " + path);
  *out = std::move(bytes);
  return {};
}

}  // namespace legw::core
