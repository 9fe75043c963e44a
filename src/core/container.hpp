// The checkpoint container codec: the one module that knows the on-disk
// framing of LEGW checkpoint files. ckpt/ (full training state) and serve/
// (the tape-free inference reader) both encode and decode through it, so the
// bytes have exactly one definition. It lives in legw_core, which keeps the
// serving path free of the autograd/nn/ckpt stack.
//
// Layout (little-endian, version 2; docs/CHECKPOINT.md has the sections):
//
//   magic "LEGWCKP2" | u32 version | u32 n_sections
//   per section: u32 name_len | name | u64 payload_bytes | u32 crc32 | payload
//
// Version-1 files ("LEGWCKPT" | u32 1 | body) carry parameters only, and
// their body (`u64 n | entries`) is byte-identical to a v2 `params` payload,
// so parse() returns them as a container holding one unchecked `params`
// section. Readers then need no v1 branch: whatever else they require is
// simply absent.
//
// Every decode failure is a structured Status, never an abort: truncation,
// bit flips (CRC32 per section, caps on every length field) and foreign
// files all come back as values.
#pragma once

#include <cstring>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/common.hpp"
#include "core/tensor.hpp"

namespace legw::core::container {

// One failure taxonomy for everything that reads, writes or serves a
// checkpoint (ckpt::Status and serve::Status are aliases of it).
enum class Status {
  kOk,
  kOpenFailed,       // not a readable regular file
  kTruncated,        // image ends inside a declared header/section/entry
  kBadMagic,         // not a LEGW checkpoint at all
  kBadVersion,       // container version this reader does not know
  kCrcMismatch,      // a section's payload fails its CRC32
  kMalformed,        // implausible lengths/counts/values (bit-flipped
                     // fields), duplicate sections, trailing bytes
  kMissingSection,   // serving: a required section is absent (v1 files, or
                     // v2 without meta/params/buffers); the message names
                     // every missing section
  kStateMismatch,    // the file disagrees with the live state's or the
                     // serving config's schema (names, shapes, optimizer
                     // type, counts)
  kWriteFailed,      // staging or atomic publication failed
  kNoCheckpoint,     // a restore walk found no candidate files
  kSimulatedCrash,   // a ckpt::CrashPlan kill fired during this write
  kInvalidRequest,   // serving: request rejected before batching
  kUnavailable,      // serving: broker already shut down
};

const char* status_name(Status s);

// [[nodiscard]]: every function returning a Result by value inherits the
// must-check contract (a dropped checkpoint error is silent data loss, a
// dropped serve error serves a broken model).
struct [[nodiscard]] Result {
  Status status = Status::kOk;
  std::string message;  // empty when ok
  bool ok() const { return status == Status::kOk; }
};

Result fail(Status status, std::string message);
// kTruncated naming the part of the image (`what`) that ran out or held an
// implausible length.
Result truncated(const char* what);

// ---- encoding ---------------------------------------------------------------

template <typename T>
void append_pod(std::string& out, const T& v) {
  out.append(reinterpret_cast<const char*>(&v), sizeof(T));
}

// u32 length | bytes.
void append_str(std::string& out, const std::string& s);
// u64 ndim | i64 dims... | float data.
void append_tensor(std::string& out, const Tensor& t);
// name | tensor.
void append_named_tensor(std::string& out, const std::string& name,
                         const Tensor& t);

struct Section {
  std::string name;
  std::string payload;
};

// The complete v2 image: header, then every section with its length and CRC.
std::string write(const std::vector<Section>& sections);

// ---- decoding ---------------------------------------------------------------

// Bounds-checked cursor over an in-memory image. Every read either succeeds
// completely or returns false with nothing consumed past the image end.
struct Reader {
  const char* data;
  std::size_t size;
  std::size_t pos = 0;

  explicit Reader(std::string_view bytes)
      : data(bytes.data()), size(bytes.size()) {}

  bool bytes(void* out, std::size_t n) {
    if (n > size - pos) return false;
    std::memcpy(out, data + pos, n);
    pos += n;
    return true;
  }
  template <typename T>
  bool pod(T* v) {
    return bytes(v, sizeof(T));
  }
  // u32 length (capped) | bytes.
  bool str(std::string* out);
  // Borrows `n` bytes from the image without copying; nullptr past the end.
  const char* borrow(std::size_t n) {
    if (n > size - pos) return nullptr;
    const char* p = data + pos;
    pos += n;
    return p;
  }
  std::size_t remaining() const { return size - pos; }
};

// A parsed container: the version and each section's payload, still inside
// the caller's image (which must outlive it). Every v2 payload has passed
// its CRC.
struct Container {
  u32 version = 0;
  std::map<std::string, std::string_view> sections;

  // nullptr when the section is absent.
  const std::string_view* find(const std::string& name) const;
};

// Checks the magic and version, walks the sections verifying each CRC, and
// rejects duplicate sections and trailing bytes. A v1 image becomes a
// version-1 container with a single `params` section.
Result parse(std::string_view image, Container* out);

// A decoded tensor whose data still lives in the image.
struct TensorView {
  std::string name;  // empty for unnamed entries
  Shape shape;
  i64 numel = 0;
  const char* bytes = nullptr;  // numel floats, possibly unaligned

  // Copies the data into `dst`, whose shape the caller has already matched.
  void copy_to(Tensor& dst) const;
  // An owned copy.
  Tensor to_tensor() const;
};

// Decodes one tensor (with its name first when `named`); false on
// truncation or an implausible shape.
bool decode_tensor(Reader& r, bool named, TensorView* out);

// Decodes a `u64 count | entries...` tensor-list payload. `what` names the
// section in the kTruncated message.
Result decode_tensor_list(std::string_view payload, bool named,
                          const char* what, std::vector<TensorView>* out);

// The `meta` section: counters and the optimizer name.
struct Meta {
  i64 step = 0;
  i64 epoch = 0;
  i64 micro_step = 0;
  std::string optimizer;  // "" when trained without one
};

// Encodes / decodes `meta`. The decoder rejects negative counters as
// kMalformed.
std::string encode_meta(const Meta& meta);
Result decode_meta(std::string_view payload, Meta* out);

}  // namespace legw::core::container
