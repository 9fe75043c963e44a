#include "core/container.hpp"

#include <iterator>

#include "core/crc32.hpp"

namespace legw::core::container {

namespace {

constexpr char kMagicV2[8] = {'L', 'E', 'G', 'W', 'C', 'K', 'P', '2'};
constexpr char kMagicV1[8] = {'L', 'E', 'G', 'W', 'C', 'K', 'P', 'T'};
constexpr u32 kVersion = 2;

// Caps no legitimate checkpoint exceeds; values beyond them are bit flips or
// foreign data, not real sizes. Rejecting early keeps a flipped length field
// from turning into a multi-gigabyte allocation.
constexpr u32 kMaxNameLen = 1u << 16;
constexpr u64 kMaxNdim = 16;
constexpr u64 kMaxEntries = 1u << 24;
constexpr i64 kMaxDim = 1ll << 32;
constexpr u32 kMaxSections = 64;
constexpr u32 kMaxMetaEntries = 64;

}  // namespace

const char* status_name(Status s) {
  switch (s) {
    case Status::kOk: return "ok";
    case Status::kOpenFailed: return "open-failed";
    case Status::kTruncated: return "truncated";
    case Status::kBadMagic: return "bad-magic";
    case Status::kBadVersion: return "bad-version";
    case Status::kCrcMismatch: return "crc-mismatch";
    case Status::kMalformed: return "malformed";
    case Status::kMissingSection: return "missing-section";
    case Status::kStateMismatch: return "state-mismatch";
    case Status::kWriteFailed: return "write-failed";
    case Status::kNoCheckpoint: return "no-checkpoint";
    case Status::kSimulatedCrash: return "simulated-crash";
    case Status::kInvalidRequest: return "invalid-request";
    case Status::kUnavailable: return "unavailable";
  }
  return "unknown";
}

Result fail(Status status, std::string message) {
  Result r;
  r.status = status;
  r.message = std::move(message);
  return r;
}

Result truncated(const char* what) {
  return fail(Status::kTruncated,
              std::string("checkpoint truncated/malformed in ") + what);
}

// ---- encoding ---------------------------------------------------------------

void append_str(std::string& out, const std::string& s) {
  append_pod(out, static_cast<u32>(s.size()));
  out.append(s);
}

void append_tensor(std::string& out, const Tensor& t) {
  append_pod(out, static_cast<u64>(t.dim()));
  for (i64 d = 0; d < t.dim(); ++d) append_pod(out, t.size(d));
  out.append(reinterpret_cast<const char*>(t.data()),
             static_cast<std::size_t>(t.numel()) * sizeof(float));
}

void append_named_tensor(std::string& out, const std::string& name,
                         const Tensor& t) {
  append_str(out, name);
  append_tensor(out, t);
}

std::string write(const std::vector<Section>& sections) {
  // Sized up front: growing a multi-megabyte image by doubling costs more
  // than the CRC pass.
  std::size_t bytes = sizeof kMagicV2 + 2 * sizeof(u32);
  for (const Section& s : sections) {
    bytes += sizeof(u32) + s.name.size() + sizeof(u64) + sizeof(u32) +
             s.payload.size();
  }
  std::string out;
  out.reserve(bytes);
  out.append(kMagicV2, sizeof kMagicV2);
  append_pod(out, kVersion);
  append_pod(out, static_cast<u32>(sections.size()));
  for (const Section& s : sections) {
    append_str(out, s.name);
    append_pod(out, static_cast<u64>(s.payload.size()));
    append_pod(out, crc32(s.payload.data(), s.payload.size()));
    out.append(s.payload);
  }
  return out;
}

std::string encode_meta(const Meta& meta) {
  std::string out;
  const std::pair<const char*, i64> ints[] = {
      {"step", meta.step},
      {"epoch", meta.epoch},
      {"micro_step", meta.micro_step},
  };
  append_pod(out, static_cast<u32>(std::size(ints)));
  for (const auto& [k, v] : ints) {
    append_str(out, k);
    append_pod(out, v);
  }
  append_pod(out, static_cast<u32>(1));
  append_str(out, "optimizer");
  append_str(out, meta.optimizer);
  return out;
}

// ---- decoding ---------------------------------------------------------------

bool Reader::str(std::string* out) {
  u32 len = 0;
  if (!pod(&len) || len > kMaxNameLen) return false;
  const char* p = borrow(len);
  if (p == nullptr) return false;
  out->assign(p, len);
  return true;
}

const std::string_view* Container::find(const std::string& name) const {
  auto it = sections.find(name);
  return it == sections.end() ? nullptr : &it->second;
}

Result parse(std::string_view image, Container* out) {
  Reader r(image);
  char magic[8];
  if (!r.bytes(magic, sizeof magic)) {
    return fail(Status::kTruncated, "checkpoint shorter than a header");
  }
  const bool v1 = std::memcmp(magic, kMagicV1, sizeof kMagicV1) == 0;
  if (!v1 && std::memcmp(magic, kMagicV2, sizeof kMagicV2) != 0) {
    return fail(Status::kBadMagic, "bad magic");
  }
  Container c;
  if (!r.pod(&c.version)) return truncated("header");
  if (c.version != (v1 ? 1u : kVersion)) {
    return fail(Status::kBadVersion, "unsupported container version " +
                                         std::to_string(c.version));
  }
  if (v1) {
    c.sections.emplace("params", image.substr(r.pos));
    *out = std::move(c);
    return {};
  }

  u32 n_sections = 0;
  if (!r.pod(&n_sections) || n_sections > kMaxSections) {
    return truncated("header");
  }
  for (u32 i = 0; i < n_sections; ++i) {
    std::string name;
    u64 payload_bytes = 0;
    u32 crc = 0;
    if (!r.str(&name) || !r.pod(&payload_bytes) || !r.pod(&crc)) {
      return truncated("section header");
    }
    const auto n = static_cast<std::size_t>(payload_bytes);
    const char* payload = r.borrow(n);
    if (payload == nullptr) {
      return fail(Status::kTruncated, "section '" + name + "' truncated");
    }
    if (crc32(payload, n) != crc) {
      return fail(Status::kCrcMismatch,
                  "CRC mismatch in section '" + name + "'");
    }
    if (!c.sections.emplace(name, std::string_view(payload, n)).second) {
      return fail(Status::kMalformed, "duplicate section '" + name + "'");
    }
  }
  if (r.remaining() != 0) {
    return fail(Status::kMalformed, std::to_string(r.remaining()) +
                                        " trailing bytes after last section");
  }
  *out = std::move(c);
  return {};
}

void TensorView::copy_to(Tensor& dst) const {
  // An empty tensor may have no storage, and memcpy's pointers must be
  // valid even for zero bytes.
  if (numel == 0) return;
  std::memcpy(dst.data(), bytes, static_cast<std::size_t>(numel) * sizeof(float));
}

Tensor TensorView::to_tensor() const {
  Tensor t = Tensor::uninit(shape);
  copy_to(t);
  return t;
}

bool decode_tensor(Reader& r, bool named, TensorView* out) {
  if (named && !r.str(&out->name)) return false;
  u64 ndim = 0;
  if (!r.pod(&ndim) || ndim > kMaxNdim) return false;
  out->shape.assign(static_cast<std::size_t>(ndim), 0);
  i64 numel = 1;
  for (u64 d = 0; d < ndim; ++d) {
    i64 dim = 0;
    if (!r.pod(&dim) || dim < 0 || dim > kMaxDim) return false;
    out->shape[static_cast<std::size_t>(d)] = dim;
    if (dim > 0 && numel > kMaxDim / dim) return false;  // overflow guard
    numel *= dim;
  }
  out->numel = numel;
  out->bytes = r.borrow(static_cast<std::size_t>(numel) * sizeof(float));
  return out->bytes != nullptr;
}

Result decode_tensor_list(std::string_view payload, bool named,
                          const char* what, std::vector<TensorView>* out) {
  Reader r(payload);
  u64 n = 0;
  if (!r.pod(&n) || n > kMaxEntries) return truncated(what);
  // Every entry takes at least its u64 ndim, so a count the payload cannot
  // hold is rejected before it sizes an allocation.
  if (n > r.remaining() / sizeof(u64)) return truncated(what);
  out->assign(static_cast<std::size_t>(n), TensorView{});
  for (TensorView& t : *out) {
    if (!decode_tensor(r, named, &t)) return truncated(what);
  }
  return {};
}

Result decode_meta(std::string_view payload, Meta* out) {
  Reader r(payload);
  Meta meta;
  u32 n_ints = 0;
  if (!r.pod(&n_ints) || n_ints > kMaxMetaEntries) return truncated("meta");
  for (u32 i = 0; i < n_ints; ++i) {
    std::string key;
    i64 value = 0;
    if (!r.str(&key) || !r.pod(&value)) return truncated("meta");
    if (key == "step") meta.step = value;
    else if (key == "epoch") meta.epoch = value;
    else if (key == "micro_step") meta.micro_step = value;
  }
  u32 n_strs = 0;
  if (!r.pod(&n_strs) || n_strs > kMaxMetaEntries) return truncated("meta");
  for (u32 i = 0; i < n_strs; ++i) {
    std::string key, value;
    if (!r.str(&key) || !r.str(&value)) return truncated("meta");
    if (key == "optimizer") meta.optimizer = std::move(value);
  }
  if (meta.step < 0 || meta.epoch < 0 || meta.micro_step < 0) {
    return fail(Status::kMalformed, "negative counters in meta");
  }
  *out = std::move(meta);
  return {};
}

}  // namespace legw::core::container
