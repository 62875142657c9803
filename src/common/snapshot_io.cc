#include "common/snapshot_io.h"

#include <bit>
#include <cstdio>
#include <cstring>

#include "common/failpoint.h"
#include "common/str_util.h"

namespace rumor {

namespace {

struct Crc32Table {
  uint32_t t[256];
  constexpr Crc32Table() : t{} {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[i] = c;
    }
  }
};
constexpr Crc32Table kCrcTable;

}  // namespace

uint32_t Crc32(std::string_view bytes) {
  uint32_t c = 0xFFFFFFFFu;
  for (unsigned char b : bytes) {
    c = kCrcTable.t[(c ^ b) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- SnapshotWriter -----------------------------------------------------------

void SnapshotWriter::U32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(b, 4);
}

void SnapshotWriter::U64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
  buf_.append(b, 8);
}

void SnapshotWriter::F64(double v) { U64(std::bit_cast<uint64_t>(v)); }

void SnapshotWriter::Str(std::string_view s) {
  U32(static_cast<uint32_t>(s.size()));
  buf_.append(s.data(), s.size());
}

void SnapshotWriter::WriteValue(const Value& v) {
  U8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kInt:
      I64(v.AsInt());
      break;
    case ValueType::kDouble:
      F64(v.AsDouble());
      break;
    case ValueType::kString:
      // By content: interned pointers are process-local.
      Str(v.AsString());
      break;
    case ValueType::kBool:
      U8(v.AsBool() ? 1 : 0);
      break;
  }
}

// --- SnapshotReader -----------------------------------------------------------

Status SnapshotReader::Need(size_t n) {
  if (pos_ + n > data_.size()) {
    return Status::InvalidArgument(
        StrCat("snapshot payload truncated: need ", n, " bytes at offset ",
               pos_, ", have ", data_.size() - pos_));
  }
  return Status::OK();
}

Status SnapshotReader::U8(uint8_t* out) {
  RUMOR_RETURN_IF_ERROR(Need(1));
  *out = static_cast<uint8_t>(data_[pos_++]);
  return Status::OK();
}

Status SnapshotReader::U32(uint32_t* out) {
  RUMOR_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  *out = v;
  return Status::OK();
}

Status SnapshotReader::U64(uint64_t* out) {
  RUMOR_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  *out = v;
  return Status::OK();
}

Status SnapshotReader::I64(int64_t* out) {
  uint64_t v = 0;
  RUMOR_RETURN_IF_ERROR(U64(&v));
  *out = static_cast<int64_t>(v);
  return Status::OK();
}

Status SnapshotReader::F64(double* out) {
  uint64_t v = 0;
  RUMOR_RETURN_IF_ERROR(U64(&v));
  *out = std::bit_cast<double>(v);
  return Status::OK();
}

Status SnapshotReader::Str(std::string* out) {
  uint32_t len = 0;
  RUMOR_RETURN_IF_ERROR(U32(&len));
  RUMOR_RETURN_IF_ERROR(Need(len));
  out->assign(data_.data() + pos_, len);
  pos_ += len;
  return Status::OK();
}

Status SnapshotReader::ReadValue(Value* out) {
  uint8_t tag = 0;
  RUMOR_RETURN_IF_ERROR(U8(&tag));
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      *out = Value();
      return Status::OK();
    case ValueType::kInt: {
      int64_t v = 0;
      RUMOR_RETURN_IF_ERROR(I64(&v));
      *out = Value(v);
      return Status::OK();
    }
    case ValueType::kDouble: {
      double v = 0;
      RUMOR_RETURN_IF_ERROR(F64(&v));
      *out = Value(v);
      return Status::OK();
    }
    case ValueType::kString: {
      std::string s;
      RUMOR_RETURN_IF_ERROR(Str(&s));
      *out = Value(s);
      return Status::OK();
    }
    case ValueType::kBool: {
      uint8_t v = 0;
      RUMOR_RETURN_IF_ERROR(U8(&v));
      *out = Value(v != 0);
      return Status::OK();
    }
  }
  return Status::InvalidArgument(
      StrCat("snapshot holds unknown value tag ", static_cast<int>(tag)));
}

// --- snapshot container -------------------------------------------------------

SnapshotBuilder::SnapshotBuilder() {
  out_.append(kSnapshotMagic, sizeof(kSnapshotMagic));
  SnapshotWriter w;
  w.U32(kSnapshotVersion);
  out_ += w.Take();
}

void SnapshotBuilder::AddSection(SnapshotSection id, std::string payload) {
  SnapshotWriter w;
  w.U32(static_cast<uint32_t>(id));
  w.U64(payload.size());
  w.U32(Crc32(payload));
  out_ += w.Take();
  out_ += payload;
}

Status ParseSnapshot(std::string_view bytes,
                     std::vector<SnapshotSectionView>* out,
                     uint32_t* version_out) {
  constexpr size_t kHeaderSize = sizeof(kSnapshotMagic) + 4;
  if (bytes.size() < kHeaderSize) {
    return Status::InvalidArgument(
        StrCat("snapshot too small (", bytes.size(),
               " bytes) to hold a header"));
  }
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) !=
      0) {
    return Status::InvalidArgument("snapshot magic mismatch: not a RUMOR "
                                   "snapshot");
  }
  SnapshotReader header(bytes.substr(sizeof(kSnapshotMagic), 4));
  uint32_t version = 0;
  RUMOR_RETURN_IF_ERROR(header.U32(&version));
  if (version < 1 || version > kSnapshotVersion) {
    return Status::InvalidArgument(
        StrCat("snapshot format version ", version, " is not supported (",
               "this build reads versions 1 to ", kSnapshotVersion, ")"));
  }

  std::vector<SnapshotSectionView> sections;
  size_t pos = kHeaderSize;
  while (pos < bytes.size()) {
    constexpr size_t kFrame = 4 + 8 + 4;
    if (bytes.size() - pos < kFrame) {
      return Status::InvalidArgument(
          StrCat("snapshot truncated inside a section frame at offset ",
                 pos));
    }
    SnapshotReader frame(bytes.substr(pos, kFrame));
    uint32_t id = 0, crc = 0;
    uint64_t len = 0;
    RUMOR_RETURN_IF_ERROR(frame.U32(&id));
    RUMOR_RETURN_IF_ERROR(frame.U64(&len));
    RUMOR_RETURN_IF_ERROR(frame.U32(&crc));
    pos += kFrame;
    if (bytes.size() - pos < len) {
      return Status::InvalidArgument(
          StrCat("snapshot truncated: section ", id, " declares ", len,
                 " payload bytes, only ", bytes.size() - pos, " remain"));
    }
    std::string_view payload = bytes.substr(pos, len);
    const uint32_t actual = Crc32(payload);
    if (actual != crc) {
      return Status::InvalidArgument(
          StrCat("snapshot section ", id, " checksum mismatch (stored ", crc,
                 ", computed ", actual, ") — snapshot is corrupted"));
    }
    sections.push_back(
        SnapshotSectionView{static_cast<SnapshotSection>(id), payload});
    pos += len;
  }
  *out = std::move(sections);
  if (version_out != nullptr) *version_out = version;
  return Status::OK();
}

// --- file IO ------------------------------------------------------------------

Status WriteFileBytes(const std::string& path, std::string_view bytes) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    return Status::Internal(StrCat("cannot open '", path, "' for writing"));
  }
  size_t to_write = bytes.size();
  if (RUMOR_FAILPOINT("snapshot/write-torn")) {
    to_write /= 2;  // simulate a crash mid-write: only half the bytes land
  }
  const size_t written =
      to_write == 0 ? 0 : std::fwrite(bytes.data(), 1, to_write, f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != bytes.size() || !close_ok) {
    return Status::Internal(
        StrCat("short write to '", path, "': ", written, " of ",
               bytes.size(), " bytes"));
  }
  return Status::OK();
}

Status ReadFileBytes(const std::string& path, std::string* out) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) {
    return Status::NotFound(StrCat("cannot open '", path, "' for reading"));
  }
  std::string data;
  char buf[1 << 16];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) {
    data.append(buf, n);
  }
  std::fclose(f);
  if (RUMOR_FAILPOINT("snapshot/read-short")) {
    data.resize(data.size() / 2);  // simulate a short read
  }
  if (RUMOR_FAILPOINT("snapshot/read-flip") && !data.empty()) {
    data[data.size() / 2] ^= 0x10;  // simulate media corruption
  }
  *out = std::move(data);
  return Status::OK();
}

}  // namespace rumor
