// Versioned binary snapshot format + reader/writer primitives.
//
// Layout of a snapshot:
//
//   header:   magic "RUMRSNAP" (8 bytes) | u32 format version
//   sections: u32 section id | u64 payload length | u32 CRC32(payload) |
//             payload bytes ... repeated until end of buffer
//
// Section payloads are opaque byte strings built with SnapshotWriter and
// decoded with SnapshotReader (little-endian fixed-width integers,
// length-prefixed strings). Every section is independently checksummed, so
// truncation, torn writes, and bit flips are detected before any decoded
// state is applied.
//
// The CRC is the standard reflected CRC-32 (polynomial 0xEDB88320),
// hand-rolled here to keep the library dependency-free.
#ifndef RUMOR_COMMON_SNAPSHOT_IO_H_
#define RUMOR_COMMON_SNAPSHOT_IO_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "common/value.h"

namespace rumor {

// CRC-32 (IEEE, reflected) of `bytes`.
uint32_t Crc32(std::string_view bytes);

inline constexpr char kSnapshotMagic[8] = {'R', 'U', 'M', 'R',
                                           'S', 'N', 'A', 'P'};
// Version 2 adds each source's last pushed timestamp to kSources; version 1
// snapshots still parse and restore, without timestamps.
inline constexpr uint32_t kSnapshotVersion = 2;

// Well-known section ids of the engine snapshot.
enum class SnapshotSection : uint32_t {
  kEngine = 1,   // counters, shard layout of the checkpoint
  kSources = 2,  // registered source streams (name, schema, label, last ts)
  kQueries = 3,  // live query set (name, RQL text) in add order
  kState = 4,    // per-m-op operator state; one section per shard
};

// Append-only little-endian encoder for one section payload (or a whole
// snapshot via the section helpers).
class SnapshotWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  // Doubles round-trip bit-exactly (the shared aggregation dsum depends on
  // it): the raw IEEE-754 bits travel as a u64.
  void F64(double v);
  void Str(std::string_view s);  // u32 length + bytes
  void WriteValue(const Value& v);

  const std::string& bytes() const { return buf_; }
  std::string Take() { return std::move(buf_); }
  size_t size() const { return buf_.size(); }

 private:
  std::string buf_;
};

// Sequential little-endian decoder over a byte string. Every accessor
// returns a Status error instead of reading past the end, so a truncated
// or corrupted payload fails cleanly.
class SnapshotReader {
 public:
  explicit SnapshotReader(std::string_view bytes) : data_(bytes) {}

  Status U8(uint8_t* out);
  Status U32(uint32_t* out);
  Status U64(uint64_t* out);
  Status I64(int64_t* out);
  Status F64(double* out);
  Status Str(std::string* out);
  Status ReadValue(Value* out);

  size_t remaining() const { return data_.size() - pos_; }
  bool AtEnd() const { return pos_ == data_.size(); }

 private:
  Status Need(size_t n);
  std::string_view data_;
  size_t pos_ = 0;
};

// --- snapshot container -------------------------------------------------------

// Assembles a whole snapshot: header + checksummed sections.
class SnapshotBuilder {
 public:
  SnapshotBuilder();
  // Appends one section (id + length + CRC + payload).
  void AddSection(SnapshotSection id, std::string payload);
  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

struct SnapshotSectionView {
  SnapshotSection id;
  std::string_view payload;
};

// Validates the header, every section frame, and every section CRC. On
// success fills `out` with views into `bytes` (which must outlive them) and
// `version` (when non-null) with the format version, 1 to kSnapshotVersion.
// Any malformed byte — bad magic, unknown version, truncated frame,
// checksum mismatch — yields a descriptive error and an untouched `out`.
Status ParseSnapshot(std::string_view bytes,
                     std::vector<SnapshotSectionView>* out,
                     uint32_t* version = nullptr);

// --- file IO ------------------------------------------------------------------
// Whole-file read/write used by CheckpointToFile/RestoreFromFile. Both are
// failpoint-instrumented so recovery paths can be exercised:
//   "snapshot/write-torn"  — the write stops half way (torn write)
//   "snapshot/read-short"  — the read drops the trailing half (short read)
//   "snapshot/read-flip"   — one bit of the read buffer is flipped
Status WriteFileBytes(const std::string& path, std::string_view bytes);
Status ReadFileBytes(const std::string& path, std::string* out);

}  // namespace rumor

#endif  // RUMOR_COMMON_SNAPSHOT_IO_H_
