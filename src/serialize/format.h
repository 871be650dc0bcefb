#ifndef PRISTI_SERIALIZE_FORMAT_H_
#define PRISTI_SERIALIZE_FORMAT_H_

// The PriSTI checkpoint container format (version 1).
//
// Layout (all integers little-endian; big-endian hosts are rejected at
// compile time):
//
//   [8]  magic "PRSTCKPT"
//   [4]  uint32 format version (kFormatVersion)
//   ...  records, each:
//          [4] uint32 tag              (RecordTag)
//          [4] uint32 name length
//          [n] name bytes
//          [8] uint64 payload length
//          [p] payload bytes
//          [4] uint32 CRC-32 of everything from the tag through the payload
//              (so a flipped bit in ANY field of the record — including the
//              length prefixes — is detected)
//   ...  a final record with tag kEnd, empty name, empty payload. A file
//        that ends before the end record is truncated by definition, which
//        is how mid-write crashes are detected even without the atomic
//        rename protection in checkpoint.h.
//
// Payload encodings per tag:
//   kTensor  : uint32 ndim, ndim x int64 dims, numel x float32 (raw bits,
//              so round trips are bit-exact including NaN payloads)
//   kI64     : int64
//   kF64     : double (raw IEEE-754 bits)
//   kF64List : uint64 count, count x double
//   kString  : raw bytes (e.g. the textual std::mt19937_64 stream state)
//
// Changing any of the layout constants between the serialize-layout-begin /
// serialize-layout-end markers below REQUIRES bumping kFormatVersion and
// refreshing the fingerprint comment — pristi_analyze enforces the
// fingerprint (rule `serialize-version-guard`), so a layout edit cannot
// land silently.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/status.h"
#include "tensor/tensor.h"

namespace pristi::serialize {

static_assert(std::endian::native == std::endian::little,
              "checkpoint format is defined little-endian");

// serialize-layout-begin
inline constexpr char kMagic[8] = {'P', 'R', 'S', 'T', 'C', 'K', 'P', 'T'};
inline constexpr uint32_t kFormatVersion = 1;

enum class RecordTag : uint32_t {
  kEnd = 0,
  kTensor = 1,
  kI64 = 2,
  kF64 = 3,
  kF64List = 4,
  kString = 5,
};
// serialize-layout-end
// serialize-layout-fingerprint: 0x963CC961

const char* RecordTagName(RecordTag tag);

// ---- CRC-32 (IEEE 802.3 / zlib polynomial, table-driven) -------------------
uint32_t Crc32(const void* data, size_t n, uint32_t seed = 0);

// ---- Writer ----------------------------------------------------------------
// Streams records to `out`. Every Add* buffers one record, checksums it and
// writes it; Finish() appends the end record. The writer never leaves a
// readable file behind on failure when used through WriteFileAtomic
// (checkpoint.h).
class CheckpointWriter {
 public:
  explicit CheckpointWriter(std::ostream& out);

  void AddTensor(const std::string& name, const tensor::Tensor& t);
  void AddI64(const std::string& name, int64_t value);
  void AddF64(const std::string& name, double value);
  void AddF64List(const std::string& name, const std::vector<double>& values);
  void AddString(const std::string& name, const std::string& value);

  // Writes the end record and flushes. Returns false if any write failed.
  bool Finish();

 private:
  void AddRecord(RecordTag tag, const std::string& name,
                 const std::string& payload);

  std::ostream& out_;
  bool finished_ = false;
};

// ---- Reader ----------------------------------------------------------------
// One parsed record. `offset`/`byte_size` describe the record's position in
// the file (used by the fault-injection tests to truncate at exact record
// boundaries and by `pristi_cli inspect` to report layout).
struct Record {
  RecordTag tag = RecordTag::kEnd;
  std::string name;
  std::string payload;     // raw payload bytes (already length-validated)
  uint32_t stored_crc = 0;
  bool crc_ok = false;
  uint64_t offset = 0;     // byte offset of the record's tag field
  uint64_t byte_size = 0;  // total record size including the CRC field
};

// Parsed view of a checkpoint stream: the record table plus typed accessors.
// Parse() in strict mode (keep_corrupt = false) fails on the FIRST structural
// or checksum problem; with keep_corrupt = true it parses as far as the
// structure allows, marks bad checksums per record, and still returns the
// first error so `inspect` can both render the table and report damage.
class CheckpointView {
 public:
  static Status Parse(std::istream& in, CheckpointView* view,
                      bool keep_corrupt = false);

  uint32_t format_version() const { return format_version_; }
  // All records, end record included (its tag is RecordTag::kEnd).
  const std::vector<Record>& records() const { return records_; }

  // First record with this name, or nullptr.
  const Record* Find(const std::string& name) const;

  // Typed decoders: kMissingRecord when absent, kTypeMismatch on a wrong
  // tag, kBadRecord on a malformed payload, kChecksumMismatch when the
  // record failed its CRC (possible in keep_corrupt views).
  Status GetTensor(const std::string& name, tensor::Tensor* out) const;
  Status GetI64(const std::string& name, int64_t* out) const;
  Status GetF64(const std::string& name, double* out) const;
  Status GetF64List(const std::string& name, std::vector<double>* out) const;
  Status GetString(const std::string& name, std::string* out) const;

 private:
  Status CheckedRecord(const std::string& name, RecordTag tag,
                       const Record** out) const;

  uint32_t format_version_ = 0;
  std::vector<Record> records_;
};

// Decodes a kTensor payload; shared by CheckpointView and `inspect` (which
// wants shapes for the record table without a full load).
Status DecodeTensorPayload(const std::string& payload, tensor::Tensor* out);

}  // namespace pristi::serialize

#endif  // PRISTI_SERIALIZE_FORMAT_H_
