#ifndef DACE_CORE_CHECKPOINT_H_
#define DACE_CORE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/file_io.h"
#include "util/serialize.h"
#include "util/status.h"

namespace dace::core {

struct DaceConfig;

// -----------------------------------------------------------------------
// Checkpoint wire format (format version 1)
//
//   header (48 bytes)
//     bytes 0..7   magic "DACECKPT"
//     u32          format version (1)
//     u32          endianness marker 0x01020304 (written native; a reader on
//                  an opposite-endian machine sees 0x04030201 and rejects)
//     u32 × 8      DaceConfig compatibility fingerprint: d_model, d_k, d_v,
//                  hidden1, hidden2, lora_r1, lora_r2, lora_r3
//   sections (in fixed order)
//     u32 tag, u64 payload length, payload bytes — one frame per component:
//     featurizer, attention, fc1, fc2, fc3, then optionally the distilled
//     student (present iff the model was distilled when saved)
//   trailer (8 bytes, always the last 8 bytes of the file)
//     u32 trailer tag (0), u32 CRC-32 over every preceding byte
//
// Input without the magic is rejected with DataLoss.
// -----------------------------------------------------------------------

inline constexpr char kCheckpointMagic[8] = {'D', 'A', 'C', 'E',
                                             'C', 'K', 'P', 'T'};
inline constexpr uint32_t kCheckpointFormatVersion = 1;
inline constexpr uint32_t kEndiannessMarker = 0x01020304u;
inline constexpr size_t kCheckpointHeaderSize = 8 + 4 + 4 + 8 * 4;
inline constexpr size_t kCheckpointTrailerSize = 4 + 4;

// Section tags, in the order SaveToFile emits them. kSectionStudent and
// kSectionLineage are OPTIONAL and trailing: checkpoints written before
// distillation (or by older builds) simply end after fc3, and readers probe
// for them with AtEnd() + PeekSectionTag() — which is what keeps pre-student
// and pre-lineage checkpoints loadable unchanged.
inline constexpr uint32_t kSectionFeaturizer = 1;
inline constexpr uint32_t kSectionAttention = 2;
inline constexpr uint32_t kSectionFc1 = 3;
inline constexpr uint32_t kSectionFc2 = 4;
inline constexpr uint32_t kSectionFc3 = 5;
inline constexpr uint32_t kSectionStudent = 6;
// Provenance of the weights: a free-form lineage string stamped by whoever
// produced the checkpoint (the adaptation loop records tenant, parent
// generation and fine-tune seed) so a rollback target or promoted candidate
// is attributable from the artifact alone.
inline constexpr uint32_t kSectionLineage = 7;
inline constexpr uint32_t kTrailerTag = 0;

// The decoded header: format version plus the DaceConfig dimensions the
// checkpoint was produced under.
struct CheckpointHeader {
  uint32_t format_version = 0;
  uint32_t d_model = 0;
  uint32_t d_k = 0;
  uint32_t d_v = 0;
  uint32_t hidden1 = 0;
  uint32_t hidden2 = 0;
  uint32_t lora_r1 = 0;
  uint32_t lora_r2 = 0;
  uint32_t lora_r3 = 0;
};

// Builds a format-1 checkpoint in memory: header up front, framed sections
// through bytes(), CRC trailer on Finalize. Writing is infallible (memory
// only); the single fallible step is the atomic file write of the finished
// buffer, so a failed save can never leave a half-written checkpoint behind.
class CheckpointWriter {
 public:
  explicit CheckpointWriter(const DaceConfig& config);

  // Target for section payloads; only write between Begin/EndSection.
  ByteWriter* bytes() { return &bytes_; }

  void BeginSection(uint32_t tag);
  void EndSection();

  // Appends the CRC trailer and releases the finished buffer.
  std::string Finalize() &&;

 private:
  ByteWriter bytes_;
  size_t open_length_offset_ = 0;  // 0 = no section open
};

// Validating reader over a complete checkpoint buffer. Init performs every
// whole-file check up front — magic, version, endianness, trailer framing,
// checksum — so by the time any payload byte is parsed the file is known to
// be exactly what was written. Sections are then consumed strictly in order.
class CheckpointReader {
 public:
  // The blob must outlive the reader (section readers alias into it).
  Status Init(std::string_view blob);

  const CheckpointHeader& header() const { return header_; }

  // FailedPrecondition naming every mismatched dimension if the checkpoint
  // was produced under a different DaceConfig than `config`.
  Status MatchesConfig(const DaceConfig& config) const;

  // Consumes the next section, which must carry `expected_tag`; *payload is
  // bounded to exactly the section's bytes.
  Status EnterSection(uint32_t expected_tag, ByteReader* payload);

  // DataLoss unless every section byte up to the trailer was consumed.
  Status ExpectEnd() const;

  // True once every section byte has been consumed — i.e. the next thing in
  // the file is the trailer. Lets loaders probe for optional trailing
  // sections (kSectionStudent, kSectionLineage) without attempting a read
  // that would fail.
  bool AtEnd() const { return cursor_ >= sections_end_; }

  // Tag of the next unconsumed section, without advancing. Lets loaders
  // dispatch among multiple optional trailing sections. DataLoss at end of
  // sections or on a malformed frame.
  Status PeekSectionTag(uint32_t* tag) const;

 private:
  std::string_view blob_;
  CheckpointHeader header_;
  size_t cursor_ = 0;        // next unread section byte
  size_t sections_end_ = 0;  // first trailer byte
};

// A section's location inside a checkpoint buffer, for tooling and the
// corruption fuzz test (which truncates at exactly these boundaries).
struct CheckpointSection {
  uint32_t tag = 0;
  size_t payload_offset = 0;  // first payload byte
  uint64_t payload_length = 0;
};

// Decodes the header and walks the section frames without touching payloads
// (and without requiring the checksum to match — inspection must work on the
// corrupt files the loader rejects). Fails on structural damage only.
Status InspectCheckpoint(std::string_view blob, CheckpointHeader* header,
                         std::vector<CheckpointSection>* sections);

// Whole-file helpers: the implementations moved to util/file_io.h (the obs
// sidecar writers need atomic file replacement below the core layer); these
// forwards keep the established core:: spellings working.
inline Status ReadFileToString(const std::string& path, std::string* out) {
  return ::dace::ReadFileToString(path, out);
}

// Writes data to a temp file in path's directory, flushes, and renames it
// over path — readers of `path` see either the complete old bytes or the
// complete new bytes, never a prefix. On any failure the temp file is
// removed and the existing file at `path` is left untouched.
inline Status WriteFileAtomic(const std::string& path, std::string_view data) {
  return ::dace::WriteFileAtomic(path, data);
}

}  // namespace dace::core

#endif  // DACE_CORE_CHECKPOINT_H_
