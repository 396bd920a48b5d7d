#include "core/checkpoint.h"

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <fstream>

#include "core/dace_model.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace dace::core {

namespace {

// Decodes the fixed-size header. The caller has already checked the size.
Status ParseHeader(std::string_view blob, CheckpointHeader* header) {
  ByteReader r(blob.data(), kCheckpointHeaderSize);
  char magic[8];
  DACE_RETURN_IF_ERROR(r.ReadBytes(magic, sizeof(magic)));
  if (std::memcmp(magic, kCheckpointMagic, sizeof(magic)) != 0) {
    return Status::DataLoss("not a DACE checkpoint (bad magic)");
  }
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->format_version));
  uint32_t endianness = 0;
  DACE_RETURN_IF_ERROR(r.ReadU32(&endianness));
  if (endianness != kEndiannessMarker) {
    if (endianness == 0x04030201u) {
      return Status::DataLoss(
          "checkpoint was written on an opposite-endianness machine");
    }
    return Status::DataLoss("corrupt endianness marker in checkpoint header");
  }
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->d_model));
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->d_k));
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->d_v));
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->hidden1));
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->hidden2));
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->lora_r1));
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->lora_r2));
  DACE_RETURN_IF_ERROR(r.ReadU32(&header->lora_r3));
  return Status::OK();
}

void AppendMismatch(const char* field, uint32_t saved, int live,
                    std::string* msg) {
  if (saved == static_cast<uint32_t>(live)) return;
  if (!msg->empty()) msg->append(", ");
  msg->append(field);
  msg->append(": checkpoint ");
  msg->append(std::to_string(saved));
  msg->append(" vs estimator ");
  msg->append(std::to_string(live));
}

}  // namespace

// --------------------------------------------------------------- writer --

CheckpointWriter::CheckpointWriter(const DaceConfig& config) {
  bytes_.WriteBytes(kCheckpointMagic, sizeof(kCheckpointMagic));
  bytes_.WriteU32(kCheckpointFormatVersion);
  bytes_.WriteU32(kEndiannessMarker);
  bytes_.WriteU32(static_cast<uint32_t>(config.d_model));
  bytes_.WriteU32(static_cast<uint32_t>(config.d_k));
  bytes_.WriteU32(static_cast<uint32_t>(config.d_v));
  bytes_.WriteU32(static_cast<uint32_t>(config.hidden1));
  bytes_.WriteU32(static_cast<uint32_t>(config.hidden2));
  bytes_.WriteU32(static_cast<uint32_t>(config.lora_r1));
  bytes_.WriteU32(static_cast<uint32_t>(config.lora_r2));
  bytes_.WriteU32(static_cast<uint32_t>(config.lora_r3));
  DACE_CHECK_EQ(bytes_.size(), kCheckpointHeaderSize);
}

void CheckpointWriter::BeginSection(uint32_t tag) {
  DACE_CHECK_EQ(open_length_offset_, 0u) << "nested checkpoint section";
  DACE_CHECK_NE(tag, kTrailerTag);
  bytes_.WriteU32(tag);
  open_length_offset_ = bytes_.size();
  bytes_.WriteU64(0);  // patched by EndSection
}

void CheckpointWriter::EndSection() {
  DACE_CHECK_GT(open_length_offset_, 0u) << "EndSection without BeginSection";
  const size_t payload_start = open_length_offset_ + sizeof(uint64_t);
  bytes_.OverwriteU64(open_length_offset_, bytes_.size() - payload_start);
  open_length_offset_ = 0;
}

std::string CheckpointWriter::Finalize() && {
  DACE_CHECK_EQ(open_length_offset_, 0u) << "Finalize with an open section";
  bytes_.WriteU32(kTrailerTag);
  bytes_.WriteU32(Crc32::Of(bytes_.buffer().data(), bytes_.size()));
  return std::move(bytes_).TakeBuffer();
}

// --------------------------------------------------------------- reader --

Status CheckpointReader::Init(std::string_view blob) {
  if (blob.size() < kCheckpointHeaderSize + kCheckpointTrailerSize) {
    return Status::DataLoss("checkpoint smaller than header + trailer");
  }
  DACE_RETURN_IF_ERROR(ParseHeader(blob, &header_));
  if (header_.format_version != kCheckpointFormatVersion) {
    return Status::FailedPrecondition(
        "unsupported checkpoint format version " +
        std::to_string(header_.format_version) + " (reader supports " +
        std::to_string(kCheckpointFormatVersion) + ")");
  }
  // The trailer is always the final 8 bytes; verifying the checksum here
  // means any later parse error is a structural bug in the writer, not bit
  // rot — and that no staged state is ever built from corrupt bytes.
  ByteReader trailer(blob.data() + blob.size() - kCheckpointTrailerSize,
                     kCheckpointTrailerSize);
  uint32_t tag = 0, stored_crc = 0;
  DACE_RETURN_IF_ERROR(trailer.ReadU32(&tag));
  DACE_RETURN_IF_ERROR(trailer.ReadU32(&stored_crc));
  if (tag != kTrailerTag) {
    return Status::DataLoss(
        "checkpoint trailer missing (file truncated or has trailing bytes)");
  }
  // The stored CRC covers every preceding byte, trailer tag included.
  const uint32_t actual_crc =
      Crc32::Of(blob.data(), blob.size() - sizeof(uint32_t));
  if (actual_crc != stored_crc) {
    return Status::DataLoss("checkpoint checksum mismatch (corrupt file)");
  }
  blob_ = blob;
  cursor_ = kCheckpointHeaderSize;
  sections_end_ = blob.size() - kCheckpointTrailerSize;
  return Status::OK();
}

Status CheckpointReader::MatchesConfig(const DaceConfig& config) const {
  std::string mismatches;
  AppendMismatch("d_model", header_.d_model, config.d_model, &mismatches);
  AppendMismatch("d_k", header_.d_k, config.d_k, &mismatches);
  AppendMismatch("d_v", header_.d_v, config.d_v, &mismatches);
  AppendMismatch("hidden1", header_.hidden1, config.hidden1, &mismatches);
  AppendMismatch("hidden2", header_.hidden2, config.hidden2, &mismatches);
  AppendMismatch("lora_r1", header_.lora_r1, config.lora_r1, &mismatches);
  AppendMismatch("lora_r2", header_.lora_r2, config.lora_r2, &mismatches);
  AppendMismatch("lora_r3", header_.lora_r3, config.lora_r3, &mismatches);
  if (mismatches.empty()) return Status::OK();
  return Status::FailedPrecondition(
      "checkpoint was saved under an incompatible DaceConfig (" + mismatches +
      ")");
}

Status CheckpointReader::EnterSection(uint32_t expected_tag,
                                      ByteReader* payload) {
  DACE_CHECK(!blob_.empty()) << "EnterSection before Init";
  ByteReader frame(blob_.data() + cursor_, sections_end_ - cursor_);
  uint32_t tag = 0;
  uint64_t length = 0;
  DACE_RETURN_IF_ERROR(frame.ReadU32(&tag));
  if (tag != expected_tag) {
    return Status::DataLoss("unexpected checkpoint section tag " +
                            std::to_string(tag) + " (wanted " +
                            std::to_string(expected_tag) + ")");
  }
  DACE_RETURN_IF_ERROR(frame.ReadU64(&length));
  DACE_RETURN_IF_ERROR(frame.Slice(length, payload));
  cursor_ += frame.offset();
  return Status::OK();
}

Status CheckpointReader::PeekSectionTag(uint32_t* tag) const {
  DACE_CHECK(!blob_.empty()) << "PeekSectionTag before Init";
  if (AtEnd()) {
    return Status::DataLoss("no section to peek (at end of checkpoint)");
  }
  ByteReader frame(blob_.data() + cursor_, sections_end_ - cursor_);
  return frame.ReadU32(tag);
}

Status CheckpointReader::ExpectEnd() const {
  if (cursor_ != sections_end_) {
    return Status::DataLoss(
        "checkpoint has unconsumed bytes after the final section");
  }
  return Status::OK();
}

// ----------------------------------------------------------- inspection --

Status InspectCheckpoint(std::string_view blob, CheckpointHeader* header,
                         std::vector<CheckpointSection>* sections) {
  if (blob.size() < kCheckpointHeaderSize + kCheckpointTrailerSize) {
    return Status::DataLoss("checkpoint smaller than header + trailer");
  }
  DACE_RETURN_IF_ERROR(ParseHeader(blob, header));
  sections->clear();
  ByteReader r(blob.data() + kCheckpointHeaderSize,
               blob.size() - kCheckpointHeaderSize);
  for (;;) {
    uint32_t tag = 0;
    DACE_RETURN_IF_ERROR(r.ReadU32(&tag));
    if (tag == kTrailerTag) break;
    uint64_t length = 0;
    DACE_RETURN_IF_ERROR(r.ReadU64(&length));
    CheckpointSection section;
    section.tag = tag;
    section.payload_offset = kCheckpointHeaderSize + r.offset();
    section.payload_length = length;
    ByteReader skipped_payload;
    DACE_RETURN_IF_ERROR(r.Slice(length, &skipped_payload));
    sections->push_back(section);
  }
  return Status::OK();
}

// File I/O helpers moved to util/file_io.h; checkpoint.h forwards the old
// core:: names.

}  // namespace dace::core
