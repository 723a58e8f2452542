#pragma once

// NSU wire format: the byte encoding dSDN controllers exchange over
// gRPC (§3.3). gRPC abstracts chunking and reliable transfer; this layer
// defines the payload itself -- a compact TLV-framed binary format so
// that old controllers skip fields they don't understand (the
// extensibility story of §3.2, mirroring IS-IS TLVs [39]).
//
// Layout (little-endian):
//   magic   u32  'DSDN'
//   version u16
//   origin  u32
//   seq     u64
//   then a sequence of sections, each: type u16 | length u32 | payload
//
// decode_nsu() never trusts input: every read is bounds-checked against
// the buffer and the enclosing section window, so a truncated, oversized,
// or inconsistent buffer yields a DecodeError (with the failing offset
// and section) -- never undefined behavior. Two skip-forward rules give
// old routers tolerance for new fields (the core/upgrade rollout story):
// whole sections of unknown type are skipped, and bytes a newer version
// appends *after* the records of a known section are skipped too. A
// decoded NSU still goes through validate_nsu() before a StateDb accepts
// it.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/nsu.hpp"

namespace dsdn::core {

inline constexpr std::uint32_t kWireMagic = 0x4453444Eu;  // "DSDN"
inline constexpr std::uint16_t kWireVersion = 1;

// Hard cap on accepted message size (a malformed length field must not
// drive allocation).
inline constexpr std::size_t kMaxWireSize = 1 << 22;  // 4 MiB

// Section types (public so tests and fuzzers can frame sections).
inline constexpr std::uint16_t kSectionLinks = 1;
inline constexpr std::uint16_t kSectionPrefixes = 2;
inline constexpr std::uint16_t kSectionDemands = 3;
inline constexpr std::uint16_t kSectionTlv = 4;

enum class DecodeStatus : std::uint8_t {
  kOk = 0,
  kOversized,         // buffer exceeds kMaxWireSize
  kTruncated,         // a read ran past the buffer or section window
  kBadMagic,          // first four bytes are not 'DSDN'
  kBadVersion,        // incompatible wire version
  kBadSectionLength,  // section length field exceeds the remaining bytes
  kBadCount,          // record count inconsistent with the section length
  kBadValue,          // a field holds a value outside its domain
};

const char* decode_status_name(DecodeStatus s);

// Section the decoder was inside when it failed; 0 = the fixed header.
const char* wire_section_name(std::uint16_t section);

struct DecodeError {
  DecodeStatus status = DecodeStatus::kOk;
  std::size_t offset = 0;     // byte offset at which decoding failed
  std::uint16_t section = 0;  // section type being decoded (0 = header)

  // "truncated at byte 17 in section 1 (links)" -- for logs/monitoring.
  std::string to_string() const;
};

struct DecodeResult {
  std::optional<NodeStateUpdate> nsu;
  DecodeError error;  // meaningful iff !nsu

  explicit operator bool() const { return nsu.has_value(); }
};

std::vector<std::uint8_t> serialize_nsu(const NodeStateUpdate& nsu);

// Bounds-checked decode; on failure the error names the status, byte
// offset, and enclosing section. Unknown section types and known-section
// trailers are skipped (forward compatibility); structurally inconsistent
// buffers are rejected.
DecodeResult decode_nsu(std::span<const std::uint8_t> bytes);

}  // namespace dsdn::core
