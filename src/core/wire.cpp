#include "core/wire.hpp"

#include <cstring>
#include <sstream>

#include "obs/trace.hpp"

namespace dsdn::core {

namespace {

// Per-record encoded sizes (see serialize_nsu).
constexpr std::size_t kLinkAdvertBytes = 35;  // u32+u32+u8+3*f64+u16
constexpr std::size_t kPrefixBytes = 5;       // u32+u8
constexpr std::size_t kDemandBytes = 13;      // u32+u8+f64

class Writer {
 public:
  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void f64(double v) {
    std::uint64_t raw;
    std::memcpy(&raw, &v, sizeof(raw));
    u64(raw);
  }
  void raw(const std::string& s) {
    bytes_.insert(bytes_.end(), s.begin(), s.end());
  }
  // Patches a previously reserved u32 length slot.
  std::size_t reserve_u32() {
    const std::size_t at = bytes_.size();
    u32(0);
    return at;
  }
  void patch_u32(std::size_t at, std::uint32_t v) {
    bytes_[at] = static_cast<std::uint8_t>(v);
    bytes_[at + 1] = static_cast<std::uint8_t>(v >> 8);
    bytes_[at + 2] = static_cast<std::uint8_t>(v >> 16);
    bytes_[at + 3] = static_cast<std::uint8_t>(v >> 24);
  }
  std::size_t size() const { return bytes_.size(); }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

// Bounds-checked reader over an immutable byte window. Every primitive
// read goes through need(), which compares the request against the bytes
// *remaining* (never forming at_ + n, which could wrap); the first
// failure latches status, offset, and the enclosing section into the
// DecodeError and every subsequent read short-circuits.
class Reader {
 public:
  Reader(std::span<const std::uint8_t> bytes, DecodeError& err)
      : bytes_(bytes), limit_(bytes.size()), err_(err) {}

  void enter_section(std::uint16_t type) { section_ = type; }

  bool fail(DecodeStatus status) {
    if (err_.status == DecodeStatus::kOk) {
      err_.status = status;
      err_.offset = at_;
      err_.section = section_;
    }
    return false;
  }

  bool u8(std::uint8_t& v) {
    if (!need(1)) return false;
    v = bytes_[at_++];
    return true;
  }
  bool u16(std::uint16_t& v) {
    std::uint8_t a, b;
    if (!u8(a) || !u8(b)) return false;
    v = static_cast<std::uint16_t>(a | (b << 8));
    return true;
  }
  bool u32(std::uint32_t& v) {
    std::uint16_t a, b;
    if (!u16(a) || !u16(b)) return false;
    v = static_cast<std::uint32_t>(a) | (static_cast<std::uint32_t>(b) << 16);
    return true;
  }
  bool u64(std::uint64_t& v) {
    std::uint32_t a, b;
    if (!u32(a) || !u32(b)) return false;
    v = static_cast<std::uint64_t>(a) | (static_cast<std::uint64_t>(b) << 32);
    return true;
  }
  bool f64(double& v) {
    std::uint64_t raw;
    if (!u64(raw)) return false;
    std::memcpy(&v, &raw, sizeof(v));
    return true;
  }
  bool str(std::size_t n, std::string& out) {
    if (!need(n)) return false;
    out.assign(reinterpret_cast<const char*>(bytes_.data() + at_), n);
    at_ += n;
    return true;
  }
  bool skip(std::size_t n) {
    if (!need(n)) return false;
    at_ += n;
    return true;
  }
  std::size_t at() const { return at_; }
  std::size_t remaining() const { return limit_ - at_; }
  bool done() const { return at_ == limit_; }

  // Narrows the readable window to the next n bytes; returns the old
  // limit for restore.
  bool push_limit(std::size_t n, std::size_t& saved) {
    if (n > limit_ - at_) return fail(DecodeStatus::kBadSectionLength);
    saved = limit_;
    limit_ = at_ + n;
    return true;
  }
  void pop_limit(std::size_t saved) { limit_ = saved; }

 private:
  bool need(std::size_t n) {
    if (n > limit_ - at_) return fail(DecodeStatus::kTruncated);
    return true;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t at_ = 0;
  std::size_t limit_;
  std::uint16_t section_ = 0;
  DecodeError& err_;
};

}  // namespace

const char* decode_status_name(DecodeStatus s) {
  switch (s) {
    case DecodeStatus::kOk: return "ok";
    case DecodeStatus::kOversized: return "oversized";
    case DecodeStatus::kTruncated: return "truncated";
    case DecodeStatus::kBadMagic: return "bad-magic";
    case DecodeStatus::kBadVersion: return "bad-version";
    case DecodeStatus::kBadSectionLength: return "bad-section-length";
    case DecodeStatus::kBadCount: return "bad-count";
    case DecodeStatus::kBadValue: return "bad-value";
  }
  return "?";
}

const char* wire_section_name(std::uint16_t section) {
  switch (section) {
    case 0: return "header";
    case kSectionLinks: return "links";
    case kSectionPrefixes: return "prefixes";
    case kSectionDemands: return "demands";
    case kSectionTlv: return "tlv";
  }
  return "unknown";
}

std::string DecodeError::to_string() const {
  std::ostringstream os;
  os << decode_status_name(status) << " at byte " << offset << " in section "
     << section << " (" << wire_section_name(section) << ")";
  return os.str();
}

std::vector<std::uint8_t> serialize_nsu(const NodeStateUpdate& nsu) {
  DSDN_TRACE_SPAN("wire.encode");
  Writer w;
  w.u32(kWireMagic);
  w.u16(kWireVersion);
  w.u32(nsu.origin);
  w.u64(nsu.seq);

  auto begin_section = [&](std::uint16_t type) {
    w.u16(type);
    return w.reserve_u32();
  };
  auto end_section = [&](std::size_t len_at) {
    w.patch_u32(len_at, static_cast<std::uint32_t>(w.size() - len_at - 4));
  };

  {
    const auto at = begin_section(kSectionLinks);
    w.u32(static_cast<std::uint32_t>(nsu.links.size()));
    for (const LinkAdvert& l : nsu.links) {
      w.u32(l.link);
      w.u32(l.peer);
      w.u8(l.up ? 1 : 0);
      w.f64(l.capacity_gbps);
      w.f64(l.igp_metric);
      w.f64(l.delay_s);
      w.u16(l.sublabel);
    }
    end_section(at);
  }
  {
    const auto at = begin_section(kSectionPrefixes);
    w.u32(static_cast<std::uint32_t>(nsu.prefixes.size()));
    for (const topo::Prefix& p : nsu.prefixes) {
      w.u32(p.addr);
      w.u8(static_cast<std::uint8_t>(p.len));
    }
    end_section(at);
  }
  {
    const auto at = begin_section(kSectionDemands);
    w.u32(static_cast<std::uint32_t>(nsu.demands.size()));
    for (const DemandAdvert& d : nsu.demands) {
      w.u32(d.egress);
      w.u8(static_cast<std::uint8_t>(d.priority));
      w.f64(d.rate_gbps);
    }
    end_section(at);
  }
  for (const OpaqueTlv& tlv : nsu.tlvs) {
    const auto at = begin_section(kSectionTlv);
    w.u32(tlv.type);
    w.u32(static_cast<std::uint32_t>(tlv.value.size()));
    w.raw(tlv.value);
    end_section(at);
  }
  return w.take();
}

DecodeResult decode_nsu(std::span<const std::uint8_t> bytes) {
  DSDN_TRACE_SPAN("wire.decode");
  DecodeResult result;
  if (bytes.size() > kMaxWireSize) {
    result.error = {DecodeStatus::kOversized, bytes.size(), 0};
    return result;
  }
  Reader r(bytes, result.error);

  std::uint32_t magic;
  std::uint16_t version;
  NodeStateUpdate nsu;
  if (!r.u32(magic)) return result;
  if (magic != kWireMagic) {
    r.fail(DecodeStatus::kBadMagic);
    return result;
  }
  if (!r.u16(version)) return result;
  if (version != kWireVersion) {
    r.fail(DecodeStatus::kBadVersion);
    return result;
  }
  if (!r.u32(nsu.origin) || !r.u64(nsu.seq)) return result;

  while (!r.done()) {
    std::uint16_t type;
    std::uint32_t length;
    r.enter_section(0);
    if (!r.u16(type) || !r.u32(length)) return result;
    std::size_t saved;
    if (!r.push_limit(length, saved)) return result;
    r.enter_section(type);
    switch (type) {
      case kSectionLinks: {
        std::uint32_t n;
        if (!r.u32(n)) return result;
        // Bound n against the section window before reserving; bytes a
        // newer version appends after the records are skipped below.
        if (n > r.remaining() / kLinkAdvertBytes) {
          r.fail(DecodeStatus::kBadCount);
          return result;
        }
        nsu.links.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          LinkAdvert l;
          std::uint8_t up;
          if (!r.u32(l.link) || !r.u32(l.peer) || !r.u8(up) ||
              !r.f64(l.capacity_gbps) || !r.f64(l.igp_metric) ||
              !r.f64(l.delay_s) || !r.u16(l.sublabel)) {
            return result;
          }
          l.up = up != 0;
          nsu.links.push_back(l);
        }
        break;
      }
      case kSectionPrefixes: {
        std::uint32_t n;
        if (!r.u32(n)) return result;
        if (n > r.remaining() / kPrefixBytes) {
          r.fail(DecodeStatus::kBadCount);
          return result;
        }
        nsu.prefixes.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          topo::Prefix p;
          std::uint8_t len;
          if (!r.u32(p.addr) || !r.u8(len)) return result;
          p.len = len;
          nsu.prefixes.push_back(p);
        }
        break;
      }
      case kSectionDemands: {
        std::uint32_t n;
        if (!r.u32(n)) return result;
        if (n > r.remaining() / kDemandBytes) {
          r.fail(DecodeStatus::kBadCount);
          return result;
        }
        nsu.demands.reserve(n);
        for (std::uint32_t i = 0; i < n; ++i) {
          DemandAdvert d;
          std::uint8_t cls;
          if (!r.u32(d.egress) || !r.u8(cls) || !r.f64(d.rate_gbps))
            return result;
          if (cls >= metrics::kNumPriorityClasses) {
            r.fail(DecodeStatus::kBadValue);
            return result;
          }
          d.priority = static_cast<metrics::PriorityClass>(cls);
          nsu.demands.push_back(d);
        }
        break;
      }
      case kSectionTlv: {
        OpaqueTlv tlv;
        std::uint32_t value_len;
        if (!r.u32(tlv.type) || !r.u32(value_len)) return result;
        if (value_len > r.remaining()) {
          r.fail(DecodeStatus::kBadCount);
          return result;
        }
        if (!r.str(value_len, tlv.value)) return result;
        nsu.tlvs.push_back(std::move(tlv));
        break;
      }
      default:
        // Unknown section from a newer controller: skip it whole.
        break;
    }
    // Skip any trailer a newer version appended inside a known section
    // (and the whole payload of unknown sections).
    if (!r.skip(r.remaining())) return result;
    r.pop_limit(saved);
  }
  result.nsu = std::move(nsu);
  return result;
}

}  // namespace dsdn::core
