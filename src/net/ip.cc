#include "net/ip.h"

#include <array>
#include <charconv>
#include <vector>

namespace hoyan {
namespace {

std::optional<uint32_t> parseDecimal(std::string_view text, uint32_t max) {
  if (text.empty() || text.size() > 10) return std::nullopt;
  uint32_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size() || value > max) return std::nullopt;
  return value;
}

std::optional<IpAddress> parseV4(std::string_view text) {
  uint32_t value = 0;
  int octets = 0;
  size_t pos = 0;
  while (true) {
    const size_t dot = text.find('.', pos);
    const std::string_view part =
        dot == std::string_view::npos ? text.substr(pos) : text.substr(pos, dot - pos);
    const auto octet = parseDecimal(part, 255);
    if (!octet) return std::nullopt;
    value = (value << 8) | *octet;
    ++octets;
    if (dot == std::string_view::npos) break;
    if (octets == 4) return std::nullopt;  // Trailing garbage after 4 octets.
    pos = dot + 1;
  }
  if (octets != 4) return std::nullopt;
  return IpAddress::v4(value);
}

std::optional<uint16_t> parseHexGroup(std::string_view text) {
  if (text.empty() || text.size() > 4) return std::nullopt;
  uint16_t value = 0;
  const auto [ptr, ec] = std::from_chars(text.data(), text.data() + text.size(), value, 16);
  if (ec != std::errc() || ptr != text.data() + text.size()) return std::nullopt;
  return value;
}

std::optional<IpAddress> parseV6(std::string_view text) {
  // Split into the parts before and after "::" (if present).
  std::vector<uint16_t> head;
  std::vector<uint16_t> tail;
  const size_t gap = text.find("::");
  const auto parseGroups = [](std::string_view part, std::vector<uint16_t>& out) -> bool {
    if (part.empty()) return true;
    size_t pos = 0;
    while (true) {
      const size_t colon = part.find(':', pos);
      const std::string_view group =
          colon == std::string_view::npos ? part.substr(pos) : part.substr(pos, colon - pos);
      const auto value = parseHexGroup(group);
      if (!value) return false;
      out.push_back(*value);
      if (colon == std::string_view::npos) return true;
      pos = colon + 1;
    }
  };
  if (gap == std::string_view::npos) {
    if (!parseGroups(text, head) || head.size() != 8) return std::nullopt;
  } else {
    if (!parseGroups(text.substr(0, gap), head)) return std::nullopt;
    if (!parseGroups(text.substr(gap + 2), tail)) return std::nullopt;
    if (head.size() + tail.size() > 7) return std::nullopt;
  }
  std::array<uint16_t, 8> groups{};
  for (size_t i = 0; i < head.size(); ++i) groups[i] = head[i];
  for (size_t i = 0; i < tail.size(); ++i) groups[8 - tail.size() + i] = tail[i];
  uint64_t hi = 0;
  uint64_t lo = 0;
  for (int i = 0; i < 4; ++i) hi = (hi << 16) | groups[i];
  for (int i = 4; i < 8; ++i) lo = (lo << 16) | groups[i];
  return IpAddress::v6(hi, lo);
}

}  // namespace

std::optional<IpAddress> IpAddress::parse(std::string_view text) {
  if (text.find(':') != std::string_view::npos) return parseV6(text);
  return parseV4(text);
}

std::string IpAddress::str() const {
  std::string out;
  appendTo(out);
  return out;
}

void IpAddress::appendTo(std::string& out) const {
  char buffer[16];
  if (isV4()) {
    const uint32_t v = v4Value();
    char* end = buffer;
    for (int shift = 24; shift >= 0; shift -= 8) {
      if (shift != 24) *end++ = '.';
      end = std::to_chars(end, buffer + sizeof(buffer), (v >> shift) & 0xff).ptr;
    }
    out.append(buffer, end);
    return;
  }
  std::array<uint16_t, 8> groups;
  for (int i = 0; i < 4; ++i) groups[i] = static_cast<uint16_t>(bits_.hi >> (48 - 16 * i));
  for (int i = 0; i < 4; ++i) groups[4 + i] = static_cast<uint16_t>(bits_.lo >> (48 - 16 * i));
  // Find the longest run of zero groups to compress as "::".
  int bestStart = -1;
  int bestLen = 0;
  for (int i = 0; i < 8;) {
    if (groups[i] != 0) {
      ++i;
      continue;
    }
    int j = i;
    while (j < 8 && groups[j] == 0) ++j;
    if (j - i > bestLen) {
      bestLen = j - i;
      bestStart = i;
    }
    i = j;
  }
  if (bestLen < 2) bestStart = -1;  // Only compress runs of two or more.
  for (int i = 0; i < 8; ++i) {
    if (i == bestStart) {
      out += i == 0 ? "::" : ":";
      i += bestLen - 1;
      if (i == 7) return;  // Trailing "::".
      continue;
    }
    out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), groups[i], 16).ptr);
    if (i != 7) out += ':';
  }
}

U128 maskBits(IpFamily family, uint8_t length) {
  const unsigned width = family == IpFamily::kV4 ? 32 : 128;
  if (length == 0) return {};
  const U128 allOnes{~0ULL, ~0ULL};
  return allOnes.shiftLeft(width - length);
}

Prefix::Prefix(IpAddress address, uint8_t length) : length_(length) {
  if (length_ > address.width()) length_ = static_cast<uint8_t>(address.width());
  address_ = IpAddress(address.family(), address.bits() & maskBits(address.family(), length_));
}

std::optional<Prefix> Prefix::parse(std::string_view text) {
  const size_t slash = text.find('/');
  if (slash == std::string_view::npos) {
    const auto address = IpAddress::parse(text);
    if (!address) return std::nullopt;
    return Prefix(*address, static_cast<uint8_t>(address->width()));
  }
  const auto address = IpAddress::parse(text.substr(0, slash));
  if (!address) return std::nullopt;
  const auto length = parseDecimal(text.substr(slash + 1), address->width());
  if (!length) return std::nullopt;
  return Prefix(*address, static_cast<uint8_t>(*length));
}

IpAddress Prefix::lastAddress() const {
  return IpAddress(address_.family(),
                   address_.bits() | ~maskBits(address_.family(), length_));
}

bool Prefix::contains(const IpAddress& addr) const {
  if (addr.family() != family()) return false;
  return (addr.bits() & maskBits(family(), length_)) == address_.bits();
}

bool Prefix::contains(const Prefix& other) const {
  return other.family() == family() && other.length_ >= length_ && contains(other.address_);
}

bool Prefix::overlaps(const Prefix& other) const {
  return contains(other) || other.contains(*this);
}

std::string Prefix::str() const {
  std::string out;
  appendTo(out);
  return out;
}

void Prefix::appendTo(std::string& out) const {
  address_.appendTo(out);
  char buffer[4];
  out += '/';
  out.append(buffer, std::to_chars(buffer, buffer + sizeof(buffer), unsigned{length_}).ptr);
}

void IpRange::extend(const Prefix& p) {
  extend(p.firstAddress());
  extend(p.lastAddress());
}

void IpRange::extend(const IpAddress& a) {
  // An empty range is represented by first > last (default constructed V4
  // range is [0, 0] which is valid, so callers seed ranges via this helper
  // with first=last=a initially); we treat an uninitialised range as one
  // where both endpoints equal the default address and no extend() was
  // called. To keep the type simple, callers construct {a, a} for the first
  // element and extend() for the rest.
  if (a < first) first = a;
  if (last < a) last = a;
}

std::string IpRange::str() const {
  return "[" + first.str() + ", " + last.str() + "]";
}

}  // namespace hoyan
