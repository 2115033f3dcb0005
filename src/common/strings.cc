#include "common/strings.h"

#include <array>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace partix {

std::vector<std::string_view> Split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string_view> SplitSkipEmpty(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  for (std::string_view piece : Split(s, sep)) {
    if (!piece.empty()) out.push_back(piece);
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(parts[i]);
  }
  return out;
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

bool Contains(std::string_view haystack, std::string_view needle) {
  return haystack.find(needle) != std::string_view::npos;
}

std::string_view StripWhitespace(std::string_view s) {
  size_t begin = 0;
  while (begin < s.size() &&
         std::isspace(static_cast<unsigned char>(s[begin]))) {
    ++begin;
  }
  size_t end = s.size();
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1]))) {
    --end;
  }
  return s.substr(begin, end - begin);
}

bool ParseDouble(std::string_view s, double* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = StripWhitespace(s);
  if (s.empty()) return false;
  const char* begin = s.data();
  const char* end = s.data() + s.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

std::string FormatNumber(double v) {
  if (std::isnan(v)) return "NaN";
  if (std::isinf(v)) return v > 0 ? "INF" : "-INF";
  double integral;
  if (std::modf(v, &integral) == 0.0 && std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", v);
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  return buf;
}

namespace {

/// Which bytes AppendEscapedXml replaces: kText for & < > (escaped
/// everywhere), kAttr for the double quote (escaped in attribute values
/// only).
constexpr uint8_t kText = 1;
constexpr uint8_t kAttr = 2;
constexpr std::array<uint8_t, 256> kXmlEscapes = [] {
  std::array<uint8_t, 256> table{};
  table['&'] = kText | kAttr;
  table['<'] = kText | kAttr;
  table['>'] = kText | kAttr;
  table['"'] = kAttr;
  return table;
}();

}  // namespace

void AppendEscapedXml(std::string_view s, bool attr, std::string* out) {
  const uint8_t mask = attr ? kAttr : kText;
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const char c = s[i];
    if ((kXmlEscapes[static_cast<unsigned char>(c)] & mask) == 0) continue;
    out->append(s.data() + run, i - run);
    switch (c) {
      case '&':
        out->append("&amp;");
        break;
      case '<':
        out->append("&lt;");
        break;
      case '>':
        out->append("&gt;");
        break;
      default:
        out->append("&quot;");
        break;
    }
    run = i + 1;
  }
  out->append(s.data() + run, s.size() - run);
}

std::string HumanBytes(uint64_t bytes) {
  static const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  int unit = 0;
  while (v >= 1024.0 && unit < 4) {
    v /= 1024.0;
    ++unit;
  }
  char buf[32];
  if (unit == 0) {
    std::snprintf(buf, sizeof(buf), "%llu B",
                  static_cast<unsigned long long>(bytes));
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[unit]);
  }
  return buf;
}

uint64_t Fnv1a64(std::string_view data, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : data) {
    h ^= static_cast<uint64_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

namespace {

constexpr uint64_t kXxPrime1 = 0x9E3779B185EBCA87ull;
constexpr uint64_t kXxPrime2 = 0xC2B2AE3D27D4EB4Full;
constexpr uint64_t kXxPrime3 = 0x165667B19E3779F9ull;
constexpr uint64_t kXxPrime4 = 0x85EBCA77C2B2AE63ull;
constexpr uint64_t kXxPrime5 = 0x27D4EB2F165667C5ull;

template <typename T>
T ReadLittleEndian(const char* p) {
  T v = 0;
  std::memcpy(&v, p, sizeof(v));
  if constexpr (std::endian::native == std::endian::big) {
    T swapped = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      swapped = (swapped << 8) | ((v >> (8 * i)) & 0xff);
    }
    v = swapped;
  }
  return v;
}

uint64_t XxRound(uint64_t acc, uint64_t input) {
  acc += input * kXxPrime2;
  return std::rotl(acc, 31) * kXxPrime1;
}

uint64_t XxMerge(uint64_t acc, uint64_t lane) {
  acc ^= XxRound(0, lane);
  return acc * kXxPrime1 + kXxPrime4;
}

}  // namespace

uint64_t Xxh64(std::string_view data) {
  const char* p = data.data();
  const char* const end = p + data.size();
  uint64_t h;
  if (data.size() >= 32) {
    uint64_t v1 = kXxPrime1 + kXxPrime2;
    uint64_t v2 = kXxPrime2;
    uint64_t v3 = 0;
    uint64_t v4 = 0 - kXxPrime1;
    for (; end - p >= 32; p += 32) {
      v1 = XxRound(v1, ReadLittleEndian<uint64_t>(p));
      v2 = XxRound(v2, ReadLittleEndian<uint64_t>(p + 8));
      v3 = XxRound(v3, ReadLittleEndian<uint64_t>(p + 16));
      v4 = XxRound(v4, ReadLittleEndian<uint64_t>(p + 24));
    }
    h = std::rotl(v1, 1) + std::rotl(v2, 7) + std::rotl(v3, 12) +
        std::rotl(v4, 18);
    h = XxMerge(XxMerge(XxMerge(XxMerge(h, v1), v2), v3), v4);
  } else {
    h = kXxPrime5;
  }
  h += data.size();
  for (; end - p >= 8; p += 8) {
    h ^= XxRound(0, ReadLittleEndian<uint64_t>(p));
    h = std::rotl(h, 27) * kXxPrime1 + kXxPrime4;
  }
  if (end - p >= 4) {
    h ^= ReadLittleEndian<uint32_t>(p) * kXxPrime1;
    h = std::rotl(h, 23) * kXxPrime2 + kXxPrime3;
    p += 4;
  }
  for (; p < end; ++p) {
    h ^= static_cast<unsigned char>(*p) * kXxPrime5;
    h = std::rotl(h, 11) * kXxPrime1;
  }
  h ^= h >> 33;
  h *= kXxPrime2;
  h ^= h >> 29;
  h *= kXxPrime3;
  h ^= h >> 32;
  return h;
}

std::string HashHex(uint64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

bool ParseHex64(std::string_view s, uint64_t* out) {
  if (s.empty() || s.size() > 16) return false;
  uint64_t value = 0;
  for (char c : s) {
    value <<= 4;
    if (c >= '0' && c <= '9') {
      value |= static_cast<uint64_t>(c - '0');
    } else if (c >= 'a' && c <= 'f') {
      value |= static_cast<uint64_t>(c - 'a' + 10);
    } else if (c >= 'A' && c <= 'F') {
      value |= static_cast<uint64_t>(c - 'A' + 10);
    } else {
      return false;
    }
  }
  *out = value;
  return true;
}

bool CorruptXmlText(std::string* xml, uint64_t pick) {
  // Eligible characters: printable text content outside tags. The flip
  // swaps to a distinct printable character that needs no XML escaping,
  // so the document re-parses cleanly and the corruption is only
  // detectable by content comparison (exactly what checksums are for).
  auto eligible = [](char c, bool in_tag) {
    return !in_tag && c != '<' && c != '>' && c != '&' &&
           static_cast<unsigned char>(c) > ' ';
  };
  size_t count = 0;
  bool in_tag = false;
  for (char c : *xml) {
    if (c == '<') in_tag = true;
    if (eligible(c, in_tag)) ++count;
    if (c == '>') in_tag = false;
  }
  if (count == 0) return false;
  size_t target = static_cast<size_t>(pick % count);
  in_tag = false;
  for (char& c : *xml) {
    if (c == '<') in_tag = true;
    if (eligible(c, in_tag)) {
      if (target == 0) {
        c = c == '#' ? '~' : '#';
        return true;
      }
      --target;
    }
    if (c == '>') in_tag = false;
  }
  return false;
}

}  // namespace partix
