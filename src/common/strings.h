#ifndef PARTIX_COMMON_STRINGS_H_
#define PARTIX_COMMON_STRINGS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace partix {

/// Splits `s` on `sep`, keeping empty pieces. Split("a//b", '/') yields
/// {"a", "", "b"}.
std::vector<std::string_view> Split(std::string_view s, char sep);

/// Splits `s` on `sep`, dropping empty pieces.
std::vector<std::string_view> SplitSkipEmpty(std::string_view s, char sep);

/// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True if `s` begins with `prefix`.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True if `s` ends with `suffix`.
bool EndsWith(std::string_view s, std::string_view suffix);

/// Case-sensitive substring containment, the semantics of XQuery
/// fn:contains.
bool Contains(std::string_view haystack, std::string_view needle);

/// Removes ASCII whitespace from both ends.
std::string_view StripWhitespace(std::string_view s);

/// Parses a decimal double; returns false on malformed input (the whole
/// trimmed string must be consumed).
bool ParseDouble(std::string_view s, double* out);

/// Parses a decimal int64; returns false on malformed input.
bool ParseInt64(std::string_view s, int64_t* out);

/// Formats a double the way XQuery serializes numbers: integers without a
/// decimal point, otherwise shortest round-trip representation.
std::string FormatNumber(double v);

/// Appends `s` to `*out` with & < > escaped as entities, and also double
/// quotes when `attr` is set (an attribute value); quotes in text content
/// are left alone. Tests eight bytes at a time (SWAR), looks at single
/// bytes only inside a word that holds one to escape, and appends each
/// run that needs no escaping in one call. Over the text of a generated
/// store it costs ~0.4 ns per byte, against ~0.1 ns for a plain copy
/// (x86-64, 4-vCPU guest).
void AppendEscapedXml(std::string_view s, bool attr, std::string* out);

/// Human-readable byte size, e.g. "2.5 MiB".
std::string HumanBytes(uint64_t bytes);

/// 64-bit FNV-1a over `data`, folded into `seed` (pass the previous hash
/// to chain multiple pieces; the default is the canonical offset basis).
/// The digest of content at rest: fragment content digests (the
/// manifest's `digest=` field), replica scrubbing and repair verification
/// hash stored XML with this, so its values must never change.
uint64_t Fnv1a64(std::string_view data,
                 uint64_t seed = 14695981039346656037ull);

/// XXH64 of `data` with seed 0, reading 8-byte little-endian words. The
/// digest of result blocks in flight, which nothing stores: over an 8 MB
/// block it runs ~13x faster than FNV-1a's byte-serial loop.
uint64_t Xxh64(std::string_view data);

/// Fixed-width lowercase hex rendering of a 64-bit hash (16 digits).
std::string HashHex(uint64_t value);

/// Parses a lowercase/uppercase hex string (no 0x prefix, 1-16 digits)
/// into a uint64; returns false on malformed input. Inverse of HashHex.
bool ParseHex64(std::string_view s, uint64_t* out);

/// Fault-injection helper: flips one text-content character of `xml`
/// (never markup — the document stays well-formed), choosing the
/// (pick mod eligible)-th eligible character. Returns false when the
/// document has no text content to corrupt. Strings without any markup
/// are treated as pure text.
bool CorruptXmlText(std::string* xml, uint64_t pick);

}  // namespace partix

#endif  // PARTIX_COMMON_STRINGS_H_
