// Strict number parsing for the PIMDNN_* environment grammars.
#pragma once

#include <cstdint>
#include <string>

namespace pimdnn {

/// Parses `text` as an unsigned 64-bit number: decimal digits, or `0x`
/// followed by hex digits. Signs, whitespace, empty text and values past
/// 2^64 - 1 throw ConfigError("<source>: bad number '<text>' for <what>").
std::uint64_t parse_u64(const std::string& text, const std::string& source,
                        const std::string& what);

} // namespace pimdnn
