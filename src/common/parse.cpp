#include "common/parse.hpp"

#include <charconv>

#include "common/error.hpp"

namespace pimdnn {

std::uint64_t parse_u64(const std::string& text, const std::string& source,
                        const std::string& what) {
  // from_chars takes no whitespace, no '+' and, for an unsigned type, no
  // '-'; it reports overflow, and an empty range is invalid.
  const bool hex = text.size() >= 2 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
  const char* first = text.data() + (hex ? 2 : 0);
  const char* last = text.data() + text.size();
  std::uint64_t v = 0;
  const auto [end, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
  if (ec != std::errc{} || end != last) {
    throw ConfigError(source + ": bad number '" + text + "' for " + what);
  }
  return v;
}

} // namespace pimdnn
