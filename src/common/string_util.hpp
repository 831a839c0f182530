// String helpers: number formatting for bench and example output, and
// ToLower for option parsing.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace asyncmr {

std::string ToLower(std::string_view s);

/// "1234567" -> "1,234,567" (for bench tables).
std::string WithThousands(uint64_t v);

/// Formats bytes human-readably: "3.2 MiB".
std::string HumanBytes(uint64_t bytes);

/// Formats seconds human-readably: "2.5 s", "130 ms", "1h02m".
std::string HumanSeconds(double seconds);

}  // namespace asyncmr
