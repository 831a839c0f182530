#include "common/string_util.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

namespace asyncmr {

std::string ToLower(std::string_view s) {
  std::string out(s);
  std::transform(out.begin(), out.end(), out.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return out;
}

std::string WithThousands(uint64_t v) {
  std::string digits = std::to_string(v);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int count = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (count && count % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++count;
  }
  std::reverse(out.begin(), out.end());
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB"};
  double v = static_cast<double>(bytes);
  size_t u = 0;
  while (v >= 1024.0 && u + 1 < std::size(kUnits)) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  if (u == 0) {
    std::snprintf(buf, sizeof(buf), "%.0f %s", v, kUnits[u]);
  } else {
    std::snprintf(buf, sizeof(buf), "%.1f %s", v, kUnits[u]);
  }
  return buf;
}

std::string HumanSeconds(double seconds) {
  char buf[48];
  if (seconds < 0) seconds = 0;
  if (seconds < 1e-3) {
    std::snprintf(buf, sizeof(buf), "%.0f us", seconds * 1e6);
  } else if (seconds < 1.0) {
    std::snprintf(buf, sizeof(buf), "%.0f ms", seconds * 1e3);
  } else if (seconds < 120.0) {
    std::snprintf(buf, sizeof(buf), "%.1f s", seconds);
  } else if (seconds < 3600.0) {
    std::snprintf(buf, sizeof(buf), "%.1f min", seconds / 60.0);
  } else {
    const int h = static_cast<int>(seconds / 3600.0);
    const int m = static_cast<int>(std::fmod(seconds, 3600.0) / 60.0);
    std::snprintf(buf, sizeof(buf), "%dh%02dm", h, m);
  }
  return buf;
}

}  // namespace asyncmr
