#include "src/common/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstdlib>

namespace auditdb {

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < pieces.size(); ++i) {
    if (i > 0) out.append(sep);
    out.append(pieces[i]);
  }
  return out;
}

std::string ToLower(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::tolower(unsigned(c)));
  return out;
}

std::string ToUpper(std::string_view text) {
  std::string out(text);
  for (char& c : out) c = static_cast<char>(std::toupper(unsigned(c)));
  return out;
}

std::string_view Trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() &&
         text.substr(0, prefix.size()) == prefix;
}

namespace {

template <typename Int>
bool ParseDecimal(std::string_view text, Int* out) {
  Int v = 0;
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc() || ptr != end) return false;
  *out = v;
  return true;
}

}  // namespace

bool ParseInt64(std::string_view text, int64_t* out) {
  return ParseDecimal(text, out);
}

bool ParseUint64(std::string_view text, uint64_t* out) {
  return ParseDecimal(text, out);
}

bool ParseIntInRange(std::string_view text, int lo, int hi, int* out) {
  int64_t value = 0;
  if (!ParseInt64(text, &value) || value < lo || value > hi) return false;
  *out = static_cast<int>(value);
  return true;
}

bool ParseDouble(std::string_view text, double* out) {
  if (text.empty()) return false;
  const std::string copy(text);  // strtod needs a terminated string
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(copy.c_str(), &end);
  if (errno != 0 || end != copy.c_str() + copy.size()) return false;
  *out = v;
  return true;
}

}  // namespace auditdb
