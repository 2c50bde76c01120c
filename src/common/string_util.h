#ifndef AUDITDB_COMMON_STRING_UTIL_H_
#define AUDITDB_COMMON_STRING_UTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace auditdb {

/// Splits `text` on `sep`, keeping empty pieces.
std::vector<std::string> Split(std::string_view text, char sep);

/// Joins `pieces` with `sep` between consecutive elements.
std::string Join(const std::vector<std::string>& pieces,
                 std::string_view sep);

/// Returns `text` with ASCII letters lowercased.
std::string ToLower(std::string_view text);

/// Returns `text` with ASCII letters uppercased.
std::string ToUpper(std::string_view text);

/// Strips leading and trailing ASCII whitespace.
std::string_view Trim(std::string_view text);

/// Case-insensitive ASCII equality.
bool EqualsIgnoreCase(std::string_view a, std::string_view b);

/// Whether `text` starts with `prefix`.
bool StartsWith(std::string_view text, std::string_view prefix);

/// Strict decimal parsers for the numbers in wire fields, files and
/// flags. Each parses the whole of `text`. Integers are `-?[0-9]+`
/// (unsigned: `[0-9]+`): no whitespace, no `+`, and out-of-range values
/// fail. On failure `*out` is left untouched.
bool ParseInt64(std::string_view text, int64_t* out);
bool ParseUint64(std::string_view text, uint64_t* out);

/// ParseInt64 into an int that must lie in [lo, hi]: for flags such as
/// ports and millisecond timeouts.
bool ParseIntInRange(std::string_view text, int lo, int hi, int* out);

/// Parses the whole of `text` as a double, in any form strtod accepts;
/// out-of-range values fail.
bool ParseDouble(std::string_view text, double* out);

}  // namespace auditdb

#endif  // AUDITDB_COMMON_STRING_UTIL_H_
