#ifndef DRLSTREAM_COMMON_STRUTIL_H_
#define DRLSTREAM_COMMON_STRUTIL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace drlstream {

/// `s` without its leading and trailing spaces, tabs, CRs and LFs.
std::string Trim(const std::string& s);

/// Parses all of `text` as one base-10 number of *out's type, with
/// std::from_chars: no leading space or '+', nothing after the number, and
/// a value inside the type's range. Returns false and leaves *out as it
/// was on anything else ("", "2x", "2.7" or "1e3" for an integer,
/// "4294967297" for an int, "-1" for a uint64_t, "1e400"). The one parser
/// for numbers from outside: flags, workload spec parameters, fault plans
/// and workload traces.
bool ParseNumber(std::string_view text, int* out);
bool ParseNumber(std::string_view text, uint64_t* out);
bool ParseNumber(std::string_view text, double* out);

/// Edit distance for did-you-mean suggestions (small strings only).
int Levenshtein(const std::string& a, const std::string& b);

/// Nearest key within `max_distance` edits of `key`, or "" when none is
/// close enough. Ties keep the earliest candidate.
std::string NearestKey(const std::string& key,
                       const std::vector<std::string>& candidates,
                       int max_distance = 2);

/// InvalidArgument "unknown <kind> '<key>'; available: <a> <b> ...", ending
/// in " (did you mean '<x>'?)" when NearestKey finds a near miss: the one
/// message for a name missing from a fixed list (policies, workloads,
/// figures).
Status UnknownNameError(const std::string& kind, const std::string& key,
                        const std::vector<std::string>& available);

}  // namespace drlstream

#endif  // DRLSTREAM_COMMON_STRUTIL_H_
