#ifndef DRLSTREAM_COMMON_STRUTIL_H_
#define DRLSTREAM_COMMON_STRUTIL_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace drlstream {

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
