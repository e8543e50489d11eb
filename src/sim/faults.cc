#include "sim/faults.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "common/strutil.h"

namespace drlstream::sim {
namespace {

struct Window {
  double start;
  double end;
  int machine;  // -1 = all machines
};

/// True when two degradation windows hit an overlapping machine set over an
/// overlapping time span ([start, end) intervals; -1 collides with every
/// machine).
bool WindowsCollide(const Window& a, const Window& b) {
  const bool machines_overlap =
      a.machine == -1 || b.machine == -1 || a.machine == b.machine;
  return machines_overlap && a.start < b.end && b.start < a.end;
}

/// Parses a whole field (ParseNumber); a double must also be finite.
template <typename T>
Status ParseField(const std::string& field, const char* what, T* out) {
  T value{};
  if (!ParseNumber(field, &value) || !std::isfinite(static_cast<double>(value))) {
    return Status::InvalidArgument(std::string("bad ") + what + " '" + field +
                                   "' in fault plan");
  }
  *out = value;
  return Status::OK();
}

}  // namespace

const char* FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kMachineCrash:
      return "crash";
    case FaultType::kMachineRecover:
      return "recover";
    case FaultType::kStraggler:
      return "straggler";
    case FaultType::kLinkSpike:
      return "link_spike";
    case FaultType::kSpoutShock:
      return "spout_shock";
  }
  return "unknown";
}

StatusOr<FaultType> FaultTypeFromName(const std::string& name) {
  if (name == "crash") return FaultType::kMachineCrash;
  if (name == "recover") return FaultType::kMachineRecover;
  if (name == "straggler") return FaultType::kStraggler;
  if (name == "link_spike") return FaultType::kLinkSpike;
  if (name == "spout_shock") return FaultType::kSpoutShock;
  return Status::InvalidArgument("unknown fault type '" + name + "'");
}

void FaultPlan::Add(const FaultEvent& event) {
  events_.push_back(event);
  sorted_ = false;
}

void FaultPlan::AddCrash(double time_ms, int machine) {
  Add(FaultEvent{time_ms, FaultType::kMachineCrash, machine, 0.0, 0.0});
}

void FaultPlan::AddRecover(double time_ms, int machine) {
  Add(FaultEvent{time_ms, FaultType::kMachineRecover, machine, 0.0, 0.0});
}

void FaultPlan::AddStraggler(double time_ms, int machine, double factor,
                             double duration_ms) {
  Add(FaultEvent{time_ms, FaultType::kStraggler, machine, factor,
                 duration_ms});
}

void FaultPlan::AddLinkSpike(double time_ms, int machine, double extra_ms,
                             double duration_ms) {
  Add(FaultEvent{time_ms, FaultType::kLinkSpike, machine, extra_ms,
                 duration_ms});
}

void FaultPlan::AddSpoutShock(double time_ms, double factor) {
  Add(FaultEvent{time_ms, FaultType::kSpoutShock, -1, factor, 0.0});
}

void FaultPlan::SortIfNeeded() const {
  if (sorted_) return;
  std::stable_sort(events_.begin(), events_.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time_ms < b.time_ms;
                   });
  sorted_ = true;
}

const std::vector<FaultEvent>& FaultPlan::events() const {
  SortIfNeeded();
  return events_;
}

Status FaultPlan::Validate(int num_machines) const {
  if (num_machines <= 0) {
    return Status::InvalidArgument("fault plan needs a positive machine count");
  }
  SortIfNeeded();
  std::vector<bool> down(num_machines, false);
  int down_count = 0;
  std::vector<Window> straggler_windows;
  std::vector<Window> link_windows;
  for (const FaultEvent& event : events_) {
    if (!std::isfinite(event.time_ms) || event.time_ms < 0.0) {
      return Status::InvalidArgument("fault event time must be finite and "
                                     ">= 0");
    }
    const bool needs_machine = event.type == FaultType::kMachineCrash ||
                               event.type == FaultType::kMachineRecover ||
                               event.type == FaultType::kStraggler;
    if (needs_machine &&
        (event.machine < 0 || event.machine >= num_machines)) {
      return Status::InvalidArgument(
          std::string(FaultTypeName(event.type)) +
          " event targets machine out of range");
    }
    if (event.type == FaultType::kLinkSpike &&
        (event.machine < -1 || event.machine >= num_machines)) {
      return Status::InvalidArgument("link_spike machine out of range");
    }
    switch (event.type) {
      case FaultType::kMachineCrash:
        if (down[event.machine]) {
          return Status::InvalidArgument("machine crashed twice without a "
                                         "recovery in between");
        }
        down[event.machine] = true;
        if (++down_count == num_machines) {
          return Status::InvalidArgument("fault plan takes every machine "
                                         "down at once");
        }
        break;
      case FaultType::kMachineRecover:
        if (!down[event.machine]) {
          return Status::InvalidArgument("recover of a machine that is not "
                                         "down");
        }
        down[event.machine] = false;
        --down_count;
        break;
      case FaultType::kStraggler: {
        if (!(event.magnitude > 0.0) || !std::isfinite(event.magnitude)) {
          return Status::InvalidArgument("straggler factor must be positive");
        }
        if (!(event.duration_ms > 0.0) || !std::isfinite(event.duration_ms)) {
          return Status::InvalidArgument("straggler duration must be "
                                         "positive");
        }
        const Window w{event.time_ms, event.time_ms + event.duration_ms,
                       event.machine};
        for (const Window& other : straggler_windows) {
          if (WindowsCollide(w, other)) {
            return Status::InvalidArgument("overlapping straggler windows on "
                                           "one machine");
          }
        }
        straggler_windows.push_back(w);
        break;
      }
      case FaultType::kLinkSpike: {
        if (event.magnitude < 0.0 || !std::isfinite(event.magnitude)) {
          return Status::InvalidArgument("link_spike extra latency must be "
                                         ">= 0");
        }
        if (!(event.duration_ms > 0.0) || !std::isfinite(event.duration_ms)) {
          return Status::InvalidArgument("link_spike duration must be "
                                         "positive");
        }
        const Window w{event.time_ms, event.time_ms + event.duration_ms,
                       event.machine};
        for (const Window& other : link_windows) {
          if (WindowsCollide(w, other)) {
            return Status::InvalidArgument("overlapping link_spike windows "
                                           "on one uplink");
          }
        }
        link_windows.push_back(w);
        break;
      }
      case FaultType::kSpoutShock:
        if (event.magnitude < 0.0 || !std::isfinite(event.magnitude)) {
          return Status::InvalidArgument("spout_shock factor must be >= 0");
        }
        break;
    }
  }
  return Status::OK();
}

StatusOr<FaultPlan> FaultPlan::ParseCsv(const std::string& text) {
  FaultPlan plan;
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    line = Trim(line);
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> fields;
    std::istringstream fields_in(line);
    std::string field;
    while (std::getline(fields_in, field, ',')) {
      fields.push_back(Trim(field));
    }
    if (!fields.empty() && fields[0] == "time_ms") continue;  // header
    if (fields.size() != 5) {
      return Status::InvalidArgument(
          "fault plan line " + std::to_string(line_no) +
          ": expected 5 fields time_ms,type,machine,magnitude,duration_ms");
    }
    FaultEvent event;
    DRLSTREAM_RETURN_NOT_OK(ParseField(fields[0], "time_ms", &event.time_ms));
    DRLSTREAM_ASSIGN_OR_RETURN(event.type, FaultTypeFromName(fields[1]));
    DRLSTREAM_RETURN_NOT_OK(ParseField(fields[2], "machine", &event.machine));
    DRLSTREAM_RETURN_NOT_OK(
        ParseField(fields[3], "magnitude", &event.magnitude));
    DRLSTREAM_RETURN_NOT_OK(
        ParseField(fields[4], "duration_ms", &event.duration_ms));
    plan.Add(event);
  }
  return plan;
}

StatusOr<FaultPlan> FaultPlan::LoadCsvFile(const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open fault plan " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseCsv(buffer.str());
}

std::string FaultPlan::ToCsv() const {
  SortIfNeeded();
  std::ostringstream out;
  out << "time_ms,type,machine,magnitude,duration_ms\n";
  out.precision(17);
  for (const FaultEvent& event : events_) {
    out << event.time_ms << ',' << FaultTypeName(event.type) << ','
        << event.machine << ',' << event.magnitude << ','
        << event.duration_ms << '\n';
  }
  return out.str();
}

}  // namespace drlstream::sim
