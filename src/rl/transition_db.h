#ifndef DRLSTREAM_RL_TRANSITION_DB_H_
#define DRLSTREAM_RL_TRANSITION_DB_H_

#include <utility>
#include <vector>

#include "rl/replay_buffer.h"
#include "sched/model_based.h"

namespace drlstream::rl {

/// The framework's "Database" component (Fig. 1): the in-memory store of
/// transition samples for offline training. Each record keeps the RL
/// transition plus the detailed per-component statistics the model-based
/// baseline consumes, so one offline collection pass feeds every method.
class TransitionDatabase {
 public:
  struct Record {
    Transition transition;
    /// Detailed runtime statistics measured while `action_assignments` was
    /// deployed (empty when detail collection was off).
    std::vector<double> component_proc_ms;
    std::vector<double> edge_transfer_ms;
  };

  void Add(Record record) { records_.push_back(std::move(record)); }
  size_t size() const { return records_.size(); }
  bool empty() const { return records_.empty(); }
  const Record& at(size_t i) const { return records_[i]; }
  const std::vector<Record>& records() const { return records_; }

  /// Converts the records into the model-based baseline's training samples.
  /// Records lacking detailed statistics are skipped.
  std::vector<sched::PerfSample> ToPerfSamples() const;

 private:
  std::vector<Record> records_;
};

}  // namespace drlstream::rl

#endif  // DRLSTREAM_RL_TRANSITION_DB_H_
