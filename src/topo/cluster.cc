#include "topo/cluster.h"

namespace drlstream::topo {

int AliveCount(const std::vector<uint8_t>& up_mask) {
  int alive = 0;
  for (uint8_t up : up_mask) alive += up ? 1 : 0;
  return alive;
}

void AliveMachineList(const std::vector<uint8_t>& up_mask, int num_machines,
                      std::vector<int>* out) {
  out->clear();
  for (int m = 0; m < num_machines; ++m) {
    if (up_mask.empty() || up_mask[m]) out->push_back(m);
  }
}

Status ClusterConfig::Validate() const {
  if (num_machines <= 0) {
    return Status::InvalidArgument("num_machines must be positive");
  }
  if (slots_per_machine <= 0) {
    return Status::InvalidArgument("slots_per_machine must be positive");
  }
  if (cores_per_machine <= 0) {
    return Status::InvalidArgument("cores_per_machine must be positive");
  }
  if (local_hop_ms < 0 || remote_base_ms < 0 || nic_per_tuple_ms < 0 ||
      interprocess_hop_ms < 0) {
    return Status::InvalidArgument("hop delays must be non-negative");
  }
  if (nic_bandwidth_mbps <= 0) {
    return Status::InvalidArgument("nic_bandwidth_mbps must be positive");
  }
  if (migration_pause_ms < 0) {
    return Status::InvalidArgument("migration_pause_ms must be non-negative");
  }
  if (ack_timeout_ms <= 0) {
    return Status::InvalidArgument("ack_timeout_ms must be positive");
  }
  if (machine.active_watts < 0 || machine.idle_watts < 0 ||
      machine.sleep_watts < 0) {
    return Status::InvalidArgument("machine wattages must be non-negative");
  }
  if (machine.wake_ms < 0) {
    return Status::InvalidArgument("machine.wake_ms must be non-negative");
  }
  return Status::OK();
}

}  // namespace drlstream::topo
