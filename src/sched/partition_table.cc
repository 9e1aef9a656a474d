#include "sched/partition_table.h"

namespace oij {

std::shared_ptr<const Schedule> Schedule::MakeStatic(uint32_t num_partitions,
                                                     uint32_t num_joiners) {
  auto s = std::make_shared<Schedule>();
  s->version = 0;
  s->num_joiners = num_joiners;
  s->teams.resize(num_partitions);
  if (num_joiners == 0) return s;
  for (uint32_t p = 0; p < num_partitions; ++p) {
    s->teams[p] = {p % num_joiners};
  }
  return s;
}

}  // namespace oij
