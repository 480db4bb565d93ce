/* CPU pinning for the benchmark's own process and the daemon it forks. */
#define _GNU_SOURCE
#include <sched.h>
#include <caml/mlvalues.h>

/* Pin the calling process to one CPU; false when the kernel refuses. */
value perfbench_pin_cpu(value cpu)
{
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(Int_val(cpu), &set);
  return Val_bool(sched_setaffinity(0, sizeof set, &set) == 0);
}
