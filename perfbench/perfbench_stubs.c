/* What the OCaml standard library does not expose: a monotonic
   nanosecond clock for spans, per-process CPU clocks (this process and,
   through clock_getcpuclockid, a child daemon), and CPU pinning. The
   untagged variants are [@@noalloc], so timing a call allocates
   nothing. */
#define _GNU_SOURCE
#include <sched.h>
#include <time.h>
#include <sys/types.h>
#include <caml/mlvalues.h>

static intnat ns_of(clockid_t clk)
{
  struct timespec ts;
  if (clock_gettime(clk, &ts) != 0) return -1;
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

intnat perfbench_mono_ns(value unit) { (void)unit; return ns_of(CLOCK_MONOTONIC); }
value perfbench_mono_ns_byte(value unit) { return Val_long(perfbench_mono_ns(unit)); }

intnat perfbench_cpu_ns(value unit) { (void)unit; return ns_of(CLOCK_PROCESS_CPUTIME_ID); }
value perfbench_cpu_ns_byte(value unit) { return Val_long(perfbench_cpu_ns(unit)); }

/* CPU time of another process, or -1 when it cannot be read. */
intnat perfbench_pid_cpu_ns(value pid)
{
  clockid_t clk;
  if (clock_getcpuclockid((pid_t)Long_val(pid), &clk) != 0) return -1;
  return ns_of(clk);
}
value perfbench_pid_cpu_ns_byte(value pid) { return Val_long(perfbench_pid_cpu_ns(pid)); }

/* Pin the calling thread, and so the processes it starts afterwards,
   to the highest-numbered CPU it may run on. Returns that CPU, or -1
   when the affinity cannot be read or set. */
value perfbench_pin_last_cpu(value unit)
{
  cpu_set_t set;
  int last = -1;
  (void)unit;
  if (sched_getaffinity(0, sizeof set, &set) != 0) return Val_long(-1);
  for (int c = 0; c < CPU_SETSIZE; c++)
    if (CPU_ISSET(c, &set)) last = c;
  if (last < 0) return Val_long(-1);
  CPU_ZERO(&set);
  CPU_SET(last, &set);
  if (sched_setaffinity(0, sizeof set, &set) != 0) return Val_long(-1);
  return Val_long(last);
}
