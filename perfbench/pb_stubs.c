/* Monotonic nanosecond clock for the benchmark. */
#include <sched.h>
#include <time.h>
#include <caml/mlvalues.h>

value pb_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return Val_long((long)ts.tv_sec * 1000000000L + ts.tv_nsec);
}

/* Give the CPU to any other runnable thread; the open-loop generator
   calls this between polls so a busy-waiting generator does not starve
   the daemon it measures. */
value pb_yield(value unit)
{
  (void)unit;
  sched_yield();
  return Val_unit;
}
