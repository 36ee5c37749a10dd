/* CPU time of the whole process, in nanoseconds, from
   clock_gettime(CLOCK_PROCESS_CPUTIME_ID).  getrusage (Unix.times)
   rounds to microseconds, too coarse for ops of 30 us. */

#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

CAMLprim value perfbench_cpu_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return caml_copy_int64((int64_t)ts.tv_sec * 1000000000 + ts.tv_nsec);
}
