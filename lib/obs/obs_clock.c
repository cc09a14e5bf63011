/* The monotonic clock behind Obs.Metrics.now_ns: nanoseconds since an
   unspecified start, never stepped by changes to the system time. */
#include <time.h>
#include <caml/mlvalues.h>
#include <caml/alloc.h>

double obs_monotonic_ns(value unit)
{
  struct timespec ts;
  (void) unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double) ts.tv_sec * 1e9 + (double) ts.tv_nsec;
}

value obs_monotonic_ns_byte(value unit)
{
  return caml_copy_double(obs_monotonic_ns(unit));
}
