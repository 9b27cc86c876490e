/* Host_heap.retain: keep the freed top of the malloc heap in the
   process (DESIGN.md §10). OCaml 5 hands blocks over 128 words to
   malloc; when the GC frees a run's worth of them, glibc's default
   trim threshold (128 KiB) returns the heap top to the kernel and the
   next run faults every page back in. */

#include <stdlib.h> /* defines __GLIBC__ under glibc */
#include <caml/mlvalues.h>

#ifdef __GLIBC__
#include <malloc.h>
#include <stdatomic.h>

/* The most free memory glibc may keep at the top of its heap before it
   trims; it bounds what is kept, not the process's peak. */
#define WARDEN_TRIM_THRESHOLD (256 * 1024 * 1024)

static atomic_flag warden_trim_set = ATOMIC_FLAG_INIT;

value warden_host_heap_retain(value unit)
{
  (void)unit;
  if (!atomic_flag_test_and_set(&warden_trim_set))
    mallopt(M_TRIM_THRESHOLD, WARDEN_TRIM_THRESHOLD);
  return Val_true;
}

#else

value warden_host_heap_retain(value unit)
{
  (void)unit;
  return Val_false;
}

#endif
