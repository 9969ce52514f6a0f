/* Flat wall-time sampler for any native binary, loaded with LD_PRELOAD.

   On every ITIMER_PROF tick (CPU time of the whole process, every
   thread) the SIGPROF handler records the interrupted instruction
   pointer.  At exit the addresses and a copy of /proc/self/maps go to
   $PROF_OUT (default prof.<pid>.out); symbolize.py turns them into a
   flat profile.  $PROF_US sets the tick in microseconds (default 1000).

     cc -O2 -shared -fPIC -o tools/prof/sigprof.so tools/prof/sigprof.c
     LD_PRELOAD=$PWD/tools/prof/sigprof.so PROF_OUT=run.prof ./prog args
     python3 tools/prof/symbolize.py run.prof ./prog

   The handler only stores into a static array, so it is async-signal
   safe; samples past the array's end are counted but dropped. */
#define _GNU_SOURCE
#include <signal.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <ucontext.h>
#include <unistd.h>

#define MAX_SAMPLES (1 << 20)

static unsigned long samples[MAX_SAMPLES];
static unsigned long taken;

static void on_tick(int sig, siginfo_t *info, void *context) {
  ucontext_t *uc = context;
  unsigned long i = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
  (void)sig;
  (void)info;
  if (i < MAX_SAMPLES) samples[i] = (unsigned long)uc->uc_mcontext.gregs[REG_RIP];
}

__attribute__((constructor)) static void prof_start(void) {
  const char *us_env = getenv("PROF_US");
  long us = us_env ? atol(us_env) : 1000;
  struct sigaction sa;
  struct itimerval it = {{us / 1000000, us % 1000000}, {us / 1000000, us % 1000000}};
  memset(&sa, 0, sizeof sa);
  sa.sa_sigaction = on_tick;
  sa.sa_flags = SA_SIGINFO | SA_RESTART;
  sigemptyset(&sa.sa_mask);
  sigaction(SIGPROF, &sa, NULL);
  setitimer(ITIMER_PROF, &it, NULL);
}

__attribute__((destructor)) static void prof_stop(void) {
  struct itimerval off = {{0, 0}, {0, 0}};
  char name[64], line[4096];
  const char *out = getenv("PROF_OUT");
  unsigned long n, i;
  FILE *f, *maps;
  setitimer(ITIMER_PROF, &off, NULL);
  if (!out) {
    snprintf(name, sizeof name, "prof.%d.out", (int)getpid());
    out = name;
  }
  if (!(f = fopen(out, "w"))) return;
  n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
  fprintf(f, "samples %lu dropped %lu\n", n, taken - n);
  for (i = 0; i < n; i++) fprintf(f, "%lx\n", samples[i]);
  fprintf(f, "maps\n");
  if ((maps = fopen("/proc/self/maps", "r"))) {
    while (fgets(line, sizeof line, maps)) fputs(line, f);
    fclose(maps);
  }
  fclose(f);
}
