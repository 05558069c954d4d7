/* threads-io: four worker threads, each running a compute loop that
   writes one byte to its own file every 8 iterations and yields every
   16, while the main thread waits for them.  At --cores 4 the fourth
   worker shares core 0 with the main thread, so yields hand that core
   back and forth.  The benchmark substitutes the ITERS_k placeholders
   with per-thread iteration counts drawn from its seed.

   Only the main thread calls malloc/free.  The libc allocator is a
   free list over brk with no locking, so two threads inside it at once
   corrupt it: a version of this client that allocated from every
   thread livelocked at --cores 4 (all cores spinning after 200k blocks,
   5 bytes written) while passing at --cores 1.  That is a race in the
   guest program, not in the core, so the workers only ever use buffers
   the main thread handed them before they started. */

int iters[4];
int fds[4];
char *bufs[4];
int sums[4];
int done[4];
char stk1[8192];
char stk2[8192];
char stk3[8192];
char stk4[8192];

void work(int k) {
  int i; int j; int x; int acc; char *b;
  b = bufs[k];
  x = k * 7919 + 17;
  acc = 0;
  for (i = 1; i <= iters[k]; i++) {
    for (j = 0; j < 6; j++) {
      x = (x * 1103515245 + 12345) & 2147483647;
      acc = acc + ((x >> 7) & 255) - j;
    }
    if (i % 8 == 0) {
      b[0] = (char)('a' + (x >> 11) % 26);
      write(fds[k], b, 1);
    }
    if (i % 16 == 0) { yield(); }
  }
  sums[k] = acc;
}

void worker0() { work(0); done[0] = 1; thread_exit(); }
void worker1() { work(1); done[1] = 1; thread_exit(); }
void worker2() { work(2); done[2] = 1; thread_exit(); }
void worker3() { work(3); done[3] = 1; thread_exit(); }

int main() {
  int k;
  iters[0] = ITERS_0; iters[1] = ITERS_1; iters[2] = ITERS_2; iters[3] = ITERS_3;
  fds[0] = open("t0.out", 1);
  fds[1] = open("t1.out", 1);
  fds[2] = open("t2.out", 1);
  fds[3] = open("t3.out", 1);
  for (k = 0; k < 4; k++) { bufs[k] = malloc(16); }
  thread_create((int)&worker0, (int)stk1 + 8184, 0);
  thread_create((int)&worker1, (int)stk2 + 8184, 0);
  thread_create((int)&worker2, (int)stk3 + 8184, 0);
  thread_create((int)&worker3, (int)stk4 + 8184, 0);
  while (done[0] == 0 || done[1] == 0 || done[2] == 0 || done[3] == 0) {
    yield();
  }
  for (k = 0; k < 4; k++) {
    print_str("t"); print_int(k); print_str(" "); print_int(sums[k]); print_str("\n");
    free(bufs[k]);
  }
  return 0;
}
