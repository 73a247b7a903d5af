/* Start a worker process and return once it runs its own image.

   posix_spawn returns when the child releases the parent, which is
   before the child has swapped in its new address space. Until then
   /proc/<pid> of the child describes the parent's memory: a thread of
   this process that reads a worker's resident set right after the
   spawn would read the coordinator's. So this stub also waits, without
   releasing the runtime lock, until a close-on-exec pipe inherited by
   the child reaches end of file. The kernel closes such descriptors
   only after the new image is in place, so no thread of this process
   ever sees a half-started worker. */

#define _GNU_SOURCE
#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <unistd.h>

#define CAML_NAME_SPACE
#include <caml/memory.h>
#include <caml/mlvalues.h>
#include <caml/unixsupport.h>

extern char **environ;

static int cloexec_pipe(int fds[2])
{
#if defined(__APPLE__)
  if (pipe(fds) == -1) return -1;
  fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  return 0;
#else
  return pipe2(fds, O_CLOEXEC);
#endif
}

/* A child that never execs (a fork that inherited the pipe) holds the
   wait up to this long. */
#define EXEC_WAIT_MS 1000

/* [snet_dist_spawn_execd exe argv]: spawn [exe] with [argv], this
   process's environment and standard descriptors, and wait for its
   exec. Returns the pid. */
CAMLprim value snet_dist_spawn_execd(value v_exe, value v_argv)
{
  CAMLparam2(v_exe, v_argv);
  char **argv;
  char *exe;
  int fds[2], err;
  pid_t pid;
  struct pollfd pfd;
  char c;

  caml_unix_check_path(v_exe, "create_process");
  argv = caml_unix_cstringvect(v_argv, "create_process");
  exe = caml_stat_strdup(String_val(v_exe));
  if (cloexec_pipe(fds) == -1) {
    err = errno;
    caml_stat_free(exe);
    caml_unix_cstringvect_free(argv);
    caml_unix_error(err, "pipe", Nothing);
  }
  err = posix_spawnp(&pid, exe, NULL, NULL, argv, environ);
  close(fds[1]);
  caml_stat_free(exe);
  caml_unix_cstringvect_free(argv);
  if (err != 0) {
    close(fds[0]);
    caml_unix_error(err, "create_process", v_exe);
  }
  pfd.fd = fds[0];
  pfd.events = POLLIN;
  for (;;) {
    int r = poll(&pfd, 1, EXEC_WAIT_MS);
    if (r == -1 && errno == EINTR) continue;
    if (r == 1 && read(fds[0], &c, 1) == -1 && errno == EINTR) continue;
    break;
  }
  close(fds[0]);
  CAMLreturn(Val_int(pid));
}
