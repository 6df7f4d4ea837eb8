"""The one fork helper: work on a second core, streamed back through a pipe."""

import contextlib
import os
import pickle  # loaded with numpy already, so it costs no start-up time
import signal
import sys

# Linux's default pipe-max-size, the most an unprivileged process may ask
# for: about 13 records of 77 KB, where the default 64 KiB holds none whole.
PIPE_BYTES = 1 << 20


@contextlib.contextmanager
def forked(label: str, work):
    """Run work(send, backlog) in a forked child; yield an iterator over
    what it sends.

    send pickles a message into a pipe and flushes it; backlog returns the
    bytes sent and not yet read, or None where FIONREAD fails.  The child
    leaves by os._exit, with status 0 only after all it sent was written.
    The iterator raises RuntimeError, with the child's traceback, if work
    raised, and where the pipe ends and the status is not 0.  Leaving the
    block before the iterator ends kills the child; every path reaps it."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            # the child alone widens the pipe and counts what is unread in
            # it, so the parent loads neither module; a pipe that cannot
            # be widened (no F_SETPIPE_SZ, or refused) keeps its default size
            import fcntl
            import termios

            with contextlib.suppress(AttributeError, OSError):
                fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, PIPE_BYTES)

            def backlog():
                try:
                    unread = fcntl.ioctl(write_end, termios.FIONREAD, bytes(4))
                except OSError:
                    return None
                return int.from_bytes(unread, sys.byteorder)

            with os.fdopen(write_end, "wb") as pipe:
                def send(message):
                    pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
                try:
                    work(send, backlog)
                except Exception:  # anything else leaves by os._exit(1) below
                    import traceback
                    send(RuntimeError(f"the {label} raised in its process:\n"
                                      + traceback.format_exc()))
            os._exit(0)
        finally:
            os._exit(1)

    os.close(write_end)
    status = None

    def messages(pipe):
        nonlocal status
        with contextlib.suppress(EOFError, pickle.UnpicklingError):  # the pipe ended
            while True:
                message = pickle.load(pipe)
                if isinstance(message, RuntimeError):
                    raise message
                yield message
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        if status != 0:
            raise RuntimeError(f"the {label}'s process exited with status {status} "
                               "before sending its result")

    try:
        with os.fdopen(read_end, "rb") as pipe:
            yield messages(pipe)
    finally:
        if status is None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
