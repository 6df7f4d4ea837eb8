"""The one fork helper: work on a second core, streamed back through a pipe."""

import contextlib
import os
import pickle  # loaded with numpy already, so it costs no start-up time
import signal


@contextlib.contextmanager
def forked(label: str, work):
    """Run work(send) in a forked child; yield an iterator over what it sends.

    send pickles a message into a pipe and flushes it.  The child leaves by
    os._exit, with status 0 only after all it sent was written.  The
    iterator raises RuntimeError, with the child's traceback, if work
    raised, and where the pipe ends and the status is not 0.  Leaving the
    block before the iterator ends kills the child; every path reaps it."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as pipe:
                def send(message):
                    pickle.dump(message, pipe, protocol=pickle.HIGHEST_PROTOCOL)
                    pipe.flush()
                try:
                    work(send)
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
