"""Peak memory of one call, as ``tracemalloc`` sees it, for the memory
tests."""

import tracemalloc


def traced_peak(fn, *args) -> int:
    """The peak traced memory in bytes while ``fn(*args)`` runs: tracing
    starts just before the call and stops after it, whatever it raises."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
