import gc
import tracemalloc

# tracemalloc also counts small Python and numpy bookkeeping objects (loop
# indices past the small-int cache, array flags); a few KiB cover them
PEAK_SLACK = 16 * 1024


def traced_peak(fn):
    """`fn()`'s result and the bytes it held at its tracemalloc peak,
    counted from its start."""
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - before, out
    finally:
        tracemalloc.stop()
