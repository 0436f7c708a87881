"""Independent, deterministic runs mapped over the host's cores."""

import multiprocessing
import os
import warnings
from concurrent.futures import ProcessPoolExecutor

from rotorcut import run_vmc


def run_vmc_all(jobs):
    """run_vmc(graph, cfg, init) for each job, in job order.

    The runs go to a spawn pool of min(os.cpu_count(), len(jobs))
    processes, so that no BLAS thread state is forked, and each process
    turns warnings into errors, as the test run itself does. Every run is
    deterministic given its job, so the results are those of a serial loop.
    """
    jobs = list(jobs)
    with ProcessPoolExecutor(
        max_workers=min(os.cpu_count() or 1, len(jobs)),
        mp_context=multiprocessing.get_context("spawn"),
        initializer=warnings.simplefilter,
        initargs=("error",),
    ) as pool:
        return list(pool.map(run_vmc, *zip(*jobs)))
