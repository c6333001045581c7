"""The SMP (Structured Message Passing) baseline (paper section 5.1).

LeBlanc's SMP library implements message passing on the Butterfly's
shared memory; his message-passing Gaussian elimination achieved the best
16-processor speedup in the study the paper cites (15.3, vs 13.5 for
PLATINUM and 10.6 for the Uniform System) at the cost of substantially
more code (64 lines of elimination code vs PLATINUM's 17).

The reproduction keeps the structure of the hand-tuned message-passing
version:

* each thread owns its rows privately, in local memory (no sharing);
* the pivot row is distributed with a binomial-tree broadcast over ports,
  so no single node serializes all ``p - 1`` transfers;
* at the end every thread ships its rows to thread 0, which assembles and
  verifies the result -- the end-to-end correctness check.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..machine.memory import WORD_DTYPE
from ..runtime.data import Matrix
from ..runtime.ops import Compute, RecvPort, SendPort
from ..runtime.program import Program, ProgramAPI, ThreadEnv
from ..workloads.gauss import (
    DEFAULT_COMPUTE_PER_WORD,
    MODULUS,
    eliminate_reference,
    make_input,
)


class SMPGauss(Program):
    """Message-passing Gaussian elimination over ports."""

    name = "gauss-smp"

    def __init__(
        self,
        n: int = 128,
        n_threads: Optional[int] = None,
        seed: int = 1989,
        compute_per_word: float = DEFAULT_COMPUTE_PER_WORD,
        verify_result: bool = True,
    ) -> None:
        if n < 2:
            raise ValueError("matrix must be at least 2x2")
        self.n = n
        self.n_threads = n_threads
        self.seed = seed
        self.compute_per_word = compute_per_word
        self.verify_result = verify_result
        self._input = make_input(n, seed)
        self._final: Optional[np.ndarray] = None

    def setup(self, api: ProgramAPI) -> None:
        n = self.n
        p = self.n_threads or api.n_processors
        self.p = p
        wpp = api.kernel.params.words_per_page

        # private per-thread row storage, pinned to the owner's module
        self.row_store: list[Matrix] = []
        for tid in range(p):
            my_rows = [i for i in range(n) if i % p == tid]
            pages = max(1, (len(my_rows) * n + wpp - 1) // wpp)
            arena = api.arena(
                pages + 1,
                label=f"rows{tid}",
                placement=tid % api.n_processors,
            )
            store = Matrix(
                arena.alloc(max(1, len(my_rows)) * n, page_aligned=True),
                max(1, len(my_rows)),
                n,
                name=f"rows{tid}",
            )
            self.row_store.append(store)

        # one pivot port per thread, homed at its node, plus a collector
        self.pivot_ports = [
            api.port(home_module=t % api.n_processors, label=f"pivot{t}")
            for t in range(p)
        ]
        self.collect_port = api.port(home_module=0, label="collect")

        for tid in range(p):
            api.spawn(tid % api.n_processors, self._body, name=f"smp{tid}")

    # -- row bookkeeping ---------------------------------------------------------

    def _my_rows(self, tid: int) -> list[int]:
        return [i for i in range(self.n) if i % self.p == tid]

    def _broadcast_children(self, me: int, root: int) -> list[int]:
        """Binomial-tree children of ``me`` in the broadcast rooted at
        ``root``: relative rank ``r`` forwards to ``r + 2^k`` for every
        power of two that divides ``2r`` (the classic construction, so no
        node sends more than ``log2 p`` messages)."""
        rank = (me - root) % self.p
        children = []
        k = 1
        while k < self.p:
            if rank % (2 * k) == 0 and rank + k < self.p:
                children.append((root + rank + k) % self.p)
            k <<= 1
        return children

    # -- thread body ---------------------------------------------------------------

    def _body(self, env: ThreadEnv):
        n, p, me = self.n, self.p, env.tid
        mine = self._my_rows(me)
        store = self.row_store[me]

        # load my rows into private local memory
        rows: dict[int, np.ndarray] = {}
        for local_idx, i in enumerate(mine):
            values = np.array(self._input[i], dtype=WORD_DTYPE)
            yield store.write_row(local_idx, values)
            rows[i] = values

        # pivots can arrive out of round order (different broadcast trees
        # per round); tag each message with its round and stash early ones
        stashed: dict[int, np.ndarray] = {}
        for k in range(n - 1):
            root = k % p
            if me == root:
                pivot = rows[k][k:]
            elif k in stashed:
                pivot = stashed.pop(k)
            else:
                while True:
                    data = yield RecvPort(self.pivot_ports[me])
                    tag = int(data[0])
                    body = np.asarray(data[1:], dtype=WORD_DTYPE)
                    if tag == k:
                        pivot = body
                        break
                    stashed[tag] = body
            # forward down the binomial tree
            tagged = np.concatenate(
                [np.array([k], dtype=WORD_DTYPE), pivot]
            )
            for child in self._broadcast_children(me, root):
                yield SendPort(self.pivot_ports[child], tagged)
            pkk = int(pivot[0])
            for i in mine:
                if i <= k:
                    continue
                local_idx = mine.index(i)
                row = yield store.read_row(local_idx, start=k)
                rik = int(row[0])
                updated = (pkk * row - rik * pivot) % MODULUS
                yield Compute(self.compute_per_word * len(updated))
                yield store.write_row(local_idx, updated, start=k)
                rows[i] = np.concatenate([rows[i][:k], updated])

        # ship my rows to the collector
        if self.verify_result:
            for local_idx, i in enumerate(mine):
                row = yield store.read_row(local_idx)
                header = np.concatenate(
                    [np.array([i], dtype=WORD_DTYPE), row]
                )
                yield SendPort(self.collect_port, header)
            if me == 0:
                final = np.zeros((n, n), dtype=WORD_DTYPE)
                for _ in range(n):
                    msg = yield RecvPort(self.collect_port)
                    final[int(msg[0])] = msg[1:]
                self._final = final
        return me

    def verify(self, results) -> None:
        assert sorted(results) == list(range(self.p)), results
        if not self.verify_result:
            return
        assert self._final is not None
        expected = eliminate_reference(self._input)
        if not np.array_equal(self._final, expected):
            raise AssertionError(
                "SMP elimination result differs from the sequential "
                "reference"
            )
