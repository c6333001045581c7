"""Remote procedure calls: moving the computation to the data.

Section 4.1 lists three ways to run an operation on shared data: access
it remotely in place, move the data (migration/replication -- PLATINUM's
contribution), or co-locate the computation with the data "by performing
a remote procedure call", noting that "implementations of languages such
as Emerald on top of PLATINUM would utilize the third option".

This module provides that third option as a library on top of ports: a
:class:`RemoteService` owns some state placed on a *home* node and runs a
server thread there; clients ship operations (opcode + word arguments)
through the service's request port and block on a private reply port.
All of the server's memory references are local by construction, and all
of the cost is in the messages -- which makes the three-way §4.1
comparison directly measurable (``repro bench --filter ablation_rpc``).
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

import numpy as np

from ..machine.memory import WORD_DTYPE
from .alloc import Arena
from .ops import RecvPort, SendPort
from .program import ProgramAPI, ThreadEnv

#: reserved opcode: client will make no more calls
STOP = -1


class RemoteService:
    """State with a home node, operated on only by its server thread.

    ``handler(service, opcode, args)`` is a generator (it may yield
    memory operations against ``service.state_va``) returning a numpy
    word array to send back as the reply.
    """

    def __init__(
        self,
        api: ProgramAPI,
        home_processor: int,
        state_words: int,
        handler: Callable[["RemoteService", int, np.ndarray],
                          Generator],
        n_clients: int,
        label: str = "svc",
        state_backing: Optional[np.ndarray] = None,
    ) -> None:
        if n_clients < 1:
            raise ValueError("a service needs at least one client")
        self.api = api
        self.home = home_processor % api.n_processors
        self.handler = handler
        self.label = label
        self.n_clients = n_clients
        wpp = api.kernel.params.words_per_page
        pages = (state_words + wpp - 1) // wpp + 1
        self.arena: Arena = api.arena(
            pages, label=f"{label}-state", placement=self.home,
            backing=state_backing,
        )
        self.state_va = self.arena.alloc(state_words, page_aligned=True)
        self.state_words = state_words
        self.request = api.port(
            home_module=self.home, label=f"{label}-req"
        )
        self.reply_ports = [
            api.port(home_module=None, label=f"{label}-rep{i}")
            for i in range(n_clients)
        ]
        self.calls_served = 0
        self._spec = api.spawn(
            self.home, self._server_body, name=f"{label}-server"
        )

    # -- client side ----------------------------------------------------------

    def call(self, client_id: int, opcode: int, *args: int) -> Generator:
        """``reply = yield from service.call(me, opcode, a, b, ...)``."""
        if not 0 <= client_id < self.n_clients:
            raise ValueError(f"bad client id {client_id}")
        message = np.array(
            [client_id, opcode, *args], dtype=WORD_DTYPE
        )
        yield SendPort(self.request, message)
        reply = yield RecvPort(self.reply_ports[client_id])
        return np.asarray(reply, dtype=WORD_DTYPE)

    def stop(self, client_id: int) -> Generator:
        """Tell the server this client is finished."""
        yield SendPort(
            self.request,
            np.array([client_id, STOP], dtype=WORD_DTYPE),
        )

    # -- server side --------------------------------------------------------------

    def _server_body(self, env: ThreadEnv):
        stopped = 0
        while stopped < self.n_clients:
            message = yield RecvPort(self.request)
            client_id = int(message[0])
            opcode = int(message[1])
            if opcode == STOP:
                stopped += 1
                continue
            args = np.asarray(message[2:], dtype=WORD_DTYPE)
            reply = yield from self.handler(self, opcode, args)
            if reply is None:
                reply = np.zeros(1, dtype=WORD_DTYPE)
            yield SendPort(
                self.reply_ports[client_id],
                np.asarray(reply, dtype=WORD_DTYPE),
            )
            self.calls_served += 1
        return self.calls_served
